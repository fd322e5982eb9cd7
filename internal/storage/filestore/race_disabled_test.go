//go:build !race

package filestore

const raceEnabled = false
