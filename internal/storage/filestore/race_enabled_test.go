//go:build race

package filestore

// raceEnabled reports that the race detector is on: its allocator
// overhead makes bytes-per-miss assertions meaningless, so they are
// skipped there.
const raceEnabled = true
