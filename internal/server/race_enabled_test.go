//go:build race

package server

// raceEnabled reports that the race detector is on: its allocator
// overhead makes bytes-per-row assertions meaningless, so they are
// skipped there.
const raceEnabled = true
