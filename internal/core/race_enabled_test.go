//go:build race

package core

// raceEnabled reports that the race detector is on: its allocator
// overhead makes heap-size assertions meaningless, so they are skipped
// there.
const raceEnabled = true
