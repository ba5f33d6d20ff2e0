//go:build race

package sink

// raceEnabled: the race detector's instrumentation allocates where the plain
// build does not, so allocation pins only hold without it.
const raceEnabled = true
