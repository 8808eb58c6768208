//go:build !race

package align

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so the zero-allocation guards skip under it.
const raceEnabled = false
