//go:build race

package server

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation counts hold only without it.
const raceEnabled = true
