//go:build race

package cellgraph

// raceEnabled reports that this test binary was built with -race, whose
// runtime instrumentation allocates on its own and invalidates strict
// allocation-count assertions.
const raceEnabled = true
