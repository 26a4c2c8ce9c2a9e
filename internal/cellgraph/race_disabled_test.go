//go:build !race

package cellgraph

const raceEnabled = false
