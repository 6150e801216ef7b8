//go:build race

package analysis

// raceEnabled gates the allocation-regression tests: the race detector's
// instrumentation allocates, so AllocsPerRun bounds only hold on plain builds.
const raceEnabled = true
