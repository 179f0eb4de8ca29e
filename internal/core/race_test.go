//go:build race

package core

// raceEnabled reports a race-detector build, in which the solver runs
// several times slower, so a test's wall-clock budget must grow with it.
const raceEnabled = true
