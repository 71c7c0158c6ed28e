//go:build race

package registry

// raceEnabled lets allocation assertions skip under -race, whose
// instrumentation allocates on its own.
const raceEnabled = true
