//go:build race

package e2e

// raceEnabled: the race detector slows the pipeline about tenfold, so
// the test offers paced-wire a tenth of the load.
const raceEnabled = true
