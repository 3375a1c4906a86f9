//go:build !race

package e2e

const raceEnabled = false
