//go:build race

package interp_test

func init() { raceEnabled = true }
