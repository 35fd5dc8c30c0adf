//go:build race

package system_test

func init() { raceEnabled = true }
