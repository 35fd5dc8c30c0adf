//go:build race

package spec

func init() { raceEnabled = true }
