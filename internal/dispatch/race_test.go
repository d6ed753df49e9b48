//go:build race

package dispatch

func init() { raceEnabled = true }
