//go:build race

package reldb

func init() { raceEnabled = true }
