//go:build race

package outbox

func init() { raceEnabled = true }
