package wire

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type handle struct{ enabled bool }

// KeysSorted appends under the loop but sorts before the order can
// surface: order-insensitive by the append-then-sort rule.
func KeysSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum accumulates commutatively; iteration order cannot surface.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Validate early-returns on bad entries, which is order-dependent in
// which error surfaces first — annotated with a justification.
func Validate(m map[string]int) error {
	for k, v := range m { //quark:sorted validation only: any order rejects the same bad entry set
		if v < 0 {
			return fmt.Errorf("bad %s", k)
		}
	}
	return nil
}

// Timed reads the clock only inside an enabled-check branch, the PR 7
// obs-guard idiom.
func Timed(h *handle) time.Time {
	if h != nil {
		return time.Now()
	}
	return time.Time{}
}

// Seeded randomness is deterministic: constructors and methods on an
// explicitly-seeded *rand.Rand are allowed.
func Seeded() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10)
}

// First returns an arbitrary entry; the standalone directive on the line
// above governs the loop and is needed, so it is not reported as stale.
func First(m map[string]int) int {
	//quark:sorted any entry will do: callers only test for emptiness
	for _, v := range m {
		return v
	}
	return 0
}
