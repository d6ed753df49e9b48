// Package wire is a determlint fixture: it sits on a path the analyzer
// scopes to (internal/wire), so clocks, shared-source randomness, and
// unsorted map iteration are findings here.
package wire

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock with no obs guard and no annotation.
func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now in a deterministic path"
}

// Shuffle draws from the package-level, randomly-seeded source.
func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "rand.Shuffle draws from the shared randomly-seeded source"
}

// Keys leaks map iteration order into the returned slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want "iteration over map m has nondeterministic order"
		out = append(out, k)
	}
	return out
}

// BadExcuse carries the escape hatch but no justification.
func BadExcuse(m map[string]int) int {
	last := 0
	//quark:sorted
	for _, v := range m { // want "needs a justification"
		last = v
	}
	return last
}

// StaleHatch kept its escape hatch after the map it ranged over became a
// slice: the directive suppresses nothing.
func StaleHatch(xs []int) int {
	last := 0
	for _, v := range xs { //quark:sorted index order is deterministic // want "suppresses nothing: no map range"
		last = v
	}
	return last
}

// NeedlessHatch annotates a loop the analyzer accepts on its own.
func NeedlessHatch(m map[string]int) int {
	total := 0
	for _, v := range m { //quark:sorted sums commute // want "suppresses nothing: the loop over m is already order-insensitive"
		total += v
	}
	return total
}
