package core_test

import (
	"testing"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// firingAllocBudget caps the heap allocations of one single-row leaf update
// that fires a grouped trigger plan: about 10 % above the measured figure.
// The count is what the evaluator's prepare-once / allocation-lean design
// buys (the interpretive evaluator it replaced needed 4,183 here); a change
// that raises it past the budget is paying per-tuple garbage again.
const firingAllocBudget = 1350

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates, so the count means nothing under -race.
var raceEnabled bool

func TestFiringAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, err := workload.Build(workload.Params{
		Depth: 2, LeafTuples: 8192, Fanout: 64, NumTriggers: 512, NumSatisfied: 4,
	}, core.ModeGrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := []xdm.Value{xdm.Int(7)} // a leaf under top element 0, which 4 triggers watch
	payload := 1000.0              // unique per update, so none is a no-op
	update := func() {
		payload++
		if _, err := w.Engine.UpdateByPK(w.LeafTable(), key, func(r reldb.Row) reldb.Row {
			r[len(r)-1] = xdm.Float(payload)
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Notifications
	allocs := testing.AllocsPerRun(100, update)
	if got := w.Notifications - before; got != 4*101 { // AllocsPerRun warms up with one extra call
		t.Fatalf("notifications = %d, want 4 per update: the budget is for a firing that delivers", got)
	}
	t.Logf("allocations per firing: %.0f (budget %d)", allocs, firingAllocBudget)
	if allocs > firingAllocBudget {
		t.Errorf("one leaf update allocates %.0f objects, budget is %d", allocs, firingAllocBudget)
	}
}
