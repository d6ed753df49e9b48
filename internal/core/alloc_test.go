package core_test

import (
	"io"
	"testing"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// firingAllocBudget caps the heap allocations of one single-row leaf update
// that fires a grouped trigger plan: about 10 % above the measured 735.
// The count is what the evaluator's prepare-once / allocation-lean design
// buys (the interpretive evaluator it replaced needed 4,183 here), and what
// building the OLD side as an edit of the NEW side buys on top (1,229 with
// both sides built): about 8 objects per constructed <e1> child, 64 of them
// on the NEW side and one on the OLD. A change that raises the count past
// the budget is paying per-tuple garbage again, or building the 63 children
// the statement did not touch a second time.
const firingAllocBudget = 810

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

// One leaf update under a 64-child element delivers an OLD_NODE that is the
// NEW_NODE except for the child the statement wrote: the 63 others are the
// same nodes, not equal copies, because the OLD side of the plan took them
// from the NEW side instead of building them again.
func TestOldNodeSharesUntouchedChildren(t *testing.T) {
	w, err := workload.Build(workload.Params{
		Depth: 2, LeafTuples: 8192, Fanout: 64, NumTriggers: 512, NumSatisfied: 4,
	}, core.ModeGrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Invocation
	w.Engine.RegisterAction("notify", func(inv core.Invocation) error {
		got = append(got, inv)
		return nil
	})
	const leaf = 7 // under top element 0, which 4 triggers watch
	if _, err := w.Engine.UpdateByPK(w.LeafTable(), []xdm.Value{xdm.Int(leaf)}, func(r reldb.Row) reldb.Row {
		r[len(r)-1] = xdm.Float(1001)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("invocations = %d, want 4", len(got))
	}
	old, new := got[0].Old, got[0].New
	if len(old.Children) != 64 || len(new.Children) != 64 {
		t.Fatalf("children: old %d, new %d, want 64 each", len(old.Children), len(new.Children))
	}
	for i := range old.Children {
		switch o, n := old.Children[i], new.Children[i]; {
		case i != leaf && o != n:
			t.Errorf("child %d: OLD and NEW hold different nodes, want one shared node", i)
		case i == leaf && (o == n || o.DeepEqual(n)):
			t.Errorf("child %d was updated: OLD %s, NEW %s", i, o.Serialize(false), n.Serialize(false))
		case i == leaf && (o.Name != n.Name || !o.Attrs[0].DeepEqual(n.Attrs[0])):
			t.Errorf("child %d must differ in content only: OLD %s, NEW %s", i, o.Serialize(false), n.Serialize(false))
		}
	}
	for _, gs := range w.Engine.GroupStats() {
		if gs.RowsReused == 0 {
			t.Errorf("group %s: RowsReused = 0 after a firing", gs.Sig)
		}
	}
}

// durableFiringAllocBudget caps the heap allocations of one leaf update
// whose firing notifies 20 triggers durably — one group append, 20
// enqueues, 20 JSON lines into a file sink, 20 acks — about 10 % above the
// measured 370. Per-record appends and the reflective JSON encoder
// needed about 3,900 here; a change that raises the count past the budget
// is encoding, framing or writing per record again.
const durableFiringAllocBudget = 405

func TestDurableFiringAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, err := workload.Build(workload.Params{
		Depth: 2, LeafTuples: 2048, Fanout: 8, NumTriggers: 100, NumSatisfied: 20,
	}, core.ModeGrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if err := w.Engine.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 1024, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	defer w.Engine.Close()
	if err := w.Engine.EnableOutbox(lg, outbox.NewFileSink(io.Discard)); err != nil {
		t.Fatal(err)
	}
	key := []xdm.Value{xdm.Int(3)} // a leaf under top element 0, which 20 triggers watch
	payload := 1000.0
	update := func() {
		payload++
		if _, err := w.Engine.UpdateByPK(w.LeafTable(), key, func(r reldb.Row) reldb.Row {
			r[len(r)-1] = xdm.Float(payload)
			return r
		}); err != nil {
			t.Fatal(err)
		}
		w.Engine.Drain()
	}
	allocs := testing.AllocsPerRun(100, update)
	if st := lg.Stats(); st.Appended != 20*101 || st.Acked != 20*101 { // AllocsPerRun warms up with one extra call
		t.Fatalf("log stats = %+v, want 20 records appended and acknowledged per update: the budget is for a firing that delivers", st)
	}
	t.Logf("allocations per durable firing: %.0f (budget %d)", allocs, durableFiringAllocBudget)
	if allocs > durableFiringAllocBudget {
		t.Errorf("one durably delivered leaf update allocates %.0f objects, budget is %d", allocs, durableFiringAllocBudget)
	}
}
