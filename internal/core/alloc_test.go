package core_test

import (
	"io"
	"runtime"
	"slices"
	"testing"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// firingAllocBudget caps the heap allocations of one single-row leaf update
// that fires a grouped trigger plan: about 10 % above the measured 11.
// The count is what the evaluator's prepare-once / allocation-lean design
// buys (the interpretive evaluator it replaced needed 4,183 here), what
// building the OLD side as an edit of the NEW side buys on top (1,229 with
// both sides built, 735 with one), what carving a pass's nodes, lists and
// lexical strings out of chunks buys on top of that (178: the 64 <e1>
// children of the NEW side cost 8 objects each before, and now cost the
// first child's 8 and four chunks), and what cutting the operators' outputs
// from the memory the engine's kept evaluation context reuses buys on top
// of that (63), and reusing the statement's bookkeeping buys on top of that
// (33: the Δ-key set and ∇ index, reldb's FireContext and one-row transition
// tables, the lock footprint and the arguments' slices each cost an object
// or more per statement before), and cutting each pass's first block to the
// footprint Prepare recorded buys on top of that (13: a pass's first tuple
// built object by object before, the OLD side's one tuple and each <e0> all
// of theirs), and cutting the aggregates' item sequences from the context's
// memory too buys last (11). What is left is what the firing delivers: the
// <e0> and <e1> nodes, their lists and lexical strings, cut from one block
// per pass (ten chunks over four passes), and one slab of the four
// activations' arguments. A change that raises the
// count past the budget is paying per-tuple or per-node garbage again,
// building the 63 children the statement did not touch a second time,
// allocating operator outputs on the heap again, or building per statement
// what the engine, reldb or the evaluation context keeps for the next.
//
// firingBytesBudget is the other half, about 5 % above the 14,336 bytes a
// firing takes when payloads are not integral, whose digits are reserved at
// their longest, and 14 % above the measured 13,184, 8.4 KB of it the 264
// delivered <e0> and <e1> nodes (16,768 and 17,920 while the two aggregate
// item sequences were allocated per firing, 25,984 and 27,136 while a node was 64
// bytes, 30,450 while it was 88 bytes and a pass's first
// tuple built object by object, 32,800 while the statement's bookkeeping
// was built per statement, 73,870 while every
// statement allocated its operators' outputs, 78,640 while the evaluation
// context kept its memo and trails in maps, 97,072 while a tuple cell was
// 48 bytes, not 24). A chunk allocator that rounds passes up, or pays for
// itself per pass, lowers the count and raises this; so does anything that
// widens xdm.Value or xdm.Node.
const (
	firingAllocBudget = 12
	firingBytesBudget = 15_050
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates, so the count means nothing under -race.
var raceEnabled bool

// perRun reports the heap objects and bytes one call of f allocates, on
// every goroutine, averaged over runs calls after one to warm up — what
// testing.AllocsPerRun measures, with MemStats.TotalAlloc beside Mallocs.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// paperFiring builds the allocation tests' workload — 128 top elements of
// fanout leaves, four of 512 grouped triggers watching each — and returns it
// with a function that updates one leaf's payload to a value it never had.
func paperFiring(t *testing.T, fanout int, leaf int64) (*workload.Setup, func()) {
	t.Helper()
	w, err := workload.Build(workload.Params{
		Depth: 2, LeafTuples: 128 * fanout, Fanout: fanout, NumTriggers: 512, NumSatisfied: 4,
	}, core.ModeGrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w, leafUpdate(t, w, leaf)
}

// leafUpdate returns a function that updates one leaf's payload to a value
// it never had, so no update is a no-op.
func leafUpdate(t *testing.T, w *workload.Setup, leaf int64) func() {
	key := []xdm.Value{xdm.Int(leaf)}
	payload := 1000.0
	return func() {
		payload++
		if _, err := w.Engine.UpdateByPK(w.LeafTable(), key, func(r reldb.Row) reldb.Row {
			r[len(r)-1] = xdm.Float(payload)
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFiringAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, update := paperFiring(t, 64, 7) // a leaf under top element 0, which 4 triggers watch
	before := w.Notifications
	allocs, bytes := perRun(100, update)
	if got := w.Notifications - before; got != 4*101 { // perRun warms up with one extra call
		t.Fatalf("notifications = %d, want 4 per update: the budget is for a firing that delivers", got)
	}
	t.Logf("one firing: %.0f allocations (budget %d), %.0f bytes (budget %d)", allocs, firingAllocBudget, bytes, firingBytesBudget)
	if allocs > firingAllocBudget {
		t.Errorf("one leaf update allocates %.0f objects, budget is %d", allocs, firingAllocBudget)
	}
	if bytes > firingBytesBudget {
		t.Errorf("one leaf update allocates %.0f bytes, budget is %d", bytes, firingBytesBudget)
	}
}

// oneStatementBatchAllocBudget caps the heap allocations of the firing
// test's leaf update made through Engine.Batch as a one-statement commit:
// about 10 % above the measured 13, against the same update's 11 through
// Engine.UpdateByPK. The commit evaluates and delivers what the statement
// does; the two objects it adds are the Tx and the BatchHandle, which a
// caller may keep. It was 38 against 13 while a commit built its
// transaction's maps, net deltas, BatchInfo, dedup set and batch state each
// time, and both paths their hash joins' indexes and their aggregates' item
// sequences.
const oneStatementBatchAllocBudget = 14

func TestOneStatementBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, update := paperFiring(t, 64, 7) // a leaf under top element 0, which 4 triggers watch
	key := []xdm.Value{xdm.Int(7)}
	payload := 1e6
	batch := func() {
		payload++
		p := payload
		if err := w.Engine.Batch(func(tx *reldb.Tx) error {
			_, err := tx.UpdateByPK(w.LeafTable(), key, func(r reldb.Row) reldb.Row {
				r[len(r)-1] = xdm.Float(p)
				return r
			})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	statement, _ := perRun(100, update)
	batched, _ := perRun(100, batch)
	if got := w.Notifications; got != 4*2*101 { // perRun warms up with one extra call
		t.Fatalf("notifications = %d, want 4 per update: the budget is for a firing that delivers", got)
	}
	t.Logf("one leaf update: %.0f allocations as a statement, %.0f as a one-statement commit (budget %d)", statement, batched, oneStatementBatchAllocBudget)
	if batched > oneStatementBatchAllocBudget {
		t.Errorf("a one-statement commit allocates %.0f objects, budget is %d", batched, oneStatementBatchAllocBudget)
	}
}

// A 10,000-row commit grows what the engine, reldb and the evaluation
// context reuse from statement to statement — the Δ-key and ∇ indexes, the
// net-delta scratch, the output arenas — but what they keep is capped, so a
// point write after it still allocates within the firing budgets: it neither
// pays to clear what the commit grew nor rebuilds what was dropped.
func TestPointWriteAfterAHugeCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, update := paperFiring(t, 64, 7)
	leaves := int64(w.Params.LeafTuples)
	if err := w.Engine.Batch(func(tx *reldb.Tx) error {
		if _, err := tx.Update(w.LeafTable(), func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
			r[len(r)-1] = xdm.Float(r[len(r)-1].AsFloat() + 0.5)
			return r
		}); err != nil {
			return err
		}
		for id := leaves; id < 10_000; id++ { // fresh leaves under the last element
			if err := tx.Insert(w.LeafTable(), reldb.Row{xdm.Int(id), xdm.Int(int64(w.Params.NumTop() - 1)), xdm.Float(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if w.Notifications == 0 {
		t.Fatal("the commit notified no trigger")
	}
	before := w.Notifications
	allocs, bytes := perRun(100, update)
	if got := w.Notifications - before; got != 4*101 {
		t.Fatalf("notifications = %d, want 4 per update", got)
	}
	t.Logf("one firing after a 10,000-row commit: %.0f allocations (budget %d), %.0f bytes (budget %d)", allocs, firingAllocBudget, bytes, firingBytesBudget)
	if allocs > firingAllocBudget || bytes > firingBytesBudget {
		t.Errorf("one leaf update after a 10,000-row commit allocates %.0f objects and %.0f bytes, budgets %d and %d", allocs, bytes, firingAllocBudget, firingBytesBudget)
	}
}

// ungroupedAllocBudget and ungroupedBytesBudget cap one leaf update under
// 100 UNGROUPED members of which one is satisfied, about 10 % and 5 % above
// the measured 11 objects and 13,112 bytes: what the satisfied member's
// firing delivers, as in firingAllocBudget. Each member's condition filters
// the affected keys before anything is built, so the 99 others cost their
// key filter, whose outputs take memory the statement's evaluation context
// reuses from the statement before (see rejectedMemberAllocBudget). It read
// 13 objects and 16,696 bytes while the aggregates' item sequences were
// allocated per firing; 25,912 bytes while a node was 64 bytes;
// 33 objects and 30,376 bytes while a node was 88 bytes and a pass's first
// tuple built object by object; 59 objects and 32,664 bytes while the
// statement's bookkeeping was built per statement; 4,338 objects and
// 242,130 bytes while every statement allocated its operators' outputs;
// 8,029 objects and 1.23 MB while every member built its
// own evaluation context and, in it, the statement's transition-table
// indexes; ≈ 18,850 objects and 7.8 MB while every member built the updated
// element and dropped it.
const (
	ungroupedAllocBudget = 12
	ungroupedBytesBudget = 13_770
)

func TestUngroupedFiringAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, update := ungroupedFiring(t, 1)
	allocs, bytes := perRun(100, update)
	if w.Notifications != 101 { // perRun warms up with one extra call
		t.Fatalf("notifications = %d, want 1 per update: the budget is for a firing that delivers", w.Notifications)
	}
	t.Logf("one UNGROUPED firing of 100 members: %.0f allocations (budget %d), %.0f bytes (budget %d)", allocs, ungroupedAllocBudget, bytes, ungroupedBytesBudget)
	if allocs > ungroupedAllocBudget {
		t.Errorf("one leaf update allocates %.0f objects, budget is %d", allocs, ungroupedAllocBudget)
	}
	if bytes > ungroupedBytesBudget {
		t.Errorf("one leaf update allocates %.0f bytes, budget is %d", bytes, ungroupedBytesBudget)
	}
	// The 99 members that cannot hold skipped the affected-node graph: each
	// of their evaluations skipped a join. The satisfied member's OLD side
	// still took its untouched children from its NEW side.
	gs := w.Engine.GroupStats()
	if len(gs) != 1 {
		t.Fatalf("groups = %d, want 1", len(gs))
	}
	t.Logf("fires %d, joins skipped %d, nodes built %d, rows reused %d", gs[0].Fires, gs[0].JoinsSkipped, gs[0].NodesBuilt, gs[0].RowsReused)
	if skipped := gs[0].JoinsSkipped; skipped < 99*101 {
		t.Errorf("JoinsSkipped = %d over 101 updates, want at least 99 per update", skipped)
	}
	if gs[0].RowsReused == 0 {
		t.Error("RowsReused = 0: the satisfied member built its OLD side from scratch")
	}
}

// ungroupedFiring builds 100 UNGROUPED members of which satisfied watch top
// element 0, and returns it with a function that updates a leaf under it.
func ungroupedFiring(t *testing.T, satisfied int) (*workload.Setup, func()) {
	t.Helper()
	w, err := workload.Build(workload.Params{
		Depth: 2, LeafTuples: 128 * 64, Fanout: 64, NumTriggers: 100, NumSatisfied: satisfied,
	}, core.ModeUngrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w, leafUpdate(t, w, 7)
}

// rejectedMemberAllocBudget and rejectedMemberBytesBudget cap what one
// UNGROUPED member whose condition rejects the firing costs — one leaf
// update under 100 such members, divided by 100 — where the measured count
// is 0 objects and 0 bytes. Such a member evaluates its key filter, finds no
// key, and skips the affected-node graph: the output of the operators it
// runs is cut from memory the statement's evaluation context reuses, and
// everything that depends only on the statement — the evaluation context
// with its memo and trails, the transition tables as tuples, their Δ-key
// sets and ∇ indexes, reldb's firing frame, the lock footprint — is reused
// from the statement before, so the statement costs nothing it does not
// deliver. The budget is two objects and 200 bytes per statement. A
// rejected member cost 0.19 objects and 14.6 bytes while the statement's
// Δ-key set, ∇ index and firing bookkeeping were built per statement, 42.3
// objects and 1,771 bytes while every statement allocated its
// operators' outputs, and 79.1 objects and 11,626 bytes while each member had
// a context of its own, the context's memo and trail maps alone 6.4 KB of it.
const (
	rejectedMemberAllocBudget = 0.02
	rejectedMemberBytesBudget = 2.0
)

func TestUngroupedRejectedMemberBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, update := ungroupedFiring(t, 0)
	allocs, bytes := perRun(100, update)
	if w.Notifications != 0 {
		t.Fatalf("notifications = %d, want none: no member watches the updated element", w.Notifications)
	}
	allocs, bytes = allocs/100, bytes/100
	t.Logf("one rejected UNGROUPED member: %.2f allocations (budget %.2f), %.1f bytes (budget %.1f)", allocs, rejectedMemberAllocBudget, bytes, rejectedMemberBytesBudget)
	if allocs > rejectedMemberAllocBudget {
		t.Errorf("a rejected member allocates %.2f objects, budget is %.2f", allocs, rejectedMemberAllocBudget)
	}
	if bytes > rejectedMemberBytesBudget {
		t.Errorf("a rejected member allocates %.1f bytes, budget is %.1f", bytes, rejectedMemberBytesBudget)
	}
	if gs := w.Engine.GroupStats(); len(gs) != 1 || gs[0].JoinsSkipped < 100*101 || gs[0].NodesBuilt != 0 {
		t.Errorf("group stats %+v: want every evaluation to skip its graph and build nothing", gs)
	}
}

// eventGroups builds 128 top elements of 64 leaves under numTriggers grouped
// UPDATE triggers and, with insertDelete,
// an INSERT and a DELETE trigger on the same path: the three event graphs of
// the batch-mixed benchmark workload.
func eventGroups(t *testing.T, numTriggers int, insertDelete bool) *workload.Setup {
	t.Helper()
	w, err := workload.Build(workload.Params{
		Depth: 2, LeafTuples: 128 * 64, Fanout: 64, NumTriggers: numTriggers, NumSatisfied: min(4, numTriggers),
	}, core.ModeGrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !insertDelete {
		return w
	}
	for _, src := range []string{
		`CREATE TRIGGER onInsert AFTER INSERT ON view('doc')/e0 DO notify(NEW_NODE)`,
		`CREATE TRIGGER onDelete AFTER DELETE ON view('doc')/e0 DO notify(OLD_NODE)`,
	} {
		if err := w.Engine.CreateTrigger(src); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// mixedCommit returns a function that commits, under each of 8 top
// elements, the insert of a fresh leaf, the delete of an original one and
// updates of two more: 32 leaf writes that make no <e0> appear or vanish,
// since each element keeps 64 children. Call c deletes leaf 4+c of each
// element, so up to 60 calls find their leaves.
func mixedCommit(t *testing.T, w *workload.Setup) func() {
	fanout := int64(w.Params.Fanout)
	leaf := int64(w.Params.NumTop()) * fanout // fresh leaf ids
	payload, call := 1000.0, int64(0)
	return func() {
		if err := w.Engine.Batch(func(tx *reldb.Tx) error {
			for i := int64(0); i < 8; i++ {
				root := 8 * i
				if err := tx.Insert(w.LeafTable(), reldb.Row{xdm.Int(leaf), xdm.Int(root), xdm.Float(payload)}); err != nil {
					return err
				}
				leaf++
				if _, err := tx.DeleteByPK(w.LeafTable(), xdm.Int(root*fanout+4+call)); err != nil {
					return err
				}
				for j := int64(2); j < 4; j++ {
					payload++
					p := payload
					if _, err := tx.UpdateByPK(w.LeafTable(), []xdm.Value{xdm.Int(root*fanout + j)}, func(r reldb.Row) reldb.Row {
						r[len(r)-1] = xdm.Float(p)
						return r
					}); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		call++
	}
}

// A commit that makes no <e0> appear or vanish builds no node in the INSERT
// or DELETE graph: their present side is restricted to the affected keys the
// absent side lacks, which are none, and their absent side counts children
// without constructing them.
func TestAntiJoinGraphsBuildNothing(t *testing.T) {
	w := eventGroups(t, 0, true)
	mixedCommit(t, w)()
	if w.Notifications != 0 {
		t.Fatalf("notifications = %d: no element appeared or vanished", w.Notifications)
	}
	for _, gs := range w.Engine.GroupStats() {
		if gs.Fires == 0 {
			t.Errorf("group %s did not fire", gs.Sig)
		}
		if gs.NodesBuilt != 0 {
			t.Errorf("group %s built %d nodes for a commit that makes no element appear or vanish", gs.Sig, gs.NodesBuilt)
		}
	}
}

// The UPDATE, INSERT and DELETE groups on one path evaluate their plans in
// the commit's one evaluation context, and the two that run after the UPDATE
// group take the affected keys and view sides it computed.
func TestEventGraphsShareTheCommitsWork(t *testing.T) {
	w := eventGroups(t, 16, true)
	mixedCommit(t, w)()
	if w.Notifications == 0 {
		t.Fatal("no UPDATE trigger fired")
	}
	gs := w.Engine.GroupStats()
	if len(gs) != 3 {
		t.Fatalf("groups = %d, want UPDATE, INSERT and DELETE", len(gs))
	}
	for _, g := range gs[1:] {
		t.Logf("group %s: %d operator outputs taken", g.Sig, g.OpsShared)
		if g.OpsShared == 0 {
			t.Errorf("group %s took nothing from the groups before it", g.Sig)
		}
	}
}

// eventGraphsBytesRatio caps what the INSERT and DELETE groups add to a
// batched commit under the UPDATE group: 1.1 times its bytes. The two
// deliver nothing here, and the operators their graphs share with the UPDATE
// graph — affected keys, both view sides — they take from it. Evaluating
// them afresh cost about 1.6 times. The ratio measured 1.02 (110,856 bytes
// per commit against 108,168; 171,694 against 169,006 while a commit built
// its bookkeeping, join indexes and item sequences on the heap; 250,354
// against 247,664 while a node was 64
// bytes; 286,317 against 283,632 while a node was 88
// bytes and a pass's first tuple built object by object; 321,479 against
// 318,790 before that), and 1.02 (650,948 against 638,833) while every
// commit allocated its operators' outputs. eventGraphsBytesBudget caps the
// commit with all three groups, about 5 % above the measured 110,856.
const (
	eventGraphsBytesRatio  = 1.1
	eventGraphsBytesBudget = 116_400
)

func TestEventGraphsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var bytes [2]float64
	var notified [2]int
	for i, insertDelete := range []bool{false, true} {
		w := eventGroups(t, 512, insertDelete)
		_, bytes[i] = perRun(20, mixedCommit(t, w))
		notified[i] = w.Notifications
	}
	if notified[0] == 0 || notified[1] != notified[0] {
		t.Fatalf("notifications = %v, want the UPDATE group's, the same in both", notified)
	}
	ratio := bytes[1] / bytes[0]
	t.Logf("one commit: %.0f bytes under the UPDATE group, %.0f with INSERT and DELETE beside it (%.2fx, budget %.2fx)", bytes[0], bytes[1], ratio, eventGraphsBytesRatio)
	if ratio > eventGraphsBytesRatio {
		t.Errorf("the INSERT and DELETE groups make a commit allocate %.2fx the bytes, budget %.2fx", ratio, eventGraphsBytesRatio)
	}
	if bytes[1] > eventGraphsBytesBudget {
		t.Errorf("a commit under the three groups allocates %.0f bytes, budget %d", bytes[1], eventGraphsBytesBudget)
	}
}

// commitAllocBudget caps the heap allocations of one batched commit shaped
// like the batch-mixed benchmark's — 32 leaf writes under 8 top elements
// (mixedCommit) under the UPDATE group of 512 grouped triggers, of which 16
// notify, and the INSERT and DELETE groups beside it — about 10 % above the
// measured 43. What is left is what the commit delivers and what its
// writes are: the 16 notified elements' nodes, lists and lexical strings
// (23 chunks); one argument slab; the Tx and its BatchHandle; a trail slice
// for the group after one whose kept outputs point into the last; and the
// test's own writes (a row, a key and an update closure each). It was 107
// while the commit built its transaction's maps, net-delta array and
// BatchInfo, its batch state and activation dedup set, every hash join's
// index and every aggregate's item sequence on the heap, 116
// while a node was 64 bytes and a block held half as many, 250
// while a pass's first tuple built its nodes object by object, and 671
// while every row's sort key was a string, Definition 8 pruning keyed each
// row by a packed string, ∇ was bucketed into a slice per key and every
// staged activation and its arguments were allocated one by one.
const commitAllocBudget = 47

func TestCommitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := eventGroups(t, 512, true)
	allocs, _ := perRun(20, mixedCommit(t, w))
	if w.Notifications != 32*21 { // 4 triggers watch each of the 8 elements; perRun warms up with one extra call
		t.Fatalf("notifications = %d, want 32 per commit: the budget is for a commit that delivers", w.Notifications)
	}
	t.Logf("one 32-row commit: %.0f allocations (budget %d)", allocs, commitAllocBudget)
	if allocs > commitAllocBudget {
		t.Errorf("one 32-row commit allocates %.0f objects, budget is %d", allocs, commitAllocBudget)
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
	if len(old.Children()) != 64 || len(new.Children()) != 64 {
		t.Fatalf("children: old %d, new %d, want 64 each", len(old.Children()), len(new.Children()))
	}
	for i := range old.Children() {
		switch o, n := old.Children()[i], new.Children()[i]; {
		case i != leaf && o != n:
			t.Errorf("child %d: OLD and NEW hold different nodes, want one shared node", i)
		case i == leaf && (o == n || o.DeepEqual(n)):
			t.Errorf("child %d was updated: OLD %s, NEW %s", i, o.Serialize(false), n.Serialize(false))
		case i == leaf && (o.Name != n.Name || !o.Attrs()[0].DeepEqual(n.Attrs()[0])):
			t.Errorf("child %d must differ in content only: OLD %s, NEW %s", i, o.Serialize(false), n.Serialize(false))
		}
	}
	for _, gs := range w.Engine.GroupStats() {
		if gs.RowsReused == 0 {
			t.Errorf("group %s: RowsReused = 0 after a firing", gs.Sig)
		}
	}
}

// lists collects, by node, copies of the attributes and children of every
// node of the subtrees.
func lists(into map[*xdm.Node][2][]*xdm.Node, roots ...*xdm.Node) map[*xdm.Node][2][]*xdm.Node {
	for _, n := range roots {
		if _, seen := into[n]; seen {
			continue
		}
		into[n] = [2][]*xdm.Node{slices.Clone(n.Attrs()), slices.Clone(n.Children())}
		lists(into, n.Attrs()...)
		lists(into, n.Children()...)
	}
	return into
}

// The lists of a firing's nodes — attributes, then children — are cut from
// shared chunks, each with no spare capacity. Appending to a delivered node — a
// breach of the contract that delivered nodes are immutable — therefore
// moves that node's list and writes into nobody else's: every other list of
// OLD_NODE and NEW_NODE holds the nodes it held. (OLD and NEW share 63 of
// their 64 children, so a change to a shared child shows on both sides; the
// check is on the lists.)
func TestChunkListsDoNotAlias(t *testing.T) {
	w, update := paperFiring(t, 64, 7)
	var got []core.Invocation
	w.Engine.RegisterAction("notify", func(inv core.Invocation) error {
		got = append(got, inv)
		return nil
	})
	update()
	if len(got) != 4 {
		t.Fatalf("invocations = %d, want 4", len(got))
	}
	old, new := got[0].Old, got[0].New
	if len(old.Children()) != 64 || len(new.Children()) != 64 {
		t.Fatalf("children: old %d, new %d, want 64 each", len(old.Children()), len(new.Children()))
	}
	before := lists(map[*xdm.Node][2][]*xdm.Node{}, old, new)
	for n := range before {
		// Children is the tail of the node's list: its capacity is the list's.
		if kids := n.Children(); cap(kids) != len(kids) {
			t.Errorf("<%s>: %d children, capacity %d: want no spare capacity", n.Name, len(kids), cap(kids))
			break
		}
	}
	const victim = 20
	appended := []*xdm.Node{new.Children()[victim], new.Children()[victim].Children()[0], new}
	for _, n := range appended {
		n.AppendChild(xdm.Attr("late", "x")).AppendChild(xdm.TextNd("late"))
	}
	for n, was := range before {
		if slices.Contains(appended, n) {
			if len(n.Attrs()) != len(was[0])+1 || len(n.Children()) != len(was[1])+1 {
				t.Errorf("<%s> appended to: %d attributes and %d children, want one more of each than %d and %d",
					n.Name, len(n.Attrs()), len(n.Children()), len(was[0]), len(was[1]))
			}
			continue
		}
		if !slices.Equal(n.Attrs(), was[0]) || !slices.Equal(n.Children(), was[1]) {
			t.Errorf("a list of %s changed when other nodes were appended to", n.Serialize(false))
		}
	}
	if len(old.Children()) != 64 || old.Children()[victim] != new.Children()[victim] {
		t.Errorf("OLD_NODE's child list changed: %d children", len(old.Children()))
	}
}

// A consumer that keeps one child of each delivered node keeps the block
// that child was cut from alive, and nothing more: blocks are bounded and
// no chunk is shared between two of them, so what 1,000 retained children
// pin is bounded by 1,000 block caps, although each came from a pass that
// constructed 512 children in some 200 KB. (With the node, list and text
// chunks replaced independently, the collector walked from one into the
// next and every child pinned its whole pass.)
func TestRetainedChildPinsOneChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const (
		fanout   = 512
		firings  = 1000
		chunkCap = 32 << 10 // xdm's chunk bounds, together
	)
	w, update := paperFiring(t, fanout, 7)
	var kept []*xdm.Node
	var last *xdm.Node
	w.Engine.RegisterAction("notify", func(inv core.Invocation) error {
		if inv.New == last {
			return nil // the firing's other three triggers: same nodes
		}
		if last = inv.New; len(last.Children()) != fanout {
			t.Errorf("NEW_NODE has %d children, want %d", len(last.Children()), fanout)
		}
		if len(kept) < cap(kept) {
			kept = append(kept, last.Children()[(37*len(kept))%fanout])
		}
		return nil
	})
	update() // warm up: plans prepared, maps grown
	kept = make([]*xdm.Node, 0, firings)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: what the first cycle only unlinked is freed by the second
	runtime.ReadMemStats(&before)
	for i := 0; i < firings; i++ {
		update()
	}
	if len(kept) != firings {
		t.Fatalf("kept %d children of %d firings", len(kept), firings)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d retained children pin %d bytes, %d each (bound %d)", len(kept), grown, grown/int64(len(kept)), chunkCap)
	if grown > int64(len(kept))*chunkCap {
		t.Errorf("%d retained children pin %d bytes, want at most %d each", len(kept), grown, chunkCap)
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(w) // or the engine's own 19 MB die before the second reading
}

// durableFiringAllocBudget caps the heap allocations of one leaf update
// whose firing notifies 20 triggers durably — one group append, 20
// enqueues, 20 JSON lines into a file sink, 20 acks — about 10 % over the
// measured 13, most of them the chunks the delivered nodes are cut from (15
// while the aggregates' item sequences were allocated per firing, 17 when the
// budget was set, 34 while a pass's first tuple built object by object). The delivery
// path costs a few objects per wave: the staged items, one slab of tasks holding the
// records, and the pointers the group append reads (100 while every
// activation had its own record, delivery closure and lane array, 146
// while the statement's bookkeeping and each activation's arguments were
// allocated per statement, 258 while every statement allocated its
// operators' outputs). Per-record appends and the reflective JSON encoder
// needed about 3,900 here; a change that raises the count past the budget
// is allocating per activation again, or encoding, framing or writing per
// record. Its passes construct for eight tuples at most and most of them
// for one, so durableFiringBytesBudget — about 5 % above the measured
// 4,878 bytes (5,262 while the aggregates' item sequences were allocated per
// firing, 6,671 while a node was 64 bytes, 8,254 when that budget was
// set, 9,278 while a node was 88 bytes, 11,424 while every
// activation had its own record and closure, 13,937 to 13,945 while the bookkeeping was built per statement,
// 27,330 to 27,460 while every statement allocated its operators' outputs,
// 32,100 while the evaluation context kept its memo and trails in maps) —
// is where a chunk allocator that costs a short pass anything shows.
const (
	durableFiringAllocBudget = 14
	durableFiringBytesBudget = 5_120
)

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
	allocs, bytes := perRun(100, update)
	if st := lg.Stats(); st.Appended != 20*101 || st.Acked != 20*101 { // perRun warms up with one extra call
		t.Fatalf("log stats = %+v, want 20 records appended and acknowledged per update: the budget is for a firing that delivers", st)
	}
	t.Logf("one durable firing: %.0f allocations (budget %d), %.0f bytes (budget %d)", allocs, durableFiringAllocBudget, bytes, durableFiringBytesBudget)
	if allocs > durableFiringAllocBudget {
		t.Errorf("one durably delivered leaf update allocates %.0f objects, budget is %d", allocs, durableFiringAllocBudget)
	}
	if bytes > durableFiringBytesBudget {
		t.Errorf("one durably delivered leaf update allocates %.0f bytes, budget is %d", bytes, durableFiringBytesBudget)
	}
}
