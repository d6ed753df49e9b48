package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quark/internal/dispatch"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
)

// newTwoMarketEngine builds a schema with two fully independent table
// groups (quoteA / quoteB), one view and one watch trigger over each, so
// BatchTables batches on the two groups have disjoint lock footprints.
func newTwoMarketEngine(t *testing.T, mode Mode) (*Engine, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	s := schema.New()
	for _, name := range []string{"quoteA", "quoteB"} {
		s.MustAddTable(&schema.Table{
			Name: name,
			Columns: []schema.Column{
				{Name: "sym", Type: schema.TString},
				{Name: "price", Type: schema.TFloat},
			},
			PrimaryKey: []string{"sym"},
		})
	}
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"quoteA", "quoteB"} {
		if err := db.Insert(name,
			reldb.Row{xdm.Str("X1"), xdm.Float(100)},
			reldb.Row{xdm.Str("X2"), xdm.Float(200)},
		); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(db, mode)
	var firedA, firedB atomic.Int64
	e.RegisterAction("actA", func(Invocation) error { firedA.Add(1); return nil })
	e.RegisterAction("actB", func(Invocation) error { firedB.Add(1); return nil })
	for _, v := range []struct{ view, table, elem string }{
		{"vA", "quoteA", "qa"},
		{"vB", "quoteB", "qb"},
	} {
		src := fmt.Sprintf(`<m>{for $q in view('default')/%s/row return <%s sym={$q/sym} price={$q/price}></%s>}</m>`,
			v.table, v.elem, v.elem)
		if _, err := e.CreateView(v.view, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateTrigger(`CREATE TRIGGER WA AFTER UPDATE ON view('vA')/qa DO actA(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger(`CREATE TRIGGER WB AFTER UPDATE ON view('vB')/qb DO actB(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e, &firedA, &firedB
}

func setQuotePrice(p float64) func(reldb.Row) reldb.Row {
	return func(r reldb.Row) reldb.Row {
		r[1] = xdm.Float(p)
		return r
	}
}

// TestBatchTablesFiresAndCoalesces: a declared-footprint batch behaves
// like Batch — triggers fire once at commit with merged deltas.
func TestBatchTablesFiresAndCoalesces(t *testing.T) {
	e, firedA, firedB := newTwoMarketEngine(t, ModeGrouped)
	before := e.Stats().Fires
	err := e.BatchTables([]string{"quoteA"}, func(tx *reldb.Tx) error {
		for i, sym := range []string{"X1", "X2"} {
			if _, err := tx.UpdateByPK("quoteA", []xdm.Value{xdm.Str(sym)}, setQuotePrice(float64(10+i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fires := e.Stats().Fires - before; fires != 1 {
		t.Errorf("batch fired %d plan evaluations, want 1", fires)
	}
	if firedA.Load() != 2 || firedB.Load() != 0 {
		t.Errorf("notifications A=%d B=%d, want A=2 B=0", firedA.Load(), firedB.Load())
	}
}

// TestBatchTablesLockEscalation: touching a table outside the declared
// footprint no longer fails the batch — the declared attempt rolls back
// (so its partial mutations never commit and never fire) and the batch
// re-runs under the all-table lock. The result is exactly what Batch
// would have produced: both updates applied, each trigger fired once.
func TestBatchTablesLockEscalation(t *testing.T) {
	e, firedA, firedB := newTwoMarketEngine(t, ModeGrouped)
	attempts := 0
	err := e.BatchTables([]string{"quoteA"}, func(tx *reldb.Tx) error {
		attempts++
		if _, err := tx.UpdateByPK("quoteA", []xdm.Value{xdm.Str("X1")}, setQuotePrice(11)); err != nil {
			return err
		}
		_, err := tx.UpdateByPK("quoteB", []xdm.Value{xdm.Str("X1")}, setQuotePrice(11))
		return err
	})
	if err != nil {
		t.Fatalf("escalated batch failed: %v", err)
	}
	if attempts != 2 {
		t.Errorf("escalation ran the callback %d times, want 2 (declared attempt + retry)", attempts)
	}
	for _, table := range []string{"quoteA", "quoteB"} {
		r, ok, _ := e.DB().GetByPK(table, xdm.Str("X1"))
		if !ok || r[1].AsFloat() != 11 {
			t.Errorf("escalated batch did not apply to %s.X1: %v", table, r)
		}
	}
	// Exactly one firing each: the rolled-back declared attempt must not
	// have fired for its partial quoteA update.
	if firedA.Load() != 1 || firedB.Load() != 1 {
		t.Errorf("escalated batch fired %d+%d notifications, want 1+1", firedA.Load(), firedB.Load())
	}
	// A callback that swallows the refusal must still escalate (partial
	// declared mutations must never commit behind the caller's back).
	err = e.BatchTables([]string{"quoteA"}, func(tx *reldb.Tx) error {
		if _, err := tx.UpdateByPK("quoteA", []xdm.Value{xdm.Str("X2")}, setQuotePrice(21)); err != nil {
			return err
		}
		if _, err := tx.UpdateByPK("quoteB", []xdm.Value{xdm.Str("X2")}, setQuotePrice(21)); err != nil &&
			!errors.Is(err, reldb.ErrUndeclaredTable) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("swallowed-refusal batch failed: %v", err)
	}
	for _, table := range []string{"quoteA", "quoteB"} {
		r, ok, _ := e.DB().GetByPK(table, xdm.Str("X2"))
		if !ok || r[1].AsFloat() != 21 {
			t.Errorf("swallowed-refusal escalation did not apply to %s.X2: %v", table, r)
		}
	}
	// Unknown table names are rejected up front.
	if err := e.BatchTables([]string{"nosuch"}, func(*reldb.Tx) error { return nil }); err == nil {
		t.Error("BatchTables accepted an unknown table")
	}
}

// TestBatchTablesDisjointConcurrency: two batches with disjoint declared
// footprints must be able to be inside their callbacks at the same time.
// Each callback waits for the other via a rendezvous; with Batch (all
// tables write-locked) this would deadlock, with BatchTables it runs.
func TestBatchTablesDisjointConcurrency(t *testing.T) {
	e, firedA, firedB := newTwoMarketEngine(t, ModeGrouped)
	aIn, bIn := make(chan struct{}), make(chan struct{})
	run := func(table string, mine, other chan struct{}) error {
		return e.BatchTables([]string{table}, func(tx *reldb.Tx) error {
			if _, err := tx.UpdateByPK(table, []xdm.Value{xdm.Str("X1")}, setQuotePrice(55)); err != nil {
				return err
			}
			close(mine)
			select {
			case <-other:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("peer batch never entered its callback: footprints are not disjoint")
			}
		})
	}
	errs := make(chan error, 2)
	go func() { errs <- run("quoteA", aIn, bIn) }()
	go func() { errs <- run("quoteB", bIn, aIn) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if firedA.Load() != 1 || firedB.Load() != 1 {
		t.Errorf("notifications A=%d B=%d, want 1 and 1", firedA.Load(), firedB.Load())
	}
}

// newOrderedEngine builds one item table whose rows are watched by
// per-row triggers (ord0..ord3), recording delivered values per trigger.
func newOrderedEngine(t *testing.T, lanes int) (*Engine, func() [][]int) {
	t.Helper()
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "item",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "name", Type: schema.TString},
			{Name: "val", Type: schema.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < lanes; k++ {
		if err := db.Insert("item", reldb.Row{xdm.Int(int64(k)), xdm.Str(fmt.Sprintf("n%d", k)), xdm.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(db, ModeGrouped)
	var mu sync.Mutex
	got := make([][]int, lanes)
	e.RegisterAction("rec", func(inv Invocation) error {
		lex, _ := inv.New.Attribute("v")
		v, err := strconv.Atoi(lex)
		if err != nil {
			return fmt.Errorf("bad v attribute %q: %w", lex, err)
		}
		k, err := strconv.Atoi(strings.TrimPrefix(inv.Trigger, "ord"))
		if err != nil {
			return err
		}
		mu.Lock()
		got[k] = append(got[k], v)
		mu.Unlock()
		return nil
	})
	if _, err := e.CreateView("vd", `<doc>{for $i in view('default')/item/row return <it name={$i/name} v={$i/val}></it>}</doc>`); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < lanes; k++ {
		src := fmt.Sprintf(`CREATE TRIGGER ord%d AFTER UPDATE ON view('vd')/it WHERE NEW_NODE/@name = 'n%d' DO rec(NEW_NODE)`, k, k)
		if err := e.CreateTrigger(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	snapshot := func() [][]int {
		mu.Lock()
		defer mu.Unlock()
		out := make([][]int, len(got))
		for i := range got {
			out[i] = append([]int(nil), got[i]...)
		}
		return out
	}
	return e, snapshot
}

// TestAsyncDeliveryOrderMatchesCommitOrder: under 8 workers, each
// trigger's deliveries must arrive exactly in its commit order, for a mix
// of single statements and batched commits, even though distinct triggers
// fan out concurrently.
func TestAsyncDeliveryOrderMatchesCommitOrder(t *testing.T) {
	const lanes, n = 4, 400
	e, snapshot := newOrderedEngine(t, lanes)
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 8, QueueCap: 1024, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want := make([][]int, lanes)
	setVal := func(v int) func(reldb.Row) reldb.Row {
		return func(r reldb.Row) reldb.Row {
			r[2] = xdm.Int(int64(v))
			return r
		}
	}
	for i := 1; i <= n; i++ {
		k := i % lanes
		var err error
		if i%5 == 0 { // every fifth commit goes through the batch path
			err = e.Batch(func(tx *reldb.Tx) error {
				_, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(int64(k))}, setVal(i))
				return err
			})
		} else {
			_, err = e.UpdateByPK("item", []xdm.Value{xdm.Int(int64(k))}, setVal(i))
		}
		if err != nil {
			t.Fatal(err)
		}
		want[k] = append(want[k], i)
	}
	e.Drain()
	got := snapshot()
	for k := 0; k < lanes; k++ {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("trigger ord%d delivered %d/%d notifications", k, len(got[k]), len(want[k]))
		}
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("trigger ord%d delivery %d = %d, want %d (per-trigger FIFO violated)", k, i, got[k][i], want[k][i])
			}
		}
	}
	st := e.Stats()
	if !st.Async || st.Dispatch.Completed != int64(n) || st.Dispatch.Dropped != 0 {
		t.Errorf("dispatch stats = %+v, want Completed=%d Dropped=0", st.Dispatch, n)
	}
}

// TestDropTriggerDrainsAsyncLane: dropping a trigger with in-flight async
// deliveries completes them before returning and releases the lane.
func TestDropTriggerDrainsAsyncLane(t *testing.T) {
	e, snapshot := newOrderedEngine(t, 2)
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 64, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gate := make(chan struct{})
	held := e.action("rec")
	e.RegisterAction("rec", func(inv Invocation) error {
		<-gate
		return held(inv)
	})
	for i := 1; i <= 3; i++ {
		if _, err := e.UpdateByPK("item", []xdm.Value{xdm.Int(0)}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Int(int64(i))
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}
	if ls, ok := e.TriggerDispatchStats("ord0"); !ok || ls.Enqueued != 3 {
		t.Fatalf("lane stats before drop = %+v ok=%v, want Enqueued=3", ls, ok)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	if err := e.DropTrigger("ord0"); err != nil {
		t.Fatal(err)
	}
	if got := snapshot()[0]; len(got) != 3 {
		t.Errorf("DropTrigger returned with %d/3 deliveries run", len(got))
	}
	if _, ok := e.TriggerDispatchStats("ord0"); ok {
		t.Error("lane still present after DropTrigger (leak)")
	}
	// The engine stays functional: the other trigger still fires.
	if _, err := e.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Int(99)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if got := snapshot()[1]; len(got) != 1 || got[0] != 99 {
		t.Errorf("trigger ord1 after drop delivered %v, want [99]", got)
	}
}

// A batch that staged an invocation of a trigger enqueues it when it
// commits, and dropping the trigger takes no table lock to change its
// group: DropTrigger waits for the open batch before it drains the lane, so
// the staged delivery runs and nothing enqueues to the lane afterwards.
func TestDropTriggerWaitsForAStagedInvocation(t *testing.T) {
	e, snapshot := newOrderedEngine(t, 2)
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 64, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h, err := e.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Tx().UpdateByPK("item", []xdm.Value{xdm.Int(0)}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Int(7)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.Prepare(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- e.DropTrigger("ord0") }()
	select {
	case err := <-done:
		t.Fatalf("DropTrigger returned (%v) while a batch that staged an invocation of the trigger was open", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := h.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := snapshot()[0]; len(got) != 1 || got[0] != 7 {
		t.Errorf("ord0 delivered %v by the time DropTrigger returned, want [7]", got)
	}
	if _, ok := e.TriggerDispatchStats("ord0"); ok {
		t.Error("the staged delivery enqueued to ord0's lane after DropTrigger drained it")
	}
}

// TestAsyncErrorPolicySurfacesToWriter: with Policy Error, a full queue
// rejects the delivery and the writer's statement reports it.
func TestAsyncErrorPolicySurfacesToWriter(t *testing.T) {
	e, _ := newOrderedEngine(t, 1)
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 1, QueueCap: 1, Policy: dispatch.Error}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gate := make(chan struct{})
	defer close(gate)
	held := e.action("rec")
	e.RegisterAction("rec", func(inv Invocation) error {
		<-gate
		return held(inv)
	})
	update := func(v int) error {
		_, err := e.UpdateByPK("item", []xdm.Value{xdm.Int(0)}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Int(int64(v))
			return r
		})
		return err
	}
	if err := update(1); err != nil { // occupies the worker
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Dispatch.Running < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first delivery")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := update(2); err != nil { // fills the queue
		t.Fatal(err)
	}
	err := update(3)
	if !errors.Is(err, dispatch.ErrQueueFull) {
		t.Fatalf("statement on full queue = %v, want ErrQueueFull", err)
	}
	if st := e.Stats(); st.Dispatch.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dispatch.Dropped)
	}
}

// TestAsyncStress drives concurrent batched writers (disjoint
// BatchTables), a single-statement writer, EvalView readers, and stats
// pollers against an async engine with a deliberately slow sink. Run
// under -race this exercises the whole locking + dispatch surface.
func TestAsyncStress(t *testing.T) {
	e, firedA, firedB := newTwoMarketEngine(t, ModeGrouped)
	slow := func(held ActionFunc) ActionFunc {
		return func(inv Invocation) error {
			time.Sleep(50 * time.Microsecond)
			return held(inv)
		}
	}
	e.RegisterAction("actA", slow(e.action("actA")))
	e.RegisterAction("actB", slow(e.action("actB")))
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 8, QueueCap: 256, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const iters = 60
	var wg sync.WaitGroup
	for _, w := range []struct{ table, view string }{
		{"quoteA", "vA"}, {"quoteB", "vB"},
	} {
		w := w
		wg.Add(1)
		go func() { // batched writer, declared footprint
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := e.BatchTables([]string{w.table}, func(tx *reldb.Tx) error {
					for _, sym := range []string{"X1", "X2"} {
						if _, err := tx.UpdateByPK(w.table, []xdm.Value{xdm.Str(sym)}, setQuotePrice(float64(10+i))); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // single-statement writer
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := e.UpdateByPK("quoteA", []xdm.Value{xdm.Str("X2")}, setQuotePrice(float64(500+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, view := range []string{"vA", "vB"} {
					n, err := e.EvalView(view)
					if err != nil {
						t.Error(err)
						return
					}
					elem := "qa"
					if view == "vB" {
						elem = "qb"
					}
					if len(n.ChildElements(elem)) == 0 {
						t.Error("view snapshot lost its quotes")
						return
					}
				}
				_ = e.Stats()
			}
		}()
	}
	wg.Wait()
	e.Drain()
	if firedA.Load() == 0 || firedB.Load() == 0 {
		t.Fatalf("stress fired A=%d B=%d notifications; writers did not exercise dispatch", firedA.Load(), firedB.Load())
	}
	st := e.Stats()
	if st.Dispatch.Completed != st.Dispatch.Enqueued || st.Dispatch.Dropped != 0 {
		t.Errorf("dispatch stats after drain = %+v, want Completed=Enqueued and no drops", st.Dispatch)
	}
}
