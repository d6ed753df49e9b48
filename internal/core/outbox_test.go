package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"quark/internal/dispatch"
	"quark/internal/obs"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/wire"
	"quark/internal/xdm"
)

// newWatchedEngine builds one quote table with n always-matching UPDATE
// watch triggers (W0..Wn-1) over it, actions registered as no-ops (the
// outbox sink is the consumer under test).
func newWatchedEngine(t *testing.T, n int) *Engine {
	t.Helper()
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "quote",
		Columns: []schema.Column{
			{Name: "sym", Type: schema.TString},
			{Name: "price", Type: schema.TFloat},
		},
		PrimaryKey: []string{"sym"},
	})
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("quote",
		reldb.Row{xdm.Str("QRK"), xdm.Float(100)},
		reldb.Row{xdm.Str("XML"), xdm.Float(200)},
	); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, ModeGrouped)
	e.RegisterAction("notify", func(Invocation) error { return nil })
	src := `<m>{for $q in view('default')/quote/row return <q sym={$q/sym} price={$q/price}></q>}</m>`
	if err := e.CreateView("v", src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		trig := fmt.Sprintf(`CREATE TRIGGER W%d AFTER UPDATE ON view('v')/q DO notify(NEW_NODE, %d)`, i, i)
		if err := e.CreateTrigger(trig); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func bumpPrice(e *Engine, sym string, p float64) error {
	_, err := e.UpdateByPK("quote", []xdm.Value{xdm.Str(sym)}, func(r reldb.Row) reldb.Row {
		r[1] = xdm.Float(p)
		return r
	})
	return err
}

// TestOutboxKillAndRestart is the acceptance scenario: a process running
// with async dispatch and a partitioned sink suffers a partial outage (two
// triggers' deliveries fail, so their records stay unacknowledged) and
// then dies. A fresh process re-opens the outbox directory and replays:
// exactly the undelivered records arrive, per-trigger FIFO is preserved
// across the live/replayed boundary, and no delivery is lost.
func TestOutboxKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	const triggers = 4
	const updates = 6

	lg, err := outbox.Open(dir, outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := newWatchedEngine(t, triggers)
	live := outbox.NewPartitionedSink(2)
	live.FailFor = func(trig string) bool { return trig == "W1" || trig == "W2" }
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 4, QueueCap: 256, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableOutbox(lg, live); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < updates; i++ {
		if err := bumpPrice(e, "QRK", 101.5+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	st := e.Stats()
	if !st.Outbox || st.OutboxLog.Appended != triggers*updates {
		t.Fatalf("stats = %+v, want %d appended outbox records", st, triggers*updates)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the engine; close only the log handles (a killed
	// process's descriptors close with it).
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recover the log and replay into a healthy sink.
	lg2, err := outbox.Open(dir, outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	replay := outbox.NewPartitionedSink(2)
	n, err := lg2.Replay(replay)
	if err != nil {
		t.Fatal(err)
	}
	// Everything W1/W2 plus any later records below the stalled watermark
	// gets redelivered; at minimum the 2*updates failed deliveries.
	if n < 2*updates {
		t.Fatalf("replayed %d records, want >= %d", n, 2*updates)
	}
	if lg2.Acked() != uint64(triggers*updates) {
		t.Fatalf("watermark after replay = %d, want %d", lg2.Acked(), triggers*updates)
	}

	// No delivery lost: per trigger, the union of live deliveries and
	// replayed deliveries covers every appended record; and both the live
	// and replayed streams are in ascending sequence order per trigger.
	all, err := lg2.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	perTrigger := map[string][]uint64{}
	for _, r := range all {
		perTrigger[r.Trigger] = append(perTrigger[r.Trigger], r.Seq)
	}
	for trig, want := range perTrigger {
		seen := map[uint64]bool{}
		for _, streams := range [][]*wire.Record{live.ByTrigger(trig), replay.ByTrigger(trig)} {
			last := uint64(0)
			for _, r := range streams {
				if r.Seq <= last {
					t.Errorf("trigger %s: delivery order violated (%d after %d)", trig, r.Seq, last)
				}
				last = r.Seq
				seen[r.Seq] = true
			}
		}
		for _, seq := range want {
			if !seen[seq] {
				t.Errorf("trigger %s: record %d was never delivered", trig, seq)
			}
		}
	}
}

// TestOutboxSyncInline: without async dispatch the outbox still appends
// before delivering and acks after; a run with a healthy sink converges to
// a fully acknowledged log (nothing left to replay).
func TestOutboxSyncInline(t *testing.T) {
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	e := newWatchedEngine(t, 2)
	var mu sync.Mutex
	var got []*wire.Record
	sink := outbox.SinkFunc(func(r *wire.Record) error {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
		return nil
	})
	if err := e.EnableOutbox(lg, sink); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableOutbox(lg, sink); err == nil {
		t.Fatal("second EnableOutbox succeeded")
	}
	for i := 0; i < 3; i++ {
		if err := bumpPrice(e, "XML", 10+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := lg.Stats()
	if st.Appended != 6 || st.Acked != 6 {
		t.Fatalf("log stats = %+v, want 6 appended, 6 acked", st)
	}
	if n, err := lg.Replay(outbox.NewPartitionedSink(1)); err != nil || n != 0 {
		t.Fatalf("replay after clean run delivered %d (err %v), want 0", n, err)
	}
	if len(got) != 6 {
		t.Fatalf("sink saw %d records, want 6", len(got))
	}
}

// TestOutboxRecordFidelity: the records a consumer reads back from the
// log carry the full invocation — event, NEW_NODE tree, evaluated args —
// identical to what an in-process action would have received.
func TestOutboxRecordFidelity(t *testing.T) {
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	e := newWatchedEngine(t, 1)
	var invs []Invocation
	e.RegisterAction("notify", func(inv Invocation) error {
		invs = append(invs, inv)
		return nil
	})
	// nil sink: the registered action consumes, the log records.
	if err := e.EnableOutbox(lg, nil); err != nil {
		t.Fatal(err)
	}
	if err := bumpPrice(e, "QRK", 55.25); err != nil {
		t.Fatal(err)
	}
	recs, err := lg.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(invs) != 1 {
		t.Fatalf("records=%d invocations=%d, want 1 and 1", len(recs), len(invs))
	}
	r, inv := recs[0], invs[0]
	if r.Trigger != inv.Trigger || r.Event != inv.Event {
		t.Errorf("record (%s, %s) != invocation (%s, %s)", r.Trigger, r.Event, inv.Trigger, inv.Event)
	}
	if r.New.Serialize(false) != inv.New.Serialize(false) {
		t.Errorf("NEW node diverged:\nlog: %s\ninv: %s", r.New.Serialize(false), inv.New.Serialize(false))
	}
	if len(r.Args) != len(inv.Args) {
		t.Fatalf("args %d != %d", len(r.Args), len(inv.Args))
	}
	for i := range r.Args {
		if r.Args[i].Lexical() != inv.Args[i].Lexical() {
			t.Errorf("arg %d: %s != %s", i, r.Args[i], inv.Args[i])
		}
	}
}

// TestOutboxLogOrderMatchesDeliveryOrder: under concurrent disjoint-table
// batches (the only way two statements can activate triggers truly
// concurrently), each trigger's live delivery order must equal its log
// order — the invariant that makes replay faithful.
func TestOutboxLogOrderMatchesDeliveryOrder(t *testing.T) {
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	e, _, _ := newTwoMarketEngine(t, ModeGrouped)
	sink := outbox.NewPartitionedSink(2)
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 4, QueueCap: 1024, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableOutbox(lg, sink); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, tbl := range []string{"quoteA", "quoteB"} {
		tbl := tbl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				err := e.BatchTables([]string{tbl}, func(tx *reldb.Tx) error {
					_, err := tx.UpdateByPK(tbl, []xdm.Value{xdm.Str("X1")}, setQuotePrice(float64(i)))
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Drain()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkDeliveryOrderIsLogOrder(t, lg, sink)
}

// checkDeliveryOrderIsLogOrder requires every trigger's delivery order at
// the sink to equal its order in the log, and returns the log's record
// count.
func checkDeliveryOrderIsLogOrder(t *testing.T, lg *outbox.Log, sink *outbox.PartitionedSink) int {
	t.Helper()
	all, err := lg.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	logOrder := map[string][]uint64{}
	for _, r := range all {
		logOrder[r.Trigger] = append(logOrder[r.Trigger], r.Seq)
	}
	for trig, want := range logOrder {
		recs := sink.ByTrigger(trig)
		if len(recs) != len(want) {
			t.Fatalf("trigger %s: delivered %d, logged %d", trig, len(recs), len(want))
		}
		for i, r := range recs {
			if r.Seq != want[i] {
				t.Fatalf("trigger %s: delivery %d has seq %d, log has %d", trig, i, r.Seq, want[i])
			}
		}
	}
	return len(all)
}

// TestStatementWaveIsOneAppend: a statement-level write's activations reach
// the log as one group append — N records from one segment write, with
// consecutive sequences in activation order — and a kill-and-restart
// Replay redelivers what was left unacknowledged in that same order.
func TestStatementWaveIsOneAppend(t *testing.T) {
	const triggers, updates = 5, 3
	dir := t.TempDir()
	reg := obs.New()
	lg, err := outbox.Open(dir, outbox.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	e := newWatchedEngine(t, triggers)
	live := outbox.NewPartitionedSink(2)
	live.FailFor = func(trig string) bool { return trig == "W1" || trig == "W3" }
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 64, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableOutbox(lg, live); err != nil {
		t.Fatal(err)
	}
	segmentWrites := func() int64 { return reg.Snapshot().Histograms["quark_outbox_append_ns"].Count }
	for i := 0; i < updates; i++ {
		appended, writes := lg.Stats().Appended, segmentWrites()
		if err := bumpPrice(e, "QRK", 50+float64(i)); err != nil {
			t.Fatal(err)
		}
		if got := lg.Stats().Appended - appended; got != triggers {
			t.Fatalf("update %d appended %d records, want %d", i, got, triggers)
		}
		if got := segmentWrites() - writes; got != 1 {
			t.Fatalf("update %d took %d segment writes, want 1 for the whole firing", i, got)
		}
	}
	e.Drain()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := lg.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != triggers*updates {
		t.Fatalf("log holds %d records, want %d", len(all), triggers*updates)
	}
	for i, r := range all {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: a firing's sequences must be consecutive", i, r.Seq)
		}
		// Activation order within a firing: the grouped plan's trigger ids,
		// ascending.
		if want := fmt.Sprintf("W%d", i%triggers); r.Trigger != want {
			t.Fatalf("record %d belongs to %s, want %s", i, r.Trigger, want)
		}
	}
	if err := lg.Close(); err != nil { // the crash: only the descriptors close
		t.Fatal(err)
	}

	lg2, err := outbox.Open(dir, outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	replay := outbox.NewPartitionedSink(2)
	if _, err := lg2.Replay(replay); err != nil {
		t.Fatal(err)
	}
	for _, trig := range []string{"W1", "W3"} {
		recs := replay.ByTrigger(trig)
		if len(recs) != updates {
			t.Fatalf("trigger %s: replayed %d records, want the %d its sink refused", trig, len(recs), updates)
		}
		for i, r := range recs {
			if want := all[i*triggers+int(trig[1]-'0')].Seq; r.Seq != want {
				t.Fatalf("trigger %s: replayed delivery %d has seq %d, log order says %d", trig, i, r.Seq, want)
			}
		}
	}
	if lg2.Acked() != triggers*updates {
		t.Fatalf("watermark after replay = %d, want %d", lg2.Acked(), triggers*updates)
	}
}

// TestStatementWaveAppendErrorDeliversNone: a firing whose group append
// fails fails its statement and delivers nothing — the firing's records are
// a unit, never a delivered prefix.
func TestStatementWaveAppendErrorDeliversNone(t *testing.T) {
	const triggers = 5
	dir := t.TempDir()
	// One-byte segments: every append must rotate to a fresh segment file.
	lg, err := outbox.Open(dir, outbox.Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	e := newWatchedEngine(t, triggers)
	sink := outbox.NewPartitionedSink(1)
	if err := e.EnableOutbox(lg, sink); err != nil {
		t.Fatal(err)
	}
	if err := bumpPrice(e, "QRK", 1); err != nil {
		t.Fatal(err)
	}
	if sink.Total() != triggers || lg.Stats().Segments != 1 {
		t.Fatalf("healthy firing: delivered %d into %d segments, want %d records in 1 segment", sink.Total(), lg.Stats().Segments, triggers)
	}
	if err := os.RemoveAll(dir); err != nil { // the next rotation cannot create its file
		t.Fatal(err)
	}
	if err := bumpPrice(e, "QRK", 2); err == nil {
		t.Fatal("statement succeeded although its firing could not be appended")
	}
	if st := lg.Stats(); sink.Total() != triggers || st.Appended != triggers {
		t.Fatalf("after the failed append: delivered %d, appended %d; want both still %d", sink.Total(), st.Appended, triggers)
	}
}

// TestOutboxKeepsWhatAClosedDispatcherRejects: Engine.Close closes the
// dispatcher before it reverts the engine to inline delivery, so a wave can
// meet a closed dispatcher. The wave's statement fails with ErrClosed, and
// its records, appended before the enqueue, stay unacknowledged: a replay
// delivers each of them exactly once.
func TestOutboxKeepsWhatAClosedDispatcherRejects(t *testing.T) {
	const triggers = 3
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	e := newWatchedEngine(t, triggers)
	live := outbox.NewPartitionedSink(1)
	if err := e.EnableOutbox(lg, live); err != nil {
		t.Fatal(err)
	}
	d := dispatch.New(dispatch.Config{Workers: 1, Policy: dispatch.Block})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	e.dl.dispatcher.Store(d) // the window between d.Close and Engine.Close's swap
	if err := bumpPrice(e, "QRK", 1); !errors.Is(err, dispatch.ErrClosed) {
		t.Fatalf("statement on a closed dispatcher = %v, want ErrClosed", err)
	}
	if st := lg.Stats(); st.Appended != triggers || st.Acked != 0 || live.Total() != 0 {
		t.Fatalf("after the rejected wave: appended %d, acked %d, delivered %d; want %d, 0, 0",
			st.Appended, st.Acked, live.Total(), triggers)
	}
	replay := outbox.NewPartitionedSink(1)
	for pass := 0; pass < 2; pass++ {
		if _, err := lg.Replay(replay); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	for _, r := range replay.Partition(0) {
		seqs = append(seqs, r.Seq)
	}
	if !slices.Equal(seqs, []uint64{1, 2, 3}) || lg.Acked() != triggers {
		t.Fatalf("two replays delivered seqs %v and acked %d, want [1 2 3] once and 3", seqs, lg.Acked())
	}
}

// TestStatementWavesKeepLogOrder: two goroutines write disjoint tables, so
// their firings' waves run truly concurrently, and with 40 triggers a side
// the waves contend for the same delivery stripes. Each trigger's delivery
// order must still equal its log order.
func TestStatementWavesKeepLogOrder(t *testing.T) {
	const perSide, updates = 40, 25
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	e, _, _ := newTwoMarketEngine(t, ModeGrouped)
	for i := 0; i < perSide; i++ {
		for _, side := range []string{"A", "B"} {
			src := fmt.Sprintf(`CREATE TRIGGER W%s%d AFTER UPDATE ON view('v%s')/q%s DO act%s(NEW_NODE)`,
				side, i, side, strings.ToLower(side), side)
			if err := e.CreateTrigger(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	sink := outbox.NewPartitionedSink(2)
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 4, QueueCap: 64, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableOutbox(lg, sink); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, tbl := range []string{"quoteA", "quoteB"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				if _, err := e.UpdateByPK(tbl, []xdm.Value{xdm.Str("X1")}, setQuotePrice(float64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Drain()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := checkDeliveryOrderIsLogOrder(t, lg, sink), 2*(perSide+1)*updates; got != want {
		t.Fatalf("log holds %d records, want %d", got, want)
	}
}

// TestRetainedRecordSurvivesLaterWaves: a sink may keep the record it was
// handed. A wave's records live in the wave's task slab, and no later wave
// reuses that slab, so a kept record still reads its own trigger, sequence,
// node and arguments after many more waves and collections.
func TestRetainedRecordSurvivesLaterWaves(t *testing.T) {
	const triggers = 3
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	e := newWatchedEngine(t, triggers)
	defer e.Close()
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 64, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	// content is what a record reads; kept pairs a first-wave record with
	// what it read when the sink was handed it.
	type content struct {
		trigger    string
		seq        uint64
		node, args string
	}
	read := func(r *wire.Record) content {
		var args []string
		for _, a := range r.Args {
			args = append(args, a.Lexical())
		}
		return content{r.Trigger, r.Seq, r.New.Serialize(false), strings.Join(args, ",")}
	}
	type kept struct {
		rec  *wire.Record
		then content
	}
	var mu sync.Mutex
	var first []kept
	sink := outbox.SinkFunc(func(r *wire.Record) error {
		if r.Seq <= triggers {
			mu.Lock()
			first = append(first, kept{r, read(r)})
			mu.Unlock()
		}
		return nil
	})
	if err := e.EnableOutbox(lg, sink); err != nil {
		t.Fatal(err)
	}
	if err := bumpPrice(e, "QRK", 1.5); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	for i := 0; i < 200; i++ {
		sym := []string{"QRK", "XML"}[i%2]
		if err := bumpPrice(e, sym, 1000+float64(i)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			e.Drain()
			runtime.GC()
		}
	}
	e.Drain()
	runtime.GC()
	if len(first) != triggers {
		t.Fatalf("the sink kept %d first-wave records, want %d", len(first), triggers)
	}
	for _, k := range first {
		if !strings.Contains(k.then.node, `price="1.5"`) {
			t.Fatalf("first-wave record %d read %s when delivered, want the first update's node", k.then.seq, k.then.node)
		}
		if now := read(k.rec); now != k.then {
			t.Errorf("kept record changed after later waves:\nthen %+v\nnow  %+v", k.then, now)
		}
	}
}
