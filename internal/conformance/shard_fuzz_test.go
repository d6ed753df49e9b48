package conformance

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/wire"
	"quark/internal/workload"
)

// Fuzzer knobs. The defaults are pinned so CI failures reproduce with a
// bare `go test -run TestShardFuzz`; pass -seed to explore, and replay a
// reported failure with the seed the test logs.
var (
	fuzzSeed = flag.Int64("seed", 1, "seed for the sharded differential fuzzer (streams are replayable)")
	fuzzOps  = flag.Int("fuzzops", 60, "ops per fuzzer configuration (N-shards x delivery-style)")
)

// fuzzStyle selects how the two engines under comparison deliver actions.
type fuzzStyle uint8

const (
	fuzzSync fuzzStyle = iota
	fuzzAsync
	fuzzOutbox
)

func (s fuzzStyle) String() string {
	switch s {
	case fuzzSync:
		return "sync"
	case fuzzAsync:
		return "async"
	default:
		return "outbox"
	}
}

// TestShardFuzz is the seeded differential fuzzer of the sharding
// subsystem: a random update stream (updates, inserts, deletes,
// cross-root moves, multi-root transactions) runs through the sharded
// engine and the single-engine oracle, and the two invocation streams
// must be byte-identical, op for op — across N in {1, 2, 4} shards and
// sync / async / outbox delivery. With the default -fuzzops 60 the nine
// configurations replay 540 ops; every run is reproducible from the
// logged seed.
func TestShardFuzz(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 192, Fanout: 16, NumTriggers: 24, NumSatisfied: 2}
	sp := workload.DefaultStream(*fuzzOps)
	for _, n := range []int{1, 2, 4} {
		for _, style := range []fuzzStyle{fuzzSync, fuzzAsync, fuzzOutbox} {
			t.Run(fmt.Sprintf("shards=%d/%s", n, style), func(t *testing.T) {
				seed := *fuzzSeed
				t.Logf("replay with: go test ./internal/conformance -run TestShardFuzz -seed %d -fuzzops %d", seed, *fuzzOps)
				fuzzOne(t, p, sp, n, style, seed)
			})
		}
	}
}

// capture is a notification recorder shared by the two engines' action
// registrations: each op's deliveries accumulate (concurrently in async
// styles) and take() drains them as one sorted unit.
type capture struct {
	mu    sync.Mutex
	lines []string
}

func (c *capture) action(inv core.Invocation) error {
	line := formatNotify(inv.Trigger, inv.Event, inv.Args, inv.Old, inv.New)
	c.mu.Lock()
	c.lines = append(c.lines, line)
	c.mu.Unlock()
	return nil
}

// take drains the unit's lines in delivery order (per trigger, the order
// the lane executed — appends happen inside the action, which per-trigger
// FIFO serializes even in async styles).
func (c *capture) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.lines
	c.lines = nil
	return out
}

// perTrigger splits a unit's delivery-ordered lines into per-trigger
// subsequences (a formatNotify line's second field is the trigger name).
func perTrigger(lines []string) map[string][]string {
	out := map[string][]string{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) > 1 {
			out[f[1]] = append(out[f[1]], l)
		}
	}
	return out
}

func sortedJoin(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	return strings.Join(s, "\n")
}

func fuzzOne(t *testing.T, p workload.Params, sp workload.StreamParams, shards int, style fuzzStyle, seed int64) {
	t.Helper()
	ops, err := workload.GenStream(p, sp, seed)
	if err != nil {
		t.Fatal(err)
	}

	// Both engines run GROUPED translation: the differential suite already
	// proves the modes agree, the fuzzer isolates the sharding layer.
	oracle, err := workload.Build(p, core.ModeGrouped, seed)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := workload.BuildSharded(p, core.ModeGrouped, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	var oCap, sCap capture
	oracle.Engine.RegisterAction("notify", oCap.action)
	sharded.Engine.RegisterAction("notify", sCap.action)

	oDrain, sDrain := func() {}, func() {}
	switch style {
	case fuzzAsync:
		cfg := dispatch.Config{Workers: 4, QueueCap: 256, Policy: dispatch.Block}
		if err := oracle.Engine.EnableAsyncDispatch(cfg); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Engine.EnableAsyncDispatch(cfg); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = oracle.Engine.Close() }()
		defer func() { _ = sharded.Engine.Close() }()
		oDrain, sDrain = oracle.Engine.Drain, sharded.Engine.Drain
	case fuzzOutbox:
		cfg := dispatch.Config{Workers: 4, QueueCap: 256, Policy: dispatch.Block}
		oLog, err := outbox.Open(t.TempDir(), outbox.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer oLog.Close()
		sLog, err := outbox.Open(t.TempDir(), outbox.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer sLog.Close()
		if err := oracle.Engine.EnableAsyncDispatch(cfg); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Engine.EnableAsyncDispatch(cfg); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = oracle.Engine.Close() }()
		defer func() { _ = sharded.Engine.Close() }()
		// nil sink: the log is a durability layer under the in-process
		// actions, so the capture path stays identical to the other styles
		// while every delivery still pays append+ack on the shared log.
		if err := oracle.Engine.EnableOutbox(oLog, nil); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Engine.EnableOutbox(sLog, nil); err != nil {
			t.Fatal(err)
		}
		oDrain, sDrain = oracle.Engine.Drain, sharded.Engine.Drain
		defer func() {
			// The shared log must account for every sharded delivery: all
			// appended records acknowledged once the fleet is drained.
			sharded.Engine.Drain()
			st := sLog.Stats()
			if st.Acked != st.NextSeq-1 {
				t.Errorf("sharded outbox: acked %d of %d appended", st.Acked, st.NextSeq-1)
			}
		}()
	}

	for i, op := range ops {
		if err := workload.ApplyOp(oracle.Engine, p, op); err != nil {
			t.Fatalf("op %d (%+v) on oracle: %v [replay: -seed %d]", i, op, err, seed)
		}
		oDrain()
		if err := workload.ApplyOp(sharded.Engine, p, op); err != nil {
			t.Fatalf("op %d (%+v) on sharded: %v [replay: -seed %d]", i, op, err, seed)
		}
		sDrain()
		want, got := oCap.take(), sCap.take()
		// The unit's invocation SET must match exactly. Global order is
		// not part of the contract (the sharded engine activates in
		// (shard, storage-key) order, the single engine in one global
		// sort), so the set comparison sorts...
		if sortedJoin(want) != sortedJoin(got) {
			t.Fatalf("op %d (%+v) diverges [replay: -seed %d]:\noracle:\n  %s\nsharded:\n  %s",
				i, op, seed, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
		}
		// ...but per-trigger delivery ORDER is the contract (FIFO lanes
		// spanning shards), so each trigger's subsequence must match the
		// oracle's unsorted.
		wantSeq, gotSeq := perTrigger(want), perTrigger(got)
		for trig, ws := range wantSeq {
			if strings.Join(ws, "\n") != strings.Join(gotSeq[trig], "\n") {
				t.Fatalf("op %d: trigger %s delivery order diverges [replay: -seed %d]:\noracle:\n  %s\nsharded:\n  %s",
					i, trig, seed, strings.Join(ws, "\n  "), strings.Join(gotSeq[trig], "\n  "))
			}
		}
	}

	// End-state agreement: the fleet's union of rows equals the oracle's.
	leaf := p.TableName(p.Depth - 1)
	want := oracle.DB.RowCount(leaf)
	got := 0
	for i := 0; i < sharded.Engine.NumShards(); i++ {
		got += sharded.Engine.Shard(i).DB().RowCount(leaf)
	}
	if got != want {
		t.Errorf("after %d ops the fleet holds %d leaf rows, oracle %d [replay: -seed %d]", len(ops), got, want, seed)
	}
}

// TestShardFuzzReplayedSink runs one fuzz configuration with a REAL sink
// on the sharded engine's outbox and rebuilds the notification stream
// from the segment log via the wire codec, requiring it to contain
// exactly the oracle's deliveries (global per-trigger order preserved by
// the shared append stripes). This closes the loop the conformance
// Replayed style covers for scenarios, on fuzzer-generated streams.
func TestShardFuzzReplayedSink(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 128, Fanout: 16, NumTriggers: 16, NumSatisfied: 2}
	sp := workload.DefaultStream(*fuzzOps)
	seed := *fuzzSeed
	ops, err := workload.GenStream(p, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := workload.Build(p, core.ModeGrouped, seed)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := workload.BuildSharded(p, core.ModeGrouped, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	var oCap capture
	oracle.Engine.RegisterAction("notify", oCap.action)
	sharded.Engine.RegisterAction("notify", func(core.Invocation) error { return nil })

	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if err := sharded.Engine.EnableAsyncDispatch(dispatch.Config{Workers: 4, QueueCap: 256, Policy: dispatch.Block}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sharded.Engine.Close() }()
	sink := outbox.SinkFunc(func(*wire.Record) error { return nil })
	if err := sharded.Engine.EnableOutbox(lg, sink); err != nil {
		t.Fatal(err)
	}

	var want []string
	for i, op := range ops {
		if err := workload.ApplyOp(oracle.Engine, p, op); err != nil {
			t.Fatalf("op %d on oracle: %v", i, err)
		}
		want = append(want, oCap.take()...)
		if err := workload.ApplyOp(sharded.Engine, p, op); err != nil {
			t.Fatalf("op %d on sharded: %v", i, err)
		}
		sharded.Engine.Drain()
	}
	recs, err := lg.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, formatRecord(r))
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("replayed log diverges from oracle deliveries [replay: -seed %d]:\noracle %d lines, log %d lines", seed, len(want), len(got))
	}
}
