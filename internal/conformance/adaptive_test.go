package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/workload"
)

// TestGoldenAdaptive is the mixed-mode equivalence suite: every scenario
// runs on an engine whose trigger groups are dealt arbitrary
// per-group modes (three seeds, so different mixes), with a forced live
// mode switch before every unit, at shard counts 0/2/4 and across
// sync/async/replayed delivery — and every combination must come out
// byte-identical to the committed single-engine MATERIALIZED goldens.
func TestGoldenAdaptive(t *testing.T) {
	styles := []struct {
		name string
		opts RunOpts
	}{
		{"sync", RunOpts{}},
		{"async", RunOpts{Async: true}},
		{"replayed", RunOpts{Async: true, Replayed: true}},
	}
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{0, 2, 4} {
				for _, style := range styles {
					for seed := int64(1); seed <= 3; seed++ {
						opts := style.opts
						opts.Shards = shards
						opts.Adaptive = true
						opts.ModeSeed = seed
						opts.ModeFlips = true
						label := fmt.Sprintf("shards=%d/%s/seed=%d", shards, style.name, seed)
						single, err := RunStyle(sc, core.ModeGrouped, opts)
						if err != nil {
							t.Fatalf("%s single: %v", label, err)
						}
						opts.Batched = true
						batched, err := RunStyle(sc, core.ModeGrouped, opts)
						if err != nil {
							t.Fatalf("%s batched: %v", label, err)
						}
						got := "== single ==\n" + single + "== batched ==\n" + batched
						if got != string(want) {
							t.Fatalf("%s diverges from MATERIALIZED golden:\n%s", label, diffText(string(want), got))
						}
					}
				}
			}
		})
	}
}

// TestShardFuzzModeFlips is the seeded differential fuzzer with live mode
// migrations injected mid-stream: the generated stream interleaves mode
// flips with updates/inserts/deletes/moves/batches, the subject engines
// apply them while the oracle ignores them, and the invocation streams
// must stay byte-identical op for op — across 0/2/4 shards and
// sync/async/outbox delivery.
func TestShardFuzzModeFlips(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 128, Fanout: 16, NumTriggers: 16, NumSatisfied: 2}
	sp := workload.DefaultStream(*fuzzOps)
	sp.ModeFlipFrac = 0.12
	for _, n := range []int{0, 2, 4} {
		for _, style := range []fuzzStyle{fuzzSync, fuzzAsync, fuzzOutbox} {
			t.Run(fmt.Sprintf("shards=%d/%s", n, style), func(t *testing.T) {
				seed := *fuzzSeed
				t.Logf("replay with: go test ./internal/conformance -run TestShardFuzzModeFlips -seed %d -fuzzops %d", seed, *fuzzOps)
				fuzzModeFlipsOne(t, p, sp, n, style, seed)
			})
		}
	}
}

// enableOutbox attaches a durable log to whichever engine shape the
// applier wraps.
func enableOutbox(a workload.Applier, lg *outbox.Log) error {
	switch x := a.(type) {
	case workload.SingleApplier:
		return x.E.EnableOutbox(lg, nil)
	case workload.ShardApplier:
		return x.E.EnableOutbox(lg, nil)
	default:
		return fmt.Errorf("unknown applier %T", a)
	}
}

// fuzzModeFlipsOne runs one configuration: the oracle is a plain
// MATERIALIZED single engine that ignores flips entirely; the subject is
// a GROUPED engine (single for shards == 0, a fleet otherwise) that
// applies every flip as a live two-phase migration.
func fuzzModeFlipsOne(t *testing.T, p workload.Params, sp workload.StreamParams, shards int, style fuzzStyle, seed int64) {
	t.Helper()
	ops, err := workload.GenStream(p, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, op := range ops {
		if op.ModeFlip != nil {
			flips++
		}
	}
	if flips == 0 {
		t.Fatalf("stream has no mode flips; raise -fuzzops (got %d ops)", len(ops))
	}

	oracle, err := workload.Build(p, core.ModeMaterialized, seed)
	if err != nil {
		t.Fatal(err)
	}
	var oCap, sCap capture
	oracle.Engine.RegisterAction("notify", oCap.action)

	var sApp workload.Applier
	var sDrain func()
	var sClose func() error
	var rowCount func(table string) int
	if shards == 0 {
		subject, err := workload.Build(p, core.ModeGrouped, seed)
		if err != nil {
			t.Fatal(err)
		}
		subject.Engine.RegisterAction("notify", sCap.action)
		sApp = workload.SingleApplier{E: subject.Engine, FlipModes: true}
		sDrain, sClose = subject.Engine.Drain, subject.Engine.Close
		rowCount = subject.DB.RowCount
		if style != fuzzSync {
			if err := subject.Engine.EnableAsyncDispatch(dispatch.Config{Workers: 4, QueueCap: 256, Policy: dispatch.Block}); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		subject, err := workload.BuildSharded(p, core.ModeGrouped, shards, seed)
		if err != nil {
			t.Fatal(err)
		}
		subject.Engine.RegisterAction("notify", sCap.action)
		sApp = workload.ShardApplier{E: subject.Engine, FlipModes: true}
		sDrain, sClose = subject.Engine.Drain, subject.Engine.Close
		rowCount = func(table string) int {
			total := 0
			for i := 0; i < subject.Engine.NumShards(); i++ {
				total += subject.Engine.Shard(i).DB().RowCount(table)
			}
			return total
		}
		if style != fuzzSync {
			if err := subject.Engine.EnableAsyncDispatch(dispatch.Config{Workers: 4, QueueCap: 256, Policy: dispatch.Block}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if style != fuzzSync {
		defer func() { _ = sClose() }()
	} else {
		sDrain = func() {}
	}
	if style == fuzzOutbox {
		// nil sink: the durable log underlies the in-process actions, so
		// every delivery pays append+ack while the capture path stays
		// identical to the other styles.
		lg, err := outbox.Open(t.TempDir(), outbox.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer lg.Close()
		if err := enableOutbox(sApp, lg); err != nil {
			t.Fatal(err)
		}
	}

	oApp := workload.SingleApplier{E: oracle.Engine}
	for i, op := range ops {
		if err := workload.ApplyOp(oApp, p, op); err != nil {
			t.Fatalf("op %d (%+v) on oracle: %v [replay: -seed %d]", i, op, err, seed)
		}
		if err := workload.ApplyOp(sApp, p, op); err != nil {
			t.Fatalf("op %d (%+v) on subject: %v [replay: -seed %d]", i, op, err, seed)
		}
		sDrain()
		want, got := oCap.take(), sCap.take()
		if sortedJoin(want) != sortedJoin(got) {
			t.Fatalf("op %d (%+v) diverges [replay: -seed %d]:\noracle:\n  %s\nsubject:\n  %s",
				i, op, seed, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
		}
		wantSeq, gotSeq := perTrigger(want), perTrigger(got)
		for trig, ws := range wantSeq {
			if strings.Join(ws, "\n") != strings.Join(gotSeq[trig], "\n") {
				t.Fatalf("op %d: trigger %s delivery order diverges [replay: -seed %d]", i, trig, seed)
			}
		}
	}

	// End-state agreement on the leaf table.
	leaf := p.TableName(p.Depth - 1)
	if want, got := oracle.DB.RowCount(leaf), rowCount(leaf); want != got {
		t.Errorf("after %d ops subject holds %d leaf rows, oracle %d [replay: -seed %d]", len(ops), got, want, seed)
	}
}
