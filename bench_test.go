// Package quark holds the repository-level benchmark harness: one
// testing.B benchmark per table/figure of the paper's evaluation
// (Section 6 and Appendix G), plus ablations for its design choices.
// Benchmarks run at a reduced scale by default so `go test -bench=.`
// completes quickly; cmd/benchrunner regenerates the figures at paper scale.
package quark

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/obs"
	"quark/internal/outbox"
	"quark/internal/wire"
	"quark/internal/workload"
)

// benchScale keeps default runs fast; benchrunner uses paper scale.
func benchParams() workload.Params {
	return workload.Params{
		Depth:        2,
		LeafTuples:   32 * 1024,
		Fanout:       64,
		NumTriggers:  1000,
		NumSatisfied: 1,
	}
}

func runUpdates(b *testing.B, w *workload.Setup) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.UpdateOneLeaf(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if w.Notifications == 0 {
		b.Fatal("no notifications fired; benchmark is not exercising the pipeline")
	}
}

// BenchmarkFig17NumTriggers reproduces Figure 17: per-update time as the
// number of structurally similar triggers grows, for UNGROUPED, GROUPED,
// and GROUPED-AGG. UNGROUPED grows with the trigger count; the grouped
// modes stay flat.
func BenchmarkFig17NumTriggers(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeUngrouped, core.ModeGrouped, core.ModeGroupedAgg} {
		for _, n := range []int{1, 10, 100, 1000} {
			if mode == core.ModeUngrouped && n > 100 {
				// One SQL trigger set per XML trigger: quadratic bench time.
				continue
			}
			b.Run(fmt.Sprintf("%s/triggers=%d", mode, n), func(b *testing.B) {
				p := benchParams()
				p.NumTriggers = n
				w, err := workload.Build(p, mode, 1)
				if err != nil {
					b.Fatal(err)
				}
				runUpdates(b, w)
			})
		}
	}
}

// BenchmarkFig18Depth reproduces Figure 18: per-update time vs hierarchy
// depth (roughly linear growth).
func BenchmarkFig18Depth(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeGrouped, core.ModeGroupedAgg} {
		for _, d := range []int{2, 3, 4, 5} {
			b.Run(fmt.Sprintf("%s/depth=%d", mode, d), func(b *testing.B) {
				p := benchParams()
				p.Depth = d
				w, err := workload.Build(p, mode, 1)
				if err != nil {
					b.Fatal(err)
				}
				runUpdates(b, w)
			})
		}
	}
}

// BenchmarkFig22Fanout reproduces Figure 22 (Appendix G.1): per-update time
// vs leaf tuples per XML element (mild growth: larger OLD/NEW nodes).
func BenchmarkFig22Fanout(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeGrouped, core.ModeGroupedAgg} {
		for _, f := range []int{16, 32, 64, 128, 256} {
			b.Run(fmt.Sprintf("%s/fanout=%d", mode, f), func(b *testing.B) {
				p := benchParams()
				p.Fanout = f
				w, err := workload.Build(p, mode, 1)
				if err != nil {
					b.Fatal(err)
				}
				runUpdates(b, w)
			})
		}
	}
}

// BenchmarkFig23DataSize reproduces Figure 23 (Appendix G.2): per-update
// time vs number of leaf tuples (flat: no materialization, index access
// only touches affected keys).
func BenchmarkFig23DataSize(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeGrouped, core.ModeGroupedAgg} {
		for _, n := range []int{32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024} {
			b.Run(fmt.Sprintf("%s/leaves=%d", mode, n), func(b *testing.B) {
				p := benchParams()
				p.LeafTuples = n
				w, err := workload.Build(p, mode, 1)
				if err != nil {
					b.Fatal(err)
				}
				runUpdates(b, w)
			})
		}
	}
}

// BenchmarkFig24Satisfied reproduces Figure 24 (Appendix G.3): per-update
// time vs number of satisfied triggers (linear in the activations).
func BenchmarkFig24Satisfied(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeGrouped, core.ModeGroupedAgg} {
		for _, s := range []int{1, 20, 40, 80, 100} {
			b.Run(fmt.Sprintf("%s/satisfied=%d", mode, s), func(b *testing.B) {
				p := benchParams()
				p.NumSatisfied = s
				w, err := workload.Build(p, mode, 1)
				if err != nil {
					b.Fatal(err)
				}
				runUpdates(b, w)
			})
		}
	}
}

// BenchmarkBatchSize sweeps the batched-transaction API (Engine.Batch):
// k single-row leaf updates per commit, for k = 1, 10, 100, 1000. The
// translated SQL triggers fire once per commit with the merged Δ/∇, so
// the reported ns/row — the per-row trigger-firing cost — should drop
// roughly linearly with the batch size, against the "single" baseline of
// k independent statements each paying a full firing.
func BenchmarkBatchSize(b *testing.B) {
	for _, batched := range []bool{false, true} {
		api := "single"
		if batched {
			api = "batch"
		}
		for _, k := range []int{1, 10, 100, 1000} {
			if !batched && k > 100 {
				// 1000 independent firings per iteration: benchmark time
				// without extra information (the cost is linear in k).
				continue
			}
			b.Run(fmt.Sprintf("GROUPED/%s/rows=%d", api, k), func(b *testing.B) {
				w, err := workload.Build(benchParams(), core.ModeGrouped, 1)
				if err != nil {
					b.Fatal(err)
				}
				run := w.UpdateLeavesSingle
				if batched {
					run = w.UpdateLeavesBatch
				}
				// Warm-up (index builds, constants-table caches).
				if err := run(k); err != nil {
					b.Fatal(err)
				}
				warm := w.Notifications
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(k); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if w.Notifications == warm {
					b.Fatal("no notifications fired in the timed loop; benchmark is not exercising the pipeline")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/row")
			})
		}
	}
}

// BenchmarkDispatch measures the writer-side cost of leaf updates whose
// satisfied trigger notifies a slow sink (1 ms per notification), with
// the action delivered inline (sync) vs through the async dispatcher at
// queue depth 1024 / 8 workers — and, in the third case, with the durable
// outbox appending every delivery to its segment log before the enqueue.
// Each iteration is a burst of 256 updates timed from the writer's side;
// the burst fits the queue, so in async mode the writer never blocks on
// the sink and the pool drains outside the timed region — which is
// exactly the decoupling being measured. Expected: ns/update improves
// well over 10x async vs sync, and the outbox costs the writer < 10% on
// top of async (a wire encode plus a buffered-file append per delivery).
func BenchmarkDispatch(b *testing.B) {
	const (
		sinkLatency = time.Millisecond
		burst       = 256
	)
	for _, cfg := range []struct {
		name           string
		async, durable bool
	}{
		{name: "sync"},
		{name: "async/queue=1024,workers=8", async: true},
		{name: "async+outbox/queue=1024,workers=8", async: true, durable: true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// Small hierarchy: the point is sink latency vs writer latency,
			// not detection cost, so keep inline detection cheap.
			p := workload.Params{Depth: 2, LeafTuples: 128, Fanout: 4, NumTriggers: 10, NumSatisfied: 1}
			w, err := workload.Build(p, core.ModeGrouped, 1)
			if err != nil {
				b.Fatal(err)
			}
			var delivered atomic.Int64
			w.Engine.RegisterAction("notify", func(core.Invocation) error {
				time.Sleep(sinkLatency)
				delivered.Add(1)
				return nil
			})
			if cfg.async {
				if err := w.Engine.EnableAsyncDispatch(dispatch.Config{
					Workers: 8, QueueCap: 1024, Policy: dispatch.Block,
				}); err != nil {
					b.Fatal(err)
				}
				defer w.Engine.Close()
			}
			if cfg.durable {
				lg, err := outbox.Open(b.TempDir(), outbox.Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer lg.Close()
				sink := outbox.SinkFunc(func(*wire.Record) error {
					time.Sleep(sinkLatency)
					delivered.Add(1)
					return nil
				})
				if err := w.Engine.EnableOutbox(lg, sink); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.UpdateOneLeaf(); err != nil { // warm-up
				b.Fatal(err)
			}
			w.Engine.Drain()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < burst; j++ {
					if err := w.UpdateOneLeaf(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				w.Engine.Drain() // the sink drains outside the writer-side timing
				b.StartTimer()
			}
			b.StopTimer()
			if delivered.Load() == 0 {
				b.Fatal("no notifications delivered; benchmark is not exercising dispatch")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/update")
		})
	}
}

// BenchmarkShardWriters measures concurrent writer throughput against the
// shard count: 8 writers, each updating leaves of its own top-level
// element (so statements route to fixed shards and never contend on the
// router's slow path). With one shard every writer serializes on the leaf
// table's lock; as shards grow, writers whose roots hash to different
// shards proceed in parallel — the near-linear scaling regime the sharded
// engine exists for.
// The obs=on variants run the identical workload with the full metrics
// and tracing pipeline attached; comparing ns/update against the plain
// variants measures the observability overhead (budget: within 5%).
func BenchmarkShardWriters(b *testing.B) {
	const writers = 8
	for _, withObs := range []bool{false, true} {
		name := "GROUPED/shards=%d"
		if withObs {
			name = "GROUPED-OBS/shards=%d"
		}
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf(name, n), func(b *testing.B) {
				p := workload.Params{Depth: 2, LeafTuples: 2048, Fanout: 64, NumTriggers: 64, NumSatisfied: 1}
				w, err := workload.BuildSharded(p, core.ModeGrouped, n, 1)
				if err != nil {
					b.Fatal(err)
				}
				if withObs {
					w.Engine.EnableObs(obs.New())
				}
				var payload atomic.Int64
				payload.Store(1 << 20)
				if err := w.UpdateLeafOn(0, float64(payload.Add(1))); err != nil { // warm-up
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for g := 0; g < writers; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							leaf := int64(g*p.Fanout + i%p.Fanout)
							if err := w.UpdateLeafOn(leaf, float64(payload.Add(1))); err != nil {
								b.Error(err)
							}
						}(g)
					}
					wg.Wait()
				}
				b.StopTimer()
				if w.Notifications.Load() == 0 {
					b.Fatal("no notifications fired; benchmark is not exercising the sharded pipeline")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*writers), "ns/update")
			})
		}
	}
}

// BenchmarkTriggerCompile measures XML-trigger compile time (paper §6:
// "fairly small (a hundred milliseconds, even for a complex view)").
func BenchmarkTriggerCompile(b *testing.B) {
	p := benchParams()
	p.NumTriggers = 1
	w, err := workload.Build(p, core.ModeGrouped, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench%d", i)
		src := fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = 'x%d' DO notify(NEW_NODE)`, name, i)
		if err := w.Engine.CreateTrigger(src); err != nil {
			b.Fatal(err)
		}
		if err := w.Engine.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBOld isolates the Section 5.2 optimization: GROUPED
// (direct B_old aggregation) vs GROUPED-AGG (delta-derived old aggregates)
// at a fanout where aggregation cost matters.
func BenchmarkAblationBOld(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeGrouped, core.ModeGroupedAgg} {
		b.Run(mode.String(), func(b *testing.B) {
			p := benchParams()
			p.Fanout = 256
			w, err := workload.Build(p, mode, 1)
			if err != nil {
				b.Fatal(err)
			}
			runUpdates(b, w)
		})
	}
}

// BenchmarkAblationMaterialized compares the translated-trigger approach
// against the materialize-and-diff strawman (Section 1): the strawman's
// per-update cost grows with view size; GROUPED's does not. Kept at small
// scale — the strawman is quadratic in practice.
func BenchmarkAblationMaterialized(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeGrouped, core.ModeMaterialized} {
		for _, n := range []int{1024, 4096} {
			b.Run(fmt.Sprintf("%s/leaves=%d", mode, n), func(b *testing.B) {
				p := benchParams()
				p.LeafTuples = n
				p.NumTriggers = 10
				w, err := workload.Build(p, mode, 1)
				if err != nil {
					b.Fatal(err)
				}
				runUpdates(b, w)
			})
		}
	}
}

// TestTable2ParameterGrid smoke-tests every Table 2 parameter value at
// reduced scale.
func TestTable2ParameterGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid smoke test skipped in -short mode")
	}
	base := workload.Params{Depth: 2, LeafTuples: 1024, Fanout: 16, NumTriggers: 50, NumSatisfied: 1}
	cases := []workload.Params{}
	for _, d := range []int{2, 3, 4, 5} {
		p := base
		p.Depth = d
		cases = append(cases, p)
	}
	for _, f := range []int{16, 32, 64} {
		p := base
		p.Fanout = f
		cases = append(cases, p)
	}
	for _, n := range []int{1, 10, 100} {
		p := base
		p.NumTriggers = n
		cases = append(cases, p)
	}
	for _, s := range []int{1, 20, 50} {
		p := base
		p.NumSatisfied = s
		cases = append(cases, p)
	}
	for _, p := range cases {
		w, err := workload.Build(p, core.ModeGroupedAgg, 1)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if err := w.UpdateOneLeaf(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if w.Notifications != min(p.NumSatisfied, p.NumTriggers) {
			t.Errorf("%+v: notifications = %d", p, w.Notifications)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
