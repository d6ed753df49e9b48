package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"quark/internal/core"
	"quark/internal/obs"
)

// config is the run shape, the same on every commit for a given command line.
type config struct {
	seed    int64
	seconds float64 // measured time of one run
	// setupRuns cold builds at least give setup_s; one more is built first
	// and discarded.
	setupRuns int
	windows   int    // timed windows per run; each lasts seconds/windows
	scaleDiv  int    // -smoke: divide data and triggers
	traceDir  string // where trace-<workload>.json goes
	// fixedOps, when positive, ends each window after that many ops instead
	// of after its time; the determinism test uses it so that per-op counts
	// repeat exactly.
	fixedOps int
}

const (
	latBufCap = 1 << 19
	// Setup is rebuilt until setupRuns builds were timed and they add up to
	// setupMinTotal, so that a millisecond build is not judged on five samples.
	setupMinTotal = time.Second
	setupMaxRuns  = 40
)

func (c config) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// warmup is discarded; 2 s at the full run length.
func (c config) warmup() time.Duration { return min(2*time.Second, c.dur(0.2)) }

// window is what one timed stretch of the closed loop measured.
type window struct {
	ops, failed int
	wall        time.Duration
	lat         []int64 // ns, call to return, one per op, sorted
	mallocs     uint64
	bytes       uint64
	gcCycles    uint32
	gcPause     uint64
}

func (w window) opsPerS() float64     { return float64(w.ops) / w.wall.Seconds() }
func (w window) p50Us() float64       { return quantileUs(w.lat, 0.5) }
func (w window) allocsPerOp() float64 { return float64(w.mallocs) / float64(w.ops) }
func (w window) bytesPerOp() float64  { return float64(w.bytes) / float64(w.ops) }

func quantileUs(sorted []int64, q float64) float64 {
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

// runWindow drives ops back to back from this goroutine (closed loop, one
// client) for d, or for fixedOps ops when that is positive, appending
// latencies to buf.
func (in *instance) runWindow(d time.Duration, fixedOps int, buf []int64) window {
	var before, after runtime.MemStats
	w := window{lat: buf[:0]}
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		o := in.gen.next()
		t0 := time.Now()
		ok := in.exec(o)
		t1 := time.Now()
		w.ops++
		if !ok {
			w.failed++
		}
		if len(w.lat) < cap(w.lat) {
			w.lat = append(w.lat, int64(t1.Sub(t0)))
		}
		if fixedOps > 0 {
			if w.ops >= fixedOps {
				break
			}
		} else if t1.Sub(start) >= d {
			break
		}
	}
	w.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.bytes = after.TotalAlloc - before.TotalAlloc
	w.gcCycles = after.NumGC - before.NumGC
	w.gcPause = after.PauseTotalNs - before.PauseTotalNs
	slices.Sort(w.lat)
	return w
}

// warmUp runs the discarded window that lets caches fill and lazy setup
// finish.
func (in *instance) warmUp(cfg config, buf []int64) {
	in.runWindow(cfg.warmup(), min(cfg.fixedOps, 20), buf)
}

// runWindows runs n timed windows of seconds/cfg.windows each. Their
// latencies fill buf one after the other.
func (in *instance) runWindows(cfg config, n int, buf []int64) []window {
	ws := make([]window, n)
	for i := range ws {
		ws[i] = in.runWindow(cfg.dur(1/float64(cfg.windows)), cfg.fixedOps, buf)
		buf = buf[len(ws[i].lat):]
	}
	return ws
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	s, n := sorted(v), len(v)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// undisturbed is the value a tenth of the way into v from its good side: the
// upper decile of a rate, the lower decile of a time. On a shared box whatever
// else the host runs can only slow a window down, and does so for seconds at a
// time (measured over ten identical runs on a busy host: the median window
// swings by 22 %, the upper quartile by 19 %, the upper decile by 15 %), so
// the median window says more about the neighbours than about the program. A
// change to the program moves every window, and so this value.
func undisturbed(v []float64, higherIsBetter bool) float64 {
	lo, hi := goodSide(v, 10)
	if higherIsBetter {
		return hi
	}
	return lo
}

// quartiles returns the lower and upper quartile of v by nearest rank.
func quartiles(v []float64) (lo, hi float64) { return goodSide(v, 4) }

// goodSide returns the values 1/n of the way into v from either end, by
// nearest rank.
func goodSide(v []float64, n int) (lo, hi float64) {
	s := sorted(v)
	i := (len(s) - 1) / n
	return s[i], s[len(s)-1-i]
}

func perWindow(ws []window, f func(window) float64) []float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return v
}

// result is everything one workload reported.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Windows   int                `json:"windows"` // timed windows behind each end-to-end value
	Samples   int                `json:"samples"` // latency samples per window (median)
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Problems lists violated invariants (replay check, idle layers not
	// idle, ...); any makes the run incorrect.
	Problems []string `json:"problems,omitempty"`
}

func (r *result) count(ws []window) {
	for _, w := range ws {
		r.Attempted += w.ops
		r.Failed += w.failed
	}
	r.Windows = len(ws)
	r.Samples = int(median(perWindow(ws, func(w window) float64 { return float64(len(w.lat)) })))
}

func (r *result) problem(format string, a ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// measureSetup builds the workload cold, discards the first build, and keeps
// building until cfg.setupRuns builds were timed and they add up to
// setupMinTotal. It returns the last instance, the build time (the builds'
// lower quartile, for undisturbed's reason) and the median heap a build left
// live.
func measureSetup(s *spec, cfg config) (*instance, float64, float64, error) {
	var secs, heaps []float64
	var in *instance
	var total time.Duration
	for i := 0; ; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		runtime.GC() // the previous build's garbage is not this build's cost
		t0 := time.Now()
		var err error
		if in, err = build(s, cfg.seed, nil); err != nil {
			return nil, 0, 0, err
		}
		d := time.Since(t0)
		if i == 0 && cfg.setupRuns > 0 {
			continue
		}
		secs = append(secs, d.Seconds())
		heaps = append(heaps, heapMB())
		total += d
		if n := len(secs); n >= cfg.setupRuns && (total >= setupMinTotal || n >= setupMaxRuns) {
			lo, _ := quartiles(secs) // a decile of five builds would be their minimum
			return in, lo, median(heaps), nil
		}
	}
}

// runEndToEnd is the untraced run: the only source of end-to-end values.
func runEndToEnd(s *spec, cfg config) (*result, error) {
	r := &result{Workload: s.name}
	in, setupS, heap, err := measureSetup(s, cfg)
	if err != nil {
		return nil, err
	}
	defer in.close()
	buf := make([]int64, latBufCap)
	in.warmUp(cfg, buf)
	ws := in.runWindows(cfg, cfg.windows, buf)
	r.count(ws)
	r.EndToEnd = map[string]float64{
		"setup_s":            setupS,
		"setup_heap_mb":      heap,
		"ops_per_s":          undisturbed(perWindow(ws, window.opsPerS), true),
		"op_p50_us":          undisturbed(perWindow(ws, window.p50Us), false),
		"allocs_per_op":      median(perWindow(ws, window.allocsPerOp)),
		"alloc_bytes_per_op": median(perWindow(ws, window.bytesPerOp)),
	}
	in.finish(r)
	return r, nil
}

// finish runs the workload's closing checks.
func (in *instance) finish(r *result) {
	if !in.s.durable {
		return
	}
	ops, err := in.checkReplay()
	r.Attempted += ops
	if err != nil {
		r.Failed += ops
		r.problem("%v", err)
	}
}

// runTraced gives the workload's share of the per-layer metrics: an untraced
// half (the e2e diagnostics and the base for obs.overhead_frac), then a
// rebuild with a fresh registry attached and a traced half.
func runTraced(s *spec, cfg config) (*result, error) {
	r := &result{Workload: s.name, PerLayer: map[string]float64{}}
	buf := make([]int64, latBufCap)
	half := max(cfg.windows/2, 1)

	in, err := build(s, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	in.warmUp(cfg, buf)
	ws := in.runWindows(cfg, half, buf)
	in.close()
	r.count(ws)
	// Tails need every sample, not a window's few.
	var all []int64
	var ops, cycles, pause, wall float64
	for _, w := range ws {
		all = append(all, w.lat...)
		ops += float64(w.ops)
		cycles += float64(w.gcCycles)
		pause += float64(w.gcPause)
		wall += float64(w.wall)
	}
	slices.Sort(all)
	m := r.PerLayer
	m["e2e.op_p90_us"] = quantileUs(all, 0.90)
	m["e2e.op_p99_us"] = quantileUs(all, 0.99)
	m["e2e.op_max_us"] = quantileUs(all, 1)
	m["e2e.gc_cycles_per_kop"] = 1e3 * cycles / ops
	m["e2e.gc_pause_frac"] = pause / wall
	rates := perWindow(ws, window.opsPerS)
	lo, hi := quartiles(rates)
	m["e2e.window_spread_frac"] = (hi - lo) / median(rates)
	untraced := undisturbed(rates, true)

	runtime.GC()
	reg := obs.New()
	if in, err = build(s, cfg.seed, reg); err != nil {
		return nil, err
	}
	defer in.close()
	in.warmUp(cfg, buf)
	in.tr = newTracer()
	before := in.eng.Snapshot()
	ws = in.runWindows(cfg, half, buf)
	after := in.eng.Snapshot()
	tr := in.tr
	in.tr = nil
	r.count(ws)
	ops = 0
	for _, w := range ws {
		ops += float64(w.ops)
	}
	m["obs.overhead_frac"] = 1 - undisturbed(perWindow(ws, window.opsPerS), true)/untraced
	traceMetrics(m, before, after, ops, tr)
	checkLayers(r, s)
	in.finish(r)
	return r, tr.write(cfg.traceDir, s.name, cfg.seed)
}

// traceMetrics reads the layer numbers off the engine's own counters and
// histograms, as before/after deltas around the traced window.
func traceMetrics(m map[string]float64, before, after core.EngineSnapshot, n float64, tr *tracer) {
	// hist gives one histogram series over the traced windows: its mean in us
	// per observation and its total in ns.
	hist := func(name string) (meanUs, sumNs float64) {
		a, b := after.Obs.Histograms[name], before.Obs.Histograms[name]
		if c := a.Count - b.Count; c > 0 {
			return float64(a.Sum-b.Sum) / float64(c) / 1e3, float64(a.Sum - b.Sum)
		}
		return 0, 0
	}
	var reldbNs float64
	for metric, series := range map[string]string{
		"reldb.stmt_us":       "quark_reldb_stmt_ns",
		"reldb.tx_prepare_us": "quark_reldb_tx_prepare_ns",
		"reldb.tx_commit_us":  "quark_reldb_tx_commit_ns",
	} {
		mean, sum := hist(series)
		m[metric] = mean
		reldbNs += sum
	}
	for metric, series := range map[string]string{
		"core.fire_us":           "quark_core_fire_ns",
		"outbox.append_us":       "quark_outbox_append_ns",
		"outbox.fsync_us":        "quark_outbox_fsync_ns",
		"outbox.sink_us":         "quark_outbox_sink_ns",
		"dispatch.queue_wait_us": "quark_dispatch_queue_wait_ns",
		"dispatch.run_us":        "quark_dispatch_run_ns",
	} {
		m[metric], _ = hist(series)
	}
	a, b := after.Stats, before.Stats
	m["reldb.rows_read_per_op"] = float64(a.DB.RowsRead-b.DB.RowsRead) / n
	m["reldb.index_lookups_per_op"] = float64(a.DB.IndexLookups-b.DB.IndexLookups) / n
	m["reldb.full_scans_per_op"] = float64(a.DB.FullScans-b.DB.FullScans) / n
	m["core.fires_per_op"] = float64(a.Fires-b.Fires) / n
	m["core.actions_per_op"] = float64(a.Actions-b.Actions) / n
	m["core.groups"] = float64(a.Groups)
	m["core.sql_triggers"] = float64(a.SQLTriggers)
	m["dispatch.max_depth"] = float64(a.Dispatch.MaxDepth)
	hits := float64(after.Obs.Counters["quark_core_plan_cache_hits_total"])
	misses := float64(after.Obs.Counters["quark_core_plan_cache_misses_total"])
	m["core.plan_cache_hit_frac"] = 0
	if hits+misses > 0 {
		m["core.plan_cache_hit_frac"] = hits / (hits + misses)
	}
	// Self time of core: the benchmark's write span minus the intervals
	// reldb timed inside it (its children).
	m["core.self_us"] = (tr.totalNs("write") - reldbNs) / n / 1e3
}

// checkLayers asserts the "works in one workload, idle in another" property
// the workloads were chosen for.
func checkLayers(r *result, s *spec) {
	m := r.PerLayer
	switch s.name {
	case "paper-default":
		for _, name := range []string{"outbox.append_us", "outbox.sink_us", "dispatch.queue_wait_us", "dispatch.run_us", "dispatch.max_depth", "reldb.full_scans_per_op"} {
			if m[name] != 0 {
				r.problem("%s = %g on paper-default, want 0", name, m[name])
			}
		}
	case "durable-delivery":
		if m["core.actions_per_op"] != 20 {
			r.problem("core.actions_per_op = %g on durable-delivery, want 20", m["core.actions_per_op"])
		}
	}
}

// span is one interval the benchmark recorded around a call into the engine.
type span struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for an op's root span
	Op      int64  `json:"op"`     // shared by the spans of one op
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the traced window's spans in memory until the run ends. A nil
// tracer records nothing and reads no clock.
type tracer struct {
	t0    time.Time
	op    int64
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	if parent < 0 {
		t.op++
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].EndNs = int64(time.Since(t.t0))
	}
}

func (t *tracer) totalNs(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns)
}

func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
