// Package obs is the repo's dependency-free observability kit: atomic
// counters and gauges, fixed-bucket latency histograms with lock-free
// recording, a span API for tracing one transaction through the commit
// pipeline (route → prepare-per-shard → trigger eval → stage →
// group-commit outbox append → ack → sink delivery), a structured event
// ring for state transitions that used to be silent (an outbox's
// torn-tail truncation at recovery), and an HTTP debug server exposing
// all of it as Prometheus text, JSON, and net/http/pprof.
//
// Every method on Counter, Gauge, Histogram, Span, and Registry is safe
// on a nil receiver and does nothing — that nil check IS the disabled
// fast path. Layers keep an atomic pointer to their resolved handles;
// when observability is off the pointer is nil, the instrumentation
// collapses to a branch, and no clock is read.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// and the nil pointer are both ready to use (nil no-ops).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBounds are the histogram upper bounds (nanoseconds) used
// for every latency series in the engine: 1µs up to ~10s in roughly
// 1-2.5-5 steps, which brackets everything from an in-memory index hit
// to a full fsync stall.
var DefaultLatencyBounds = []int64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000, 100_000_000, 250_000_000,
	500_000_000, 1_000_000_000, 2_500_000_000, 10_000_000_000,
}

// Histogram is a fixed-bucket histogram with lock-free recording: one
// atomic add into the bucket whose upper bound first covers the value,
// plus count and sum. Bounds are set at creation and never change, so
// Observe never allocates or locks. Nil-safe.
type Histogram struct {
	bounds  []int64 // sorted upper bounds; values above the last go in the overflow bucket
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	bs := make([]int64, len(bounds))
	copy(bs, bounds)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(int64(d)) }

// Since records the elapsed time from start to now.
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.ObserveN(int64(time.Since(start)))
}

// ObserveN records one raw value (nanoseconds for latency series).
func (h *Histogram) ObserveN(v int64) {
	if h == nil {
		return
	}
	// Binary search the bucket: bounds are small (≤ ~24), so this is a
	// handful of compares with no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is one histogram's point-in-time state. Buckets[i] counts
// observations ≤ Bounds[i]; the final extra bucket is the overflow.
type HistSnapshot struct {
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Registry holds every metric by name plus the event ring and the
// completed-span ring. Get-or-create accessors are cheap enough for
// setup paths; hot paths should resolve their handles once at
// enable time and keep the pointers. All methods are nil-safe: a nil
// registry hands out nil handles, and nil handles no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
	gfuncs   map[string]func() int64

	events eventRing
	spans  spanRing
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
		gfuncs:   make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (pass nil for DefaultLatencyBounds). Bounds
// are fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Func registers a snapshot-time collector: fn is called when the
// registry is scraped or snapshotted, so pre-existing atomic stats
// (reldb scan counters, dispatch queue depths, outbox watermarks) are
// exported without double-instrumenting their hot paths. Re-registering
// a name replaces the collector.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// GaugeFunc registers a snapshot-time collector exported as a gauge
// (instantaneous values: queue depths, watermarks, live lane counts).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gfuncs[name] = fn
}

// Snapshot is the registry's full point-in-time state: every counter,
// gauge, func collector, histogram, and the recent-event tail.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Events     []Event                 `json:"events,omitempty"`
}

// Snapshot captures the registry. Func collectors run inside, so the
// returned map already merges live external stats. Safe to call
// concurrently with recording. Nil registries return an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	gfuncs := make(map[string]func() int64, len(r.gfuncs))
	for k, v := range r.gfuncs {
		gfuncs[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	// Func collectors may take their own locks (e.g. outbox.Stats), so
	// they run outside the registry mutex.
	for k, fn := range funcs {
		s.Counters[k] = fn()
	}
	for k, fn := range gfuncs {
		s.Gauges[k] = fn()
	}
	s.Events = r.Events()
	return s
}
