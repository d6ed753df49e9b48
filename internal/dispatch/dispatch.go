// Package dispatch decouples trigger actions from the firing statement:
// a bounded-queue worker pool that runs user-supplied action callbacks off
// the writer's critical path. The paper's translation makes trigger
// *detection* cheap — one statement-level SQL trigger per group — but the
// user-visible *action* is an external function call (Section 2.2), and a
// slow notification sink run inline stalls every writer whose statement
// fired it. The dispatcher restores the paper's asymmetry: detection stays
// inline under the statement's locks, delivery happens elsewhere.
//
// Ordering guarantee: deliveries for the same trigger never reorder and
// never run concurrently (per-trigger FIFO "lanes", matching enqueue
// order, which the engine ties to commit order via its table locks);
// deliveries for distinct triggers fan out across the worker pool.
//
// Backpressure: the queue capacity bounds the total number of queued
// deliveries across all lanes — and with it the queue's memory: queued
// deliveries live in one dispatcher-wide slot array that grows to the
// high-water queue depth and never past QueueCap, however many lanes there
// are. Each lane is a FIFO threaded through that array, and a slot freed by
// a worker is reused by the next enqueue, so a warmed queue enqueues
// without allocating. On a full queue Enqueue blocks until a worker frees
// a slot, so writers throttle to the sink rate and no delivery is dropped.
package dispatch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quark/internal/obs"
)

// Policy names the backpressure behavior of Enqueue on a full queue.
type Policy uint8

// Block waits until queue space frees up (or the dispatcher closes). It is
// the only policy.
const Block Policy = 0

// ErrClosed is returned by Enqueue once the dispatcher is closed.
var ErrClosed = errors.New("dispatch: dispatcher closed")

// Task is the body of a delivery: Run invokes the action. A pointer into a
// caller's slab of tasks satisfies it without allocating per delivery.
type Task interface {
	Run() error
}

// Func adapts a function to Task.
type Func func() error

// Run implements Task.
func (f Func) Run() error { return f() }

// Delivery is one fired trigger activation: the trigger it belongs to (the
// FIFO lane key) and the task that invokes the action. The task must be
// self-contained: it holds an immutable snapshot of everything the action
// needs (node bindings, evaluated arguments), so workers never touch
// engine or database state.
type Delivery struct {
	Trigger string
	Task    Task
	// Run is the function form of the body, for callers written before
	// Task: Enqueue turns it into a Func task when Task is nil.
	//
	// Deprecated: set Task; Func adapts a function.
	Run func() error
	// at is the enqueue timestamp, stamped by Enqueue only while
	// observability is attached; the worker turns it into the queue-wait
	// histogram. Unstamped (zero) deliveries record nothing.
	at time.Time
}

// Config parameterizes a Dispatcher.
type Config struct {
	// Workers is the pool size; defaults to runtime.NumCPU().
	Workers int
	// QueueCap bounds the queued (not yet running) deliveries across all
	// lanes; defaults to 1024.
	QueueCap int
	// Policy is applied by Enqueue when the queue is full; Block is the
	// only one.
	Policy Policy
	// OnError, when set, observes action errors (and recovered panics).
	// It is called outside the dispatcher's locks and must not call back
	// into the dispatcher's blocking operations for the same trigger.
	OnError func(trigger string, err error)
}

// Stats is a snapshot of dispatcher-wide counters.
type Stats struct {
	Enqueued     int64 // deliveries accepted into the queue
	Completed    int64 // deliveries whose action finished (ok or error)
	ActionErrors int64 // actions that returned an error or panicked
	Panics       int64 // actions that panicked (a subset of ActionErrors)
	Queued       int64 // current queue depth (waiting, not running)
	Running      int64 // deliveries executing right now
	MaxDepth     int64 // high-water mark of Queued
	Lanes        int   // live per-trigger lanes
}

// lane is one trigger's FIFO delivery queue: a list of slots from head to
// tail, linked through slot.next. Invariants (under d.mu): inRunq implies
// n > 0; at most one worker has active set, so a lane's deliveries never
// run concurrently.
type lane struct {
	head, tail int32 // slot indexes, meaningful while n > 0
	n          int   // queued deliveries
	active     bool
	inRunq     bool
}

// slot holds one queued delivery. next links the slot to the next one in
// its lane, or, while the slot is free, to the next free slot.
type slot struct {
	dl   Delivery
	next int32
}

// noSlot ends a lane and the free list.
const noSlot = -1

// Dispatcher runs deliveries on a worker pool with per-trigger FIFO
// ordering and a bounded global queue. All methods are safe for
// concurrent use.
type Dispatcher struct {
	cfg Config

	mu    sync.Mutex
	work  *sync.Cond // a lane became runnable, or the dispatcher is closing
	space *sync.Cond // a queue slot freed (enqueuers of a full queue wait here)
	idle  *sync.Cond // a delivery completed (Drain/DrainTrigger wait here)

	lanes map[string]*lane
	slots []slot // queued deliveries of every lane; len ≤ QueueCap
	free  int32  // head of the free slot list
	// runq is a ring of the runnable lanes, served round-robin: rqLen of
	// them from rqHead on. A runnable lane has a queued delivery, so the
	// ring, like slots, holds at most QueueCap.
	runq    []*lane
	rqHead  int
	rqLen   int
	queued  int
	running int
	closed  bool
	stats   Stats

	// om, when non-nil, holds resolved metric handles (see AttachObs).
	// Nil is the disabled fast path: no clock reads on enqueue or run.
	om atomic.Pointer[dispObs]

	wg sync.WaitGroup
}

// dispObs is the resolved metric-handle set for one dispatcher.
type dispObs struct {
	wait *obs.Histogram // quark_dispatch_queue_wait_ns: enqueue → worker pickup
	run  *obs.Histogram // quark_dispatch_run_ns: action execution time
}

// AttachObs resolves the dispatcher's latency histograms and registers
// snapshot-time collectors for its counters and queue depths. Attaching
// again (same or different registry) replaces the handles; AttachObs(nil)
// detaches the hot-path handles (the registered collectors keep reading
// live stats, which stay cheap). Idempotent and safe during operation.
func (d *Dispatcher) AttachObs(reg *obs.Registry) {
	if reg == nil {
		d.om.Store(nil)
		return
	}
	d.om.Store(&dispObs{
		wait: reg.Histogram("quark_dispatch_queue_wait_ns", nil),
		run:  reg.Histogram("quark_dispatch_run_ns", nil),
	})
	reg.Func("quark_dispatch_enqueued_total", func() int64 { return d.Stats().Enqueued })
	reg.Func("quark_dispatch_completed_total", func() int64 { return d.Stats().Completed })
	reg.Func("quark_dispatch_action_errors_total", func() int64 { return d.Stats().ActionErrors })
	reg.Func("quark_dispatch_panics_total", func() int64 { return d.Stats().Panics })
	reg.GaugeFunc("quark_dispatch_queued", func() int64 { return d.Stats().Queued })
	reg.GaugeFunc("quark_dispatch_running", func() int64 { return d.Stats().Running })
	reg.GaugeFunc("quark_dispatch_queue_max_depth", func() int64 { return d.Stats().MaxDepth })
	reg.GaugeFunc("quark_dispatch_lanes", func() int64 { return int64(d.Stats().Lanes) })
}

// New starts a dispatcher with cfg.Workers goroutines.
func New(cfg Config) *Dispatcher {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	d := &Dispatcher{cfg: cfg, lanes: map[string]*lane{}, free: noSlot}
	d.work = sync.NewCond(&d.mu)
	d.space = sync.NewCond(&d.mu)
	d.idle = sync.NewCond(&d.mu)
	d.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go d.worker()
	}
	return d
}

func (d *Dispatcher) laneOf(name string) *lane {
	ln, ok := d.lanes[name]
	if !ok {
		ln = &lane{}
		d.lanes[name] = ln
	}
	return ln
}

// grownCap is the capacity a full slot array or run queue of capacity n
// grows to: double, never past QueueCap, which bounds both.
func (d *Dispatcher) grownCap(n int) int { return min(max(2*n, 8), d.cfg.QueueCap) }

// push queues dl at the tail of ln in a free slot, taking a new one only
// when none is free.
func (d *Dispatcher) push(ln *lane, dl Delivery) {
	i := d.free
	if i != noSlot {
		d.free = d.slots[i].next
	} else {
		if len(d.slots) == cap(d.slots) {
			d.slots = append(make([]slot, 0, d.grownCap(cap(d.slots))), d.slots...)
		}
		i = int32(len(d.slots))
		d.slots = append(d.slots, slot{})
	}
	d.slots[i] = slot{dl: dl, next: noSlot}
	if ln.n == 0 {
		ln.head = i
	} else {
		d.slots[ln.tail].next = i
	}
	ln.tail = i
	ln.n++
}

// pop removes and returns the delivery at the head of ln (which has one)
// and frees its slot.
func (d *Dispatcher) pop(ln *lane) Delivery {
	i := ln.head
	s := &d.slots[i]
	dl := s.dl
	ln.head = s.next
	ln.n--
	*s = slot{next: d.free} // drop the task so it can be collected
	d.free = i
	return dl
}

// makeRunnable appends ln to the run queue and wakes a worker.
func (d *Dispatcher) makeRunnable(ln *lane) {
	if d.rqLen == len(d.runq) {
		// The ring is full: unroll it into a larger one.
		rq := make([]*lane, d.grownCap(len(d.runq)))
		n := copy(rq, d.runq[d.rqHead:])
		copy(rq[n:], d.runq[:d.rqHead])
		d.runq, d.rqHead = rq, 0
	}
	d.runq[(d.rqHead+d.rqLen)%len(d.runq)] = ln
	d.rqLen++
	ln.inRunq = true
	d.work.Signal()
}

// Enqueue appends a delivery to its trigger's lane, first waiting for a
// free slot while the queue is full. It fails only with ErrClosed, when
// the dispatcher is closed before or while it waits.
func (d *Dispatcher) Enqueue(dl Delivery) error {
	if m := d.om.Load(); m != nil {
		// Stamp before any wait: time spent throttled on a full queue is
		// queue pressure and belongs in the wait histogram.
		dl.at = time.Now()
	}
	if dl.Task == nil && dl.Run != nil {
		dl.Task, dl.Run = Func(dl.Run), nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.queued >= d.cfg.QueueCap && !d.closed {
		d.space.Wait()
	}
	if d.closed {
		return ErrClosed
	}
	ln := d.laneOf(dl.Trigger)
	d.push(ln, dl)
	d.queued++
	d.stats.Enqueued++
	if int64(d.queued) > d.stats.MaxDepth {
		d.stats.MaxDepth = int64(d.queued)
	}
	if !ln.active && !ln.inRunq {
		d.makeRunnable(ln)
	}
	return nil
}

// worker pops one delivery from the head of a runnable lane, runs it, and
// re-queues the lane at the tail if it has more work (round-robin across
// lanes, FIFO within a lane). After Close it keeps draining until the run
// queue is empty, then exits.
func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for d.rqLen == 0 && !d.closed {
			d.work.Wait()
		}
		if d.rqLen == 0 { // closed and drained
			d.mu.Unlock()
			return
		}
		ln := d.runq[d.rqHead]
		d.runq[d.rqHead] = nil
		d.rqHead = (d.rqHead + 1) % len(d.runq)
		d.rqLen--
		ln.inRunq = false
		dl := d.pop(ln)
		ln.active = true
		d.queued--
		d.running++
		d.space.Signal() // one slot freed: one waiter can take it
		d.mu.Unlock()

		m := d.om.Load()
		var runStart time.Time
		if m != nil {
			if !dl.at.IsZero() {
				m.wait.Since(dl.at)
			}
			runStart = time.Now()
		}
		panicked, err := runDelivery(dl)
		if m != nil {
			m.run.Since(runStart)
		}
		if err != nil && d.cfg.OnError != nil {
			// Report before the completion accounting below: the delivery
			// still counts as running, so Drain/DrainTrigger/Close callers
			// observe every OnError for work they waited on.
			d.cfg.OnError(dl.Trigger, err)
		}

		d.mu.Lock()
		d.running--
		d.stats.Completed++
		if err != nil {
			d.stats.ActionErrors++
		}
		if panicked {
			d.stats.Panics++
		}
		ln.active = false
		if ln.n > 0 {
			d.makeRunnable(ln)
		}
		d.idle.Broadcast()
		d.mu.Unlock()
	}
}

// runDelivery shields the pool from a panicking action: inline invocation
// would propagate the panic to the writer, but on a worker it would crash
// the whole process, so it is converted to an error, counted, and
// reported as panicked so the Panics counter can tell crashes apart from
// ordinary action errors.
func runDelivery(dl Delivery) (panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dispatch: action for trigger %s panicked: %v", dl.Trigger, r)
			panicked = true
		}
	}()
	return false, dl.Task.Run()
}

// Drain blocks until every queued delivery has completed and no delivery
// is running. It does not stop producers: it is a barrier, not a shutdown
// (tests and the conformance harness use it to line async output up with
// the synchronous golden log).
func (d *Dispatcher) Drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.queued > 0 || d.running > 0 {
		d.idle.Wait()
	}
}

// DrainTrigger blocks until the named trigger's lane is empty and idle,
// then removes the lane, freeing its bookkeeping. The engine calls this
// from DropTrigger so in-flight deliveries of a dropped trigger complete
// before the drop returns, and nothing leaks.
func (d *Dispatcher) DrainTrigger(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		ln, ok := d.lanes[name]
		if !ok {
			return
		}
		if ln.n == 0 && !ln.active {
			delete(d.lanes, name)
			return
		}
		d.idle.Wait()
	}
}

// Close drains the queue gracefully — workers finish every already-queued
// delivery — rejects new enqueues with ErrClosed (including enqueuers
// already waiting for space), and stops the pool. Idempotent.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return nil
	}
	d.closed = true
	d.work.Broadcast()
	d.space.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
	return nil
}

// Stats returns a snapshot of the dispatcher-wide counters.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.Queued = int64(d.queued)
	st.Running = int64(d.running)
	st.Lanes = len(d.lanes)
	return st
}
