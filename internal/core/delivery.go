package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quark/internal/dispatch"
	"quark/internal/obs"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/wire"
)

// delivery is where an engine's activations go once a firing detected
// them: onto the dispatcher's queue, or inline without one; and, with an
// outbox, into its log first. Engines that share one (ShareDelivery) share
// the dispatcher's per-trigger lanes, the log and the stripes, so a
// trigger firing on several of them keeps one FIFO order and one log
// order.
type delivery struct {
	// dispatcher, when non-nil, runs action callbacks asynchronously; nil
	// means inline (synchronous) delivery.
	dispatcher atomic.Pointer[dispatch.Dispatcher]

	// ob, when non-nil, makes delivery durable: every activation is
	// appended to the outbox log before it is delivered (inline or via the
	// dispatcher) and acknowledged only after the sink accepted it.
	ob atomic.Pointer[outboxState]

	// stripes are per-trigger mutexes (by name hash) held across a wave's
	// append and enqueue, so log order always agrees with lane order for
	// any one trigger; without them two statements on disjoint tables
	// activating the same trigger could enqueue in the opposite order of
	// their appends, and a replay would then reorder that trigger's
	// deliveries. Striping (rather than one global mutex) keeps a writer
	// parked on a full dispatch queue from stalling unrelated triggers'
	// durable deliveries — cross-trigger order carries no guarantee anyway.
	stripes [64]sync.Mutex // at most 64: a wave tracks the stripes it holds in one uint64
}

// outboxState pairs the durable log with the sink consuming it.
type outboxState struct {
	log  *outbox.Log
	sink outbox.Sink // nil: deliver to the registered action functions
}

// ShareDelivery makes e deliver through with's delivery: its dispatcher,
// outbox and stripes, as enabled now or later on any engine sharing them.
// The sharded engine calls it on every shard with the first, so per-trigger
// lanes and log order span the fleet, and enabling, draining or closing
// delivery on one shard does it for all. Call it before e fires or enables
// delivery itself.
func (e *Engine) ShareDelivery(with *Engine) { e.dl = with.dl }

// EnableAsyncDispatch switches action delivery to a bounded-queue worker
// pool: trigger detection keeps running inline under the firing
// statement's locks, but each activation is enqueued as a delivery
// (per-trigger FIFO; distinct triggers fan out across workers) instead of
// invoked inline. cfg selects the queue capacity and worker count; a
// writer whose wave finds the queue full waits for space. Call
// Drain to wait for all queued deliveries (a barrier, e.g. before
// asserting on side effects) and Close to shut the pool down. Returns an
// error if async dispatch is already enabled.
func (e *Engine) EnableAsyncDispatch(cfg dispatch.Config) error {
	d := dispatch.New(cfg)
	if !e.dl.dispatcher.CompareAndSwap(nil, d) {
		_ = d.Close() // lost the race: stop the freshly started pool
		return fmt.Errorf("core: async dispatch already enabled")
	}
	if m := e.obsp.Load(); m != nil {
		d.AttachObs(m.reg)
	}
	return nil
}

// Drain blocks until every queued async delivery has completed; it is a
// no-op in synchronous mode. With a quiesced writer side, the engine's
// observable side effects after Drain are identical to synchronous mode.
func (e *Engine) Drain() {
	if d := e.dl.dispatcher.Load(); d != nil {
		d.Drain()
	}
}

// Close drains and stops the async dispatcher, reverting the engine — and
// every engine sharing its delivery — to inline delivery. The dispatcher
// is closed *before* the engine reverts to inline mode, so a statement
// racing with Close either enqueues (and its delivery drains), observes a
// delivery rejection (ErrClosed) as its statement error, or — once the
// pool has fully drained and stopped — delivers inline; per-trigger
// exclusivity is never violated. Safe to call on a synchronous engine;
// idempotent.
func (e *Engine) Close() error {
	d := e.dl.dispatcher.Load()
	if d == nil {
		return nil
	}
	err := d.Close() // blocks until queued deliveries drain and workers exit
	e.dl.dispatcher.CompareAndSwap(d, nil)
	return err
}

// EnableOutbox makes action delivery durable (transactional-outbox
// pattern): every activation is serialized through the wire codec and
// appended to lg *before* it is delivered, and acknowledged only after
// delivery succeeded. A crash — queued deliveries lost with the process,
// a sink outage, a statement aborted by an inline delivery error — leaves
// the unacknowledged records in the log, and outbox.(*Log).Replay on the
// next start re-drives exactly those through the sink in log order, so
// delivery is at-least-once with per-trigger FIFO preserved end to end.
//
// sink is the consumer: an outbox.SinkFunc, FileSink, PartitionedSink, or
// any external transport. A nil sink delivers to the registered action
// functions, making the outbox a durability layer under the existing
// in-process actions.
//
// The engine does not own lg: the caller opens it (recovering any
// previous run's records), replays, enables, and closes it after
// Engine.Close. Returns an error if an outbox is already enabled.
func (e *Engine) EnableOutbox(lg *outbox.Log, sink outbox.Sink) error {
	if lg == nil {
		return fmt.Errorf("core: EnableOutbox requires a log")
	}
	if !e.dl.ob.CompareAndSwap(nil, &outboxState{log: lg, sink: sink}) {
		return fmt.Errorf("core: outbox already enabled")
	}
	if m := e.obsp.Load(); m != nil {
		lg.AttachObs(m.reg)
	}
	return nil
}

// stage puts a firing's activations of g's action on its wave. A
// statement-level firing stages on the statement's wave and runs it at
// once; a firing of a commit's prepare phase stages on the commit's wave,
// which the transaction runs at commit. Each Invocation is an immutable
// snapshot — node bindings and argument values are materialized XDM
// values — so a queued delivery never touches live engine or database
// state.
func (e *Engine) stage(ctx *reldb.FireContext, g *group, invs []Invocation) error {
	if len(invs) == 0 || ctx.Batch != nil && ctx.Batch.Silent {
		// Defense in depth: no activation of a silent wave may ever reach a
		// sink, whatever body produced it.
		return nil
	}
	g.stats.activations.Add(int64(len(invs)))
	if ctx.Stage == nil {
		w := &e.statementEval(ctx).wave
		w.e = e
		w.add(g.actionFn, invs)
		return w.run()
	}
	e.commitWave(ctx).add(g.actionFn, invs)
	return nil
}

// commitWave returns the wave of the commit ctx prepares, staging its run
// with the transaction on first use: a commit stages nothing else.
func (e *Engine) commitWave(ctx *reldb.FireContext) *wave {
	st := batchStateOf(ctx.Batch)
	if st.wave.e == nil {
		st.wave.e = e
		ctx.Stage(st.wave.run)
	}
	return &st.wave
}

// wave is the one path every activation takes: the activations of one
// commit — or, for a statement-level write, of one plan firing — staged in
// order and run together. With an outbox, a wave's records are appended as
// ONE contiguous write (and at most one fsync), so they reach the log all
// or none, and the wave runs under the stripes of every trigger it touches,
// taken in index order so concurrent waves can never deadlock. Holding a
// trigger's stripe across append and enqueue keeps the log's sequence
// order and the dispatcher's lane order in agreement — the property that
// makes a replay reproduce live per-trigger order. In inline
// (no-dispatcher) mode the stripes are held across the deliveries
// themselves: concurrent disjoint-table statements can activate the same
// trigger, and the Sink contract (one at a time, in log order, per
// trigger) must hold there too; a callback re-entering the engine (always
// forbidden, see the Engine doc) deadlocks on its stripe instead of
// racing.
//
// A wave stages each activation as the task that delivers it. A
// statement's wave lives on its evaluation context and a commit's on its
// batch state. A run that logs or queues hands the wave's tasks to the log
// and the dispatcher, which keep them by pointer, and the wave grows a
// fresh slab for its next firing; nothing recycles a slab that was handed
// on, so a record a sink retains stays valid (and keeps its slab alive).
// An inline run without a log keeps the slab: nothing outlives it.
type wave struct {
	e     *Engine
	tasks []task
	// baselines publish MATERIALIZED groups' diff snapshots when a commit's
	// wave runs, before any of its deliveries can fail.
	baselines []func()
	// span, when non-nil, is the committing handle's "commit" phase span:
	// the wave's group append and inline deliveries trace as its children.
	span *obs.Span
}

// add stages one firing's activations of the action fnName.
func (w *wave) add(fnName string, invs []Invocation) {
	fn := w.e.action(fnName)
	w.tasks = slices.Grow(w.tasks, len(invs))
	for _, inv := range invs {
		w.tasks = append(w.tasks, task{e: w.e, fn: fn, fnName: fnName,
			rec: wire.Record{Trigger: inv.Trigger, Event: inv.Event, Old: inv.Old, New: inv.New, Args: inv.Args}})
	}
}

// invocations returns the staged activations, as the prepare check sees
// them.
func (w *wave) invocations() []Invocation {
	if len(w.tasks) == 0 {
		return nil
	}
	invs := make([]Invocation, len(w.tasks))
	for i := range w.tasks {
		invs[i] = invocationOf(&w.tasks[i].rec)
	}
	return invs
}

// run publishes the wave's baselines, then delivers its activations in
// staging order, and empties it. With an outbox it first group-appends
// their records; each delivery acknowledges its own. With a dispatcher it
// queues them; without one it runs them inline, where an action's error
// fails the statement or commit, AFTER-trigger style. Async action errors
// cannot reach the writer (its statement already returned): the dispatcher
// counts them and reports them to its OnError hook. An enqueue error (a
// closed dispatcher) does surface to the writer.
// A delivery error aborts the rest of the wave; with an outbox its records
// are already durable and unacknowledged, so a replay finishes what the
// aborted wave did not.
func (w *wave) run() error {
	defer w.reset()
	for _, publish := range w.baselines {
		publish()
	}
	tasks := w.tasks
	if len(tasks) == 0 {
		return nil
	}
	e := w.e
	ob, d := e.dl.ob.Load(), e.dl.dispatcher.Load()
	if ob != nil || d != nil {
		w.tasks = nil // the log and the queue keep these
	}
	if ob != nil {
		held, err := w.append(ob, tasks)
		if err != nil {
			return err
		}
		defer e.dl.unlock(held)
	}
	for i := range tasks {
		t := &tasks[i]
		if d != nil {
			if err := d.Enqueue(dispatch.Delivery{Trigger: t.rec.Trigger, Task: t}); err != nil {
				return fmt.Errorf("core: dispatching action %s of trigger %s: %w", t.fnName, t.rec.Trigger, err)
			}
			continue
		}
		// An inline delivery traces under the commit span; a queued one's
		// latency lives in the dispatch histograms instead, since it
		// outlives the commit span.
		dsp := w.span.Child("deliver")
		dsp.SetAttr("trigger", t.rec.Trigger)
		err := t.Run()
		if err != nil {
			dsp.SetAttr("err", err.Error())
		}
		dsp.End()
		if err != nil {
			return fmt.Errorf("core: action %s of trigger %s: %w", t.fnName, t.rec.Trigger, err)
		}
	}
	return nil
}

// append takes the stripes of every trigger the tasks name, then appends
// their records to the log in one group write. It returns the stripes it
// holds (bit i: dl.stripes[i]); on an error it has released them.
func (w *wave) append(ob *outboxState, tasks []task) (uint64, error) {
	dl := w.e.dl
	var held uint64
	recs := make([]*wire.Record, len(tasks))
	for i := range tasks {
		tasks[i].ob = ob
		recs[i] = &tasks[i].rec
		held |= 1 << stripeOf(tasks[i].rec.Trigger)
	}
	for s := held; s != 0; s &= s - 1 {
		dl.stripes[bits.TrailingZeros64(s)].Lock()
	}
	asp := w.span.Child("outbox-append")
	if asp != nil {
		asp.SetAttr("records", strconv.Itoa(len(recs)))
	}
	if _, err := ob.log.AppendBatch(recs); err != nil {
		dl.unlock(held)
		err = fmt.Errorf("core: outbox group append of %d records: %w", len(recs), err)
		asp.SetAttr("err", err.Error())
		asp.End()
		return 0, err
	}
	asp.End()
	return held, nil
}

// unlock releases the stripes held names (bit i: dl.stripes[i]).
func (dl *delivery) unlock(held uint64) {
	for s := held; s != 0; s &= s - 1 {
		dl.stripes[bits.TrailingZeros64(s)].Unlock()
	}
}

// reset empties the wave, keeping its buffers: what it delivered is the
// actions' now, not the wave's.
func (w *wave) reset() {
	clear(w.tasks)
	clear(w.baselines)
	w.tasks, w.baselines, w.span = w.tasks[:0], w.baselines[:0], nil
}

// stripeOf returns a trigger's index in delivery.stripes.
func stripeOf(trigger string) int {
	h := uint32(2166136261)
	for i := 0; i < len(trigger); i++ {
		h = (h ^ uint32(trigger[i])) * 16777619 // FNV-1a
	}
	return int(h % uint32(len(delivery{}.stripes)))
}

// task is one staged delivery: its activation as a record, and what
// delivering it takes. Without an outbox (ob nil) the record is never
// logged and only carries the activation to the action.
type task struct {
	rec    wire.Record
	e      *Engine
	ob     *outboxState // set when a run appends the record
	fn     ActionFunc
	fnName string
}

// Run implements dispatch.Task: it delivers the activation to the action,
// or with an outbox through the sink (the registered action when the sink
// is nil), then acknowledges its record. A failed durable delivery returns
// the sink's or action's error and leaves the record unacknowledged, due
// for replay.
func (t *task) Run() error {
	e, ob, rec := t.e, t.ob, &t.rec
	e.actsRun.Add(1)
	if ob == nil {
		return t.fn(invocationOf(rec))
	}
	var start time.Time
	m := e.obsp.Load()
	if m != nil {
		start = time.Now()
	}
	var err error
	if ob.sink != nil {
		err = ob.sink.Deliver(rec)
	} else {
		err = t.fn(invocationOf(rec))
	}
	if m != nil {
		m.sink.Since(start)
	}
	if err != nil {
		return err
	}
	return ob.log.Ack(rec.Seq)
}

// invocationOf returns the activation a record carries.
func invocationOf(rec *wire.Record) Invocation {
	return Invocation{Trigger: rec.Trigger, Event: rec.Event, Old: rec.Old, New: rec.New, Args: rec.Args}
}
