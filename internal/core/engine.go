// Package core is the system of Figure 6: an active XML-publishing engine
// that accepts XML views (XQuery over the default view) and XML triggers,
// translates the triggers into SQL statement triggers on the underlying
// relational engine, and activates trigger actions with OLD_NODE/NEW_NODE
// parameters when base updates affect the monitored view nodes.
//
// Triggers that differ only in constants form one group, and each group
// runs one of two translations (Section 6): ModeUngrouped (one SQL trigger
// set per XML trigger) or ModeGrouped (the members share one SQL trigger
// via a constants table, Section 5.1). The paper's third translation
// (Section 5.2: old aggregates derived from the new ones and the transition
// tables) is not reproduced as a mode: at every figure point it ran
// GROUPED's plan, and no figure or benchmark workload reaches the rewrite. A
// third mode, ModeMaterialized, implements the strawman the paper argues
// against — materialize the view and diff it on every update — and is kept
// as the correctness oracle tests compare the translations against.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quark/internal/affected"
	"quark/internal/compile"
	"quark/internal/dispatch"
	"quark/internal/events"
	"quark/internal/grouping"
	"quark/internal/obs"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/trigger"
	"quark/internal/wire"
	"quark/internal/xdm"
	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// Mode is a trigger group's translation strategy. NewEngine's mode is the
// one new groups start in; SetGroupModes and Replan change it per group.
type Mode uint8

// Translation modes. The values are persisted (a sharded fleet's mode
// checkpoint stores them), so they never change: 2 is retired.
const (
	ModeUngrouped    Mode = 0
	ModeGrouped      Mode = 1
	ModeMaterialized Mode = 3
)

func (m Mode) String() string {
	switch m {
	case ModeUngrouped:
		return "UNGROUPED"
	case ModeGrouped:
		return "GROUPED"
	case ModeMaterialized:
		return "MATERIALIZED"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Modes lists every mode, in value order.
var Modes = []Mode{ModeUngrouped, ModeGrouped, ModeMaterialized}

// Valid reports whether m is one of Modes.
func (m Mode) Valid() bool { return slices.Contains(Modes, m) }

// Invocation is passed to an action function when its trigger fires.
type Invocation struct {
	Trigger string
	Event   reldb.Event
	Old     *xdm.Node // nil for INSERT events
	New     *xdm.Node // nil for DELETE events
	Args    []xdm.Value
}

// ActionFunc is a registered external function (paper Section 2.2: "the
// action is a call to an external function").
type ActionFunc func(inv Invocation) error

// Stats reports engine state and activity. Async and Dispatch are only
// meaningful after EnableAsyncDispatch: Dispatch carries the dispatcher's
// queue counters (enqueued, completed, dropped, max depth, action errors).
// Outbox and OutboxLog are only meaningful after EnableOutbox: OutboxLog
// carries the durable log's append/ack counters. DB folds in the
// relational layer's statement and access-path counters, so one Stats
// call covers every layer under the engine.
type Stats struct {
	XMLTriggers int
	SQLTriggers int
	Groups      int
	Fires       int64
	Actions     int64
	DB          reldb.Stats
	Async       bool
	Dispatch    dispatch.Stats
	Outbox      bool
	OutboxLog   outbox.Stats
	// PerGroup breaks the engine down by trigger group: mode, members,
	// firings, eval latency and delta sizes. The planner and /snapshot
	// read the same rows.
	PerGroup []GroupStat `json:",omitempty"`
}

// Engine ties the pipeline together over one relational database.
//
// Concurrency model: e.mu (an RWMutex) guards only engine metadata —
// registered views, triggers, groups, compiled plans, and the derived
// lock-planning tables. Data access is coordinated by per-table
// read/write locks: a statement write-locks its target table and
// read-locks every table the installed trigger plans for that target may
// read; EvalView read-locks only the tables its view reads. Concurrent
// readers therefore never serialize behind each other, and only
// serialize behind writers that touch overlapping tables. Lock
// acquisition always follows the global table-name order, which makes
// cycles (and hence deadlocks) impossible.
//
// Action delivery: by default (synchronous mode) action callbacks run
// inline while the firing statement's locks are held. After
// EnableAsyncDispatch, trigger *detection* still runs inline under the
// statement's locks, but the action callbacks are handed to a bounded
// worker pool (internal/dispatch) with per-trigger FIFO ordering, so a
// slow sink no longer stalls the writer. In either mode action callbacks
// must not call back into the engine.
type Engine struct {
	mu   sync.RWMutex
	db   *reldb.DB
	comp *compile.Compiler
	mode Mode

	// actions is copy-on-write so trigger firings can read it without
	// taking e.mu (firings run under table locks, not the metadata lock).
	actions atomic.Pointer[map[string]ActionFunc]

	// policy (possibly nil) is consulted by Replan. seedModes pre-assigns
	// modes to groups that do not exist yet (restart adoption: the shard
	// layer replays persisted decisions before triggers are registered).
	policy    ModePolicy
	seedModes map[string]Mode

	triggers map[string]registration
	groups   map[string]*group
	order    []string // group signatures in creation order
	dirty    bool
	// dirtyGroups marks groups to compile at the next flush: new ones, and
	// those whose plans change with their membership (every mode but a
	// built GROUPED group's). The rest keep their plans across flushes.
	dirtyGroups    map[string]bool
	pendingDropSQL []string // SQL triggers of groups that were emptied
	sqlSeq         int

	// Per-table lock manager. lockOrder is the global acquisition order;
	// readSets maps a write target to the tables its installed trigger
	// bodies may read (recomputed at flush); fkReads maps a write target
	// to the tables its foreign-key validation reads (static, from the
	// schema), which must be locked even when no trigger is installed.
	tableLocks map[string]*sync.RWMutex
	lockOrder  []string
	readSets   map[string][]string
	fkReads    map[string][]string

	// dispatcher, when non-nil, runs action callbacks asynchronously; nil
	// means inline (synchronous) delivery with identical semantics to the
	// pre-dispatch engine.
	dispatcher atomic.Pointer[dispatch.Dispatcher]

	// ob, when non-nil, makes delivery durable: every activation is
	// appended to the outbox log before it is delivered (inline or via the
	// dispatcher) and acknowledged only after the sink accepted it.
	// obStripes stripes a per-trigger mutex (by name hash) held across
	// append+enqueue so log order always agrees with lane order for any
	// one trigger; without it two statements on disjoint tables activating
	// the same trigger could enqueue in the opposite order of their
	// appends, and a replay would then reorder that trigger's deliveries.
	// Striping (rather than one global mutex) keeps a writer parked in
	// Block-policy backpressure from stalling unrelated triggers' durable
	// deliveries — cross-trigger order carries no guarantee anyway. The
	// stripe set is per-engine by default; engines sharing one outbox log
	// (shards) share one stripe set via EnableOutboxShared, extending the
	// invariant across engines.
	ob        atomic.Pointer[outboxState]
	obStripes *DeliveryStripes

	// dispShared marks the dispatcher as externally owned (attached via
	// AttachSharedDispatcher): Close drains it but must not stop it.
	dispShared atomic.Bool

	// prepCheck, when set, vets every batch transaction at the end of its
	// prepare phase (BatchHandle.Prepare) with the staged invocation set.
	// An error fails the prepare — before anything was delivered — so a
	// coordinator can roll every participant back. It doubles as
	// admission control and as the failure-injection seam the conformance
	// suite uses to prove all-or-nothing cross-shard commits.
	prepCheck atomic.Pointer[func([]Invocation) error]

	fires   atomic.Int64
	actsRun atomic.Int64

	// evals lends statements and commits their evaluation contexts.
	evals evalPool

	// obsp, when non-nil, holds the resolved metric handles of an attached
	// observability registry (EnableObs). Nil means disabled: every
	// instrumented path reduces to one atomic load and a branch.
	obsp atomic.Pointer[engineObs]

	// shadow, when non-nil, re-executes every translated plan's rendered
	// SQL on an external backend (internal/relsql) and fails the firing on
	// any result divergence (SetPlanShadow). Nil means disabled: the firing
	// path pays one atomic load and a branch.
	shadow atomic.Pointer[PlanShadow]
}

// DeliveryStripes is the per-trigger mutex set serializing outbox append
// with dispatcher enqueue. Engines that share one outbox log must also
// share one DeliveryStripes so the log-order = lane-order invariant holds
// for a trigger firing on several engines concurrently (the sharded
// engine's case).
type DeliveryStripes struct {
	mu [64]sync.Mutex // at most 64: a deliveryWave tracks the stripes it holds in one uint64
}

// NewDeliveryStripes allocates a stripe set for engines sharing an outbox.
func NewDeliveryStripes() *DeliveryStripes { return &DeliveryStripes{} }

// outboxState pairs the durable log with the sink consuming it.
type outboxState struct {
	log  *outbox.Log
	sink outbox.Sink // nil: deliver to the registered action functions
}

// registration is one registered XML trigger: its group and its row there.
type registration struct {
	g *group
	m *grouping.Member
}

// group is the set of triggers with one structural signature. Each group
// carries its own translation mode: the engine's mode only seeds it, and
// SetGroupModes or Replan change it at runtime — mixed modes coexist
// because the installed plans, not the engine, decide how a firing
// evaluates.
type group struct {
	sig      string
	mode     Mode
	event    reldb.Event
	view     string
	nav      *compile.NavNode
	actionFn string
	// cond and args are the first member's: every member has their shape,
	// and differs only in constants, which the store holds.
	cond    xquery.Expr
	args    []xquery.Expr
	members *grouping.Store
	// built at flush:
	built    bool
	plans    []*installedPlan
	sqlNames []string
	// stats survive rebuilds and mode switches: the planner wants the
	// group's history, not the current plan's.
	stats groupStats
}

// groupStats are the always-on per-group counters behind GroupStats: the
// planner and the /snapshot surface read the same numbers.
// Plain atomics, recorded on the firing path without any obs registry.
type groupStats struct {
	fires        atomic.Int64 // plan/body evaluations
	evalNS       atomic.Int64 // wall time spent in those evaluations
	deltaRows    atomic.Int64 // transition rows seen across firings
	activations  atomic.Int64 // member activations delivered or staged
	rowsReused   atomic.Int64 // xqgm.EvalStats.RowsReused summed over those evaluations
	joinsSkipped atomic.Int64 // xqgm.EvalStats.JoinsSkipped summed likewise
	nodesBuilt   atomic.Int64 // xqgm.EvalStats.NodesBuilt summed likewise
	opsShared    atomic.Int64 // xqgm.EvalStats.OpsShared summed likewise
	builds       atomic.Int64 // plan (re)compilations, incl. mode switches
}

// groupBuild is one group's compiled-but-not-installed translation: the
// plans plus the SQL triggers to create. Compilation is side-effect-free
// (nothing is registered with the database until installGroup), which is
// what makes a prepared mode switch abortable — discarding a build leaves
// the engine byte-identical.
type groupBuild struct {
	mode     Mode
	plans    []*installedPlan
	installs []pendingTrigger
}

// pendingTrigger is one SQL trigger a groupBuild wants installed.
type pendingTrigger struct {
	table  string
	event  reldb.Event
	body   func(*reldb.FireContext) error
	prefix string // sql-trigger name prefix: "xmlTrig" or "matTrig"
}

// installedPlan is one compiled SQL-trigger body. Firings run without the
// metadata lock: what a plan reads is immutable after flush, except a
// grouped plan's store, which the firing read-locks.
type installedPlan struct {
	table string
	an    *affected.ANGraph
	root  *xqgm.Operator
	args  []xqgm.Expr // the group's action arguments: a member's constants are input 1
	// A GROUPED plan's rows name their members in the store at trigIDsCol;
	// an UNGROUPED plan is member's alone.
	store      *grouping.Store
	trigIDsCol int
	member     *grouping.Member
	rendered   atomic.Pointer[renderedSQL] // see sql
	keyCols    [2][]int                    // the affected node's canonical key in a row: NEW side, OLD side

	// lastBatch dedups plan evaluation within one Tx.Commit (the same
	// plan is shared by this table's INSERT/UPDATE/DELETE triggers).
	lastBatch int64
}

// NewEngine creates an engine over db whose new trigger groups start in
// the given translation mode.
func NewEngine(db *reldb.DB, mode Mode) *Engine {
	e := &Engine{
		db:          db,
		comp:        compile.New(db.Schema()),
		mode:        mode,
		triggers:    map[string]registration{},
		groups:      map[string]*group{},
		dirtyGroups: map[string]bool{},
		tableLocks:  map[string]*sync.RWMutex{},
		readSets:    map[string][]string{},
	}
	acts := map[string]ActionFunc{}
	e.actions.Store(&acts)
	e.obStripes = NewDeliveryStripes()
	e.evals.db, e.evals.idle = db, maxIdleEvals
	e.fkReads = map[string][]string{}
	for _, t := range db.Schema().Tables() {
		e.tableLocks[t.Name] = &sync.RWMutex{}
		e.lockOrder = append(e.lockOrder, t.Name)
		for _, fk := range t.ForeignKeys {
			e.fkReads[t.Name] = append(e.fkReads[t.Name], fk.RefTable)
		}
	}
	sort.Strings(e.lockOrder)
	return e
}

// acquireLocks takes the listed table locks in global name order (write
// wins when a table is in both sets) and returns the release function.
func (e *Engine) acquireLocks(write, read map[string]bool) func() {
	held := make([]func(), 0, len(write)+len(read))
	for _, t := range e.lockOrder {
		l := e.tableLocks[t]
		switch {
		case write[t]:
			l.Lock()
			held = append(held, l.Unlock)
		case read[t]:
			l.RLock()
			held = append(held, l.RUnlock)
		}
	}
	return func() {
		for i := len(held) - 1; i >= 0; i-- {
			held[i]()
		}
	}
}

// lockForWrite locks one statement's footprint: the target table for
// writing plus the tables its installed trigger bodies read and the
// tables foreign-key validation may scan (reldb.checkFK reads the
// referenced table's rows even when no trigger is installed on it).
func (e *Engine) lockForWrite(table string) func() {
	e.mu.RLock()
	write := map[string]bool{table: true}
	unlock := e.acquireLocks(write, e.readFootprint(write))
	e.mu.RUnlock()
	return unlock
}

// readFootprint derives the read-lock set for a statement or batch that
// writes the given tables: everything the installed trigger bodies on
// those tables may read, plus the tables their foreign-key validation
// scans, minus the write set itself. Caller holds e.mu.
func (e *Engine) readFootprint(write map[string]bool) map[string]bool {
	read := map[string]bool{}
	for t := range write {
		for _, r := range e.readSets[t] {
			if !write[r] {
				read[r] = true
			}
		}
		for _, r := range e.fkReads[t] {
			if !write[r] {
				read[r] = true
			}
		}
	}
	return read
}

// lockAllForWrite write-locks every table (used by Batch, whose write
// footprint is unknown until the callback runs).
func (e *Engine) lockAllForWrite() func() {
	e.mu.RLock()
	unlock := e.acquireLocks(allOf(e.lockOrder), nil)
	e.mu.RUnlock()
	return unlock
}

// recomputeReadSets derives, per write-target table, the union of tables
// any installed trigger body on that table may read.
func (e *Engine) recomputeReadSets() {
	rs := map[string]map[string]bool{}
	add := func(target string, tables []string) {
		m, ok := rs[target]
		if !ok {
			m = map[string]bool{}
			rs[target] = m
		}
		for _, t := range tables {
			m[t] = true
		}
	}
	for _, sig := range e.order {
		g := e.groups[sig]
		if g.mode == ModeMaterialized {
			ts := xqgm.Tables(g.nav.Op)
			for _, t := range ts {
				add(t, ts)
			}
			continue
		}
		for _, p := range g.plans {
			add(p.table, xqgm.Tables(p.root))
		}
	}
	e.readSets = map[string][]string{}
	for target, m := range rs {
		out := make([]string, 0, len(m))
		for t := range m {
			out = append(out, t)
		}
		sort.Strings(out)
		e.readSets[target] = out
	}
}

// DB returns the underlying relational database.
func (e *Engine) DB() *reldb.DB { return e.db }

// Mode returns the translation mode new groups start in.
func (e *Engine) Mode() Mode { return e.mode }

// CreateView compiles and registers an XQuery view.
func (e *Engine) CreateView(name, src string) (*compile.ViewDef, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.comp.CompileView(name, src)
}

// View returns a registered view.
func (e *Engine) View(name string) (*compile.ViewDef, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.comp.View(name)
}

// RegisterAction installs an external action function.
func (e *Engine) RegisterAction(name string, fn ActionFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.actions.Load()
	acts := make(map[string]ActionFunc, len(old)+1)
	for k, v := range old {
		acts[k] = v
	}
	acts[name] = fn
	e.actions.Store(&acts)
}

// action looks up a registered action without taking the metadata lock.
func (e *Engine) action(name string) ActionFunc {
	return (*e.actions.Load())[name]
}

// EnableAsyncDispatch switches action delivery to a bounded-queue worker
// pool: trigger detection keeps running inline under the firing
// statement's locks, but each activation is enqueued as a delivery
// (per-trigger FIFO; distinct triggers fan out across workers) instead of
// invoked inline. cfg selects the queue capacity, worker count, and the
// backpressure policy applied to writers when the queue is full. Call
// Drain to wait for all queued deliveries (a barrier, e.g. before
// asserting on side effects) and Close to shut the pool down. Returns an
// error if async dispatch is already enabled.
func (e *Engine) EnableAsyncDispatch(cfg dispatch.Config) error {
	d := dispatch.New(cfg)
	if !e.dispatcher.CompareAndSwap(nil, d) {
		_ = d.Close() // lost the race: stop the freshly started pool
		return fmt.Errorf("core: async dispatch already enabled")
	}
	e.dispShared.Store(false)
	if m := e.obsp.Load(); m != nil {
		d.AttachObs(m.reg)
	}
	return nil
}

// AttachSharedDispatcher enables async delivery through a dispatcher the
// caller owns (and may have attached to other engines — the sharded
// engine's shared pool, which gives per-trigger FIFO lanes spanning every
// shard). Close drains deliveries this engine handed to the pool but does
// not stop it; stopping is the owner's job, after every attached engine
// has closed. Returns an error if async dispatch is already enabled.
func (e *Engine) AttachSharedDispatcher(d *dispatch.Dispatcher) error {
	if d == nil {
		return fmt.Errorf("core: AttachSharedDispatcher requires a dispatcher")
	}
	// CAS before marking shared: a failed attach must not flip an already
	// owned dispatcher into drain-only Close semantics. Attaching must not
	// race Close (both are setup/teardown-time calls).
	if !e.dispatcher.CompareAndSwap(nil, d) {
		return fmt.Errorf("core: async dispatch already enabled")
	}
	e.dispShared.Store(true)
	if m := e.obsp.Load(); m != nil {
		d.AttachObs(m.reg)
	}
	return nil
}

// AsyncDispatch reports whether async delivery is enabled.
func (e *Engine) AsyncDispatch() bool { return e.dispatcher.Load() != nil }

// Drain blocks until every queued async delivery has completed; it is a
// no-op in synchronous mode. With a quiesced writer side, the engine's
// observable side effects after Drain are identical to synchronous mode.
func (e *Engine) Drain() {
	if d := e.dispatcher.Load(); d != nil {
		d.Drain()
	}
}

// Close drains and stops the async dispatcher, reverting the engine to
// inline delivery. The dispatcher is closed *before* the engine reverts
// to inline mode, so a statement racing with Close either enqueues (and
// its delivery drains), observes a delivery rejection (ErrClosed) as its
// statement error, or — once the pool has fully drained and stopped —
// delivers inline; per-trigger exclusivity is never violated. Safe to
// call on a synchronous engine; idempotent. A shared dispatcher
// (AttachSharedDispatcher) is drained and detached but left running: its
// owner stops it once every attached engine has closed.
func (e *Engine) Close() error {
	d := e.dispatcher.Load()
	if d == nil {
		return nil
	}
	if e.dispShared.Load() {
		d.Drain()
		e.dispatcher.CompareAndSwap(d, nil)
		return nil
	}
	err := d.Close() // blocks until queued deliveries drain and workers exit
	e.dispatcher.CompareAndSwap(d, nil)
	return err
}

// TriggerDispatchStats returns the per-trigger delivery counters of the
// async dispatcher (zero values and false in synchronous mode or for
// triggers that never had a delivery).
func (e *Engine) TriggerDispatchStats(name string) (dispatch.LaneStats, bool) {
	if d := e.dispatcher.Load(); d != nil {
		return d.TriggerStats(name)
	}
	return dispatch.LaneStats{}, false
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
// in-process actions. With a drop policy (DropNewest/DropOldest) the
// dispatcher sheds live-queue load, but the shed records stay in the log
// unacknowledged — durable completeness behind a freshness-first queue.
//
// The engine does not own lg: the caller opens it (recovering any
// previous run's records), replays, enables, and closes it after
// Engine.Close. Returns an error if an outbox is already enabled.
func (e *Engine) EnableOutbox(lg *outbox.Log, sink outbox.Sink) error {
	return e.EnableOutboxShared(lg, sink, nil)
}

// EnableOutboxShared is EnableOutbox for engines sharing one log: stripes,
// when non-nil, replaces this engine's per-trigger append+enqueue stripe
// set with a shared one, so the log-order = lane-order invariant holds for
// a trigger firing concurrently on several engines over the same log (the
// sharded engine attaches the same log, sink, and stripe set to every
// shard). Must be called before any statement can fire — it swaps the
// stripe set unsynchronized.
func (e *Engine) EnableOutboxShared(lg *outbox.Log, sink outbox.Sink, stripes *DeliveryStripes) error {
	if lg == nil {
		return fmt.Errorf("core: EnableOutbox requires a log")
	}
	st := &outboxState{log: lg, sink: sink}
	if !e.ob.CompareAndSwap(nil, st) {
		// Fail without touching the stripe set: swapping it under an
		// already-active outbox would let one trigger's append+enqueue
		// proceed under two different stripes.
		return fmt.Errorf("core: outbox already enabled")
	}
	if stripes != nil {
		e.obStripes = stripes
	}
	if m := e.obsp.Load(); m != nil {
		lg.AttachObs(m.reg)
	}
	return nil
}

// OutboxEnabled reports whether durable delivery is enabled.
func (e *Engine) OutboxEnabled() bool { return e.ob.Load() != nil }

// deliver hands one activation of an engine without an outbox to the
// action function: inline in synchronous mode (errors abort the firing
// statement, AFTER-trigger style), or enqueued on the dispatcher in async
// mode. The Invocation is an immutable snapshot — node bindings and
// argument values are materialized XDM values, so workers never touch live
// engine or database state. Async action errors cannot reach the writer
// (its statement already returned); they are counted by the dispatcher and
// reported to its OnError hook. Enqueue errors (Error-policy backpressure,
// closed dispatcher) do surface to the writer. With an outbox, deliveries
// go through a deliveryWave instead.
func (e *Engine) deliver(fnName string, inv Invocation) error {
	fn := e.action(fnName)
	d := e.dispatcher.Load()
	if d == nil {
		e.actsRun.Add(1)
		if err := fn(inv); err != nil {
			return fmt.Errorf("core: action %s of trigger %s: %w", fnName, inv.Trigger, err)
		}
		return nil
	}
	err := d.Enqueue(dispatch.Delivery{Trigger: inv.Trigger, Run: func() error {
		e.actsRun.Add(1)
		return fn(inv)
	}})
	if err != nil {
		return fmt.Errorf("core: dispatching action %s of trigger %s: %w", fnName, inv.Trigger, err)
	}
	return nil
}

// obStripeIdx returns the trigger's stripe index.
func (e *Engine) obStripeIdx(trigger string) int {
	h := uint32(2166136261)
	for i := 0; i < len(trigger); i++ {
		h = (h ^ uint32(trigger[i])) * 16777619 // FNV-1a
	}
	return int(h % uint32(len(e.obStripes.mu)))
}

// durableRun builds the delivery closure of one durable record: sink (or
// registered action), then ack. A failed delivery leaves the record
// unacknowledged — due for replay — and counts against its dead-letter
// retry budget (outbox Options.RetryLimit), so a permanently failing
// record eventually moves to the dead-letter file instead of pinning the
// watermark forever.
func (e *Engine) durableRun(ob *outboxState, fn ActionFunc, rec *wire.Record) func() error {
	return func() error {
		e.actsRun.Add(1)
		var start time.Time
		m := e.obsp.Load()
		if m != nil {
			start = time.Now()
		}
		var err error
		if ob.sink != nil {
			err = ob.sink.Deliver(rec)
		} else {
			err = fn(Invocation{Trigger: rec.Trigger, Event: rec.Event, Old: rec.Old, New: rec.New, Args: rec.Args})
		}
		if m != nil {
			m.sink.Since(start)
		}
		if err != nil {
			if _, dlErr := ob.log.NoteFailure(rec); dlErr != nil {
				// A failing dead-letter file must not silently disable the
				// policy: surface it alongside the delivery error so the
				// operator learns the record cannot be quarantined.
				return fmt.Errorf("%w (dead-letter quarantine failed: %v)", err, dlErr)
			}
			return err
		}
		return ob.log.Ack(rec.Seq)
	}
}

// batchState is the engine's per-commit scratch riding on
// BatchInfo.EngineState: activation dedup across the commit's plans, the
// staged invocation set (inspected by the prepare check), the group-commit
// wave when the outbox is enabled, and the one evaluation context over the
// commit's net deltas that every plan it fires evaluates in, borrowed until
// the prepare phase ends. All firing waves of one commit run on the
// committing goroutine, so no locking is needed.
type batchState struct {
	seen   map[activation]struct{}
	staged []Invocation
	wave   *deliveryWave
	eval   *evalState
}

// Release returns the commit's evaluation context when its prepare phase
// is done: the staged invocations and the wave hold nodes and values, never
// the context's tuples.
func (st *batchState) Release() {
	if st.eval != nil {
		st.eval.Release()
		st.eval = nil
	}
}

// activation identifies one (trigger, affected node) activation within a
// commit: the member and the node's canonical key on both sides.
type activation struct {
	g        *group
	id       string
	new, old xdm.CompKey
}

// batchStateOf returns the commit's engine state, creating it on first use.
func batchStateOf(b *reldb.BatchInfo) *batchState {
	if st, ok := b.EngineState.(*batchState); ok {
		return st
	}
	st := &batchState{seen: map[activation]struct{}{}}
	b.EngineState = st
	return st
}

// waveItem is one staged durable delivery.
type waveItem struct {
	fnName string
	fn     ActionFunc
	rec    *wire.Record
}

// deliveryWave is the one path a durable delivery takes: the activations
// of one commit — or, for a statement-level write, of one plan firing —
// are appended to the outbox as ONE contiguous write (and at most one
// fsync), then delivered in staging order, so a wave's records reach the
// log all or none. The whole wave runs under the stripe locks of every
// trigger it touches, taken in index order so concurrent waves can never
// deadlock. Holding a trigger's stripe across append and enqueue keeps
// the log's sequence order and the dispatcher's lane order in agreement —
// the property that makes a replay reproduce live per-trigger order. In
// inline (no-dispatcher) mode the stripes are held across the deliveries
// themselves: concurrent disjoint-table statements can activate the same
// trigger, and the Sink contract (one at a time, in log order, per
// trigger) must hold there too; a callback re-entering the engine (always
// forbidden, see the Engine doc) deadlocks on its stripe instead of
// racing. The cost is that a wave parked in Block-policy backpressure
// holds its stripes a little longer.
type deliveryWave struct {
	e     *Engine
	ob    *outboxState
	items []waveItem
	// span, when non-nil, is the committing handle's "commit" phase span:
	// the wave's group append and deliveries trace as its children.
	span *obs.Span
}

// add stages one delivery; it reports whether this was the wave's first
// item (a commit's wave is then staged with the transaction).
func (w *deliveryWave) add(fnName string, inv Invocation) bool {
	w.items = append(w.items, waveItem{fnName: fnName, fn: w.e.action(fnName),
		rec: &wire.Record{Trigger: inv.Trigger, Event: inv.Event, Old: inv.Old, New: inv.New, Args: inv.Args}})
	return len(w.items) == 1
}

// run group-appends the wave, then delivers (or enqueues) each item in
// staging order. A delivery error aborts the rest of the wave; its records
// are already durable and unacknowledged, so a replay finishes what the
// aborted wave did not.
func (w *deliveryWave) run() error {
	if len(w.items) == 0 {
		return nil
	}
	e, ob := w.e, w.ob
	var stripes uint64 // bit i set: the wave holds e.obStripes.mu[i]
	recs := make([]*wire.Record, len(w.items))
	for i, it := range w.items {
		recs[i] = it.rec
		stripes |= 1 << e.obStripeIdx(it.rec.Trigger)
	}
	for s := stripes; s != 0; s &= s - 1 {
		e.obStripes.mu[bits.TrailingZeros64(s)].Lock()
	}
	defer func() {
		for s := stripes; s != 0; s &= s - 1 {
			e.obStripes.mu[bits.TrailingZeros64(s)].Unlock()
		}
	}()
	asp := w.span.Child("outbox-append")
	if asp != nil {
		asp.SetAttr("records", strconv.Itoa(len(recs)))
	}
	if _, err := e.obAppendBatch(ob, recs); err != nil {
		asp.SetAttr("err", err.Error())
		asp.End()
		return err
	}
	asp.End()
	d := e.dispatcher.Load()
	for _, it := range w.items {
		run := e.durableRun(ob, it.fn, it.rec)
		if d == nil {
			// Synchronous durable delivery (sink + ack) traces inline; the
			// async path's latency lives in the dispatch histograms instead,
			// since the delivery outlives the commit span.
			dsp := w.span.Child("deliver")
			dsp.SetAttr("trigger", it.rec.Trigger)
			err := run()
			if err != nil {
				dsp.SetAttr("err", err.Error())
			}
			dsp.End()
			if err != nil {
				return fmt.Errorf("core: action %s of trigger %s: %w", it.fnName, it.rec.Trigger, err)
			}
			continue
		}
		if err := d.Enqueue(dispatch.Delivery{Trigger: it.rec.Trigger, Run: run}); err != nil {
			return fmt.Errorf("core: dispatching action %s of trigger %s: %w", it.fnName, it.rec.Trigger, err)
		}
	}
	return nil
}

// obAppendBatch group-appends the wave's records.
func (e *Engine) obAppendBatch(ob *outboxState, recs []*wire.Record) (uint64, error) {
	first, err := ob.log.AppendBatch(recs)
	if err != nil {
		return 0, fmt.Errorf("core: outbox group append of %d records: %w", len(recs), err)
	}
	return first, nil
}

// firingWave returns the wave a firing's durable deliveries collect on, or
// nil when no outbox is enabled: the commit's shared wave (run by the
// transaction at commit) for a staged firing, a fresh one — which the
// caller runs when the firing's activation loop ends — for a
// statement-level firing.
func (e *Engine) firingWave(ctx *reldb.FireContext) *deliveryWave {
	ob := e.ob.Load()
	if ob == nil {
		return nil
	}
	if ctx.Stage == nil {
		return &deliveryWave{e: e, ob: ob}
	}
	st := batchStateOf(ctx.Batch)
	if st.wave == nil {
		st.wave = &deliveryWave{e: e, ob: ob}
	}
	return st.wave
}

// stageOrDeliver routes one activation of a firing whose wave (see
// firingWave) is wave: durable deliveries collect on the wave; without an
// outbox a statement-level firing delivers immediately and a staged one
// stages its own thunk, preserving activation order either way.
func (e *Engine) stageOrDeliver(ctx *reldb.FireContext, wave *deliveryWave, fnName string, inv Invocation) error {
	if ctx.Batch != nil && ctx.Batch.Silent {
		// Defense in depth: no activation of a silent wave may ever reach a
		// sink, whatever body produced it.
		return nil
	}
	if ctx.Stage == nil {
		if wave != nil {
			wave.add(fnName, inv)
			return nil
		}
		return e.deliver(fnName, inv)
	}
	st := batchStateOf(ctx.Batch)
	st.staged = append(st.staged, inv)
	if wave != nil {
		if wave.add(fnName, inv) {
			ctx.Stage(wave.run)
		}
		return nil
	}
	ctx.Stage(func() error { return e.deliver(fnName, inv) })
	return nil
}

// SetPrepareCheck installs (or, with nil, clears) the transaction
// admission check: fn runs at the end of every batch transaction's
// prepare phase with the invocation set the transaction staged, and an
// error fails the prepare — the transaction can still be rolled back
// everywhere, nothing having been delivered. Coordinators use it to veto
// commits fleet-wide; the conformance suite uses it to inject
// prepare-time failures and prove the two-phase protocol leaves no
// partial state behind.
func (e *Engine) SetPrepareCheck(fn func([]Invocation) error) {
	if fn == nil {
		e.prepCheck.Store(nil)
		return
	}
	e.prepCheck.Store(&fn)
}

// stagedInvocations extracts the invocation set a prepared transaction
// staged (empty when no trigger fired).
func (e *Engine) stagedInvocations(b *reldb.BatchInfo) []Invocation {
	if b == nil {
		return nil
	}
	if st, ok := b.EngineState.(*batchState); ok {
		return st.staged
	}
	return nil
}

// CreateTrigger parses and registers an XML trigger; installation of the
// translated SQL triggers is deferred until Flush (or the next statement
// through the engine's Exec helpers).
func (e *Engine) CreateTrigger(src string) error {
	spec, err := trigger.Parse(src)
	if err != nil {
		return err
	}
	return e.CreateTriggerSpec(spec)
}

// CreateTriggerSpec registers a pre-parsed trigger. One joining a built
// GROUPED group is live on return, and neither compiles nor locks a table.
func (e *Engine) CreateTriggerSpec(spec *trigger.Spec) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.triggers[spec.Name]; dup {
		return fmt.Errorf("core: duplicate trigger %q", spec.Name)
	}
	if e.action(spec.ActionFn) == nil {
		return fmt.Errorf("core: action function %q is not registered", spec.ActionFn)
	}
	nav, err := e.resolvePath(spec)
	if err != nil {
		return err
	}
	// Collect the trigger's constants (traversal order matches the
	// abstracted template used for grouping).
	cc := &condCompiler{nav: nav, layout: identityLayout(nav)}
	cond, _, err := cc.template(spec.Condition, spec.ActionArgs)
	if err != nil {
		return err
	}
	sig := signature(spec)
	g, ok := e.groups[sig]
	if !ok {
		mode := e.mode
		if m, seeded := e.seedModes[sig]; seeded {
			mode = m
		}
		g = &group{sig: sig, mode: mode, event: spec.Event, view: spec.ViewName, nav: nav, actionFn: spec.ActionFn,
			cond: spec.Condition, args: spec.ActionArgs, members: grouping.NewStore(cond, cc.nCond)}
		e.groups[sig] = g
		e.order = append(e.order, sig)
	}
	// The member keeps copies: the spec's strings point into its source.
	m := &grouping.Member{Name: strings.Clone(spec.Name), Consts: make([]xdm.Value, len(cc.consts))}
	for i, v := range cc.consts {
		if v.Kind() == xdm.KindString {
			v = xdm.Str(strings.Clone(v.AsString()))
		}
		m.Consts[i] = v
	}
	if err := g.members.Add(m); err != nil {
		return err
	}
	e.triggers[m.Name] = registration{g, m}
	e.touched(g)
	return nil
}

// touched records that g's membership changed: a built GROUPED group's
// plans read it as they run, any other group's compile it in.
func (e *Engine) touched(g *group) {
	if !g.built || g.mode != ModeGrouped {
		e.dirty = true
		e.dirtyGroups[g.sig] = true
	}
}

// DropTrigger removes an XML trigger. With async dispatch enabled it then
// drains the trigger's delivery lane, so deliveries already enqueued for it
// complete before DropTrigger returns and the lane is released. First it
// rebuilds what the drop changed (Flush semantics) and waits out every
// statement and batch in flight: one that evaluated before the drop, or
// staged an invocation, holds a table lock until it has enqueued. (In
// synchronous mode the rebuild stays deferred to the next Flush.)
func (e *Engine) DropTrigger(name string) error {
	e.mu.Lock()
	err := e.dropTriggerLocked(name)
	d := e.dispatcher.Load()
	var flushErr error
	if err == nil && d != nil {
		flushErr = e.flushLocked()
	}
	e.mu.Unlock()
	if err != nil {
		return err
	}
	if d != nil {
		// Wait and drain outside the metadata lock: lane deliveries may take
		// arbitrary time, and engine calls must not queue up behind the drop.
		// The drain runs even when the flush failed: the trigger is already
		// unregistered, and the next statement retries the rebuild.
		e.lockAllForWrite()()
		d.DrainTrigger(name)
	}
	return flushErr
}

func (e *Engine) dropTriggerLocked(name string) error {
	r, ok := e.triggers[name]
	if !ok {
		return fmt.Errorf("core: no trigger %q", name)
	}
	delete(e.triggers, name)
	g := r.g
	g.members.Remove(r.m)
	if g.members.Len() > 0 {
		e.touched(g)
		return nil
	}
	delete(e.groups, g.sig)
	delete(e.dirtyGroups, g.sig)
	e.pendingDropSQL = append(e.pendingDropSQL, g.sqlNames...)
	e.order = slices.DeleteFunc(e.order, func(s string) bool { return s == g.sig })
	e.dirty = true
	return nil
}

// identityLayout is the view's row: NEW columns, then OLD (constant
// collection, MATERIALIZED's tuple pairs).
func identityLayout(nav *compile.NavNode) Layout {
	w := nav.Op.OutWidth()
	return Layout{NewCol: func(i int) int { return i }, OldCol: func(i int) int { return w + i }}
}

// resolvePath composes the trigger Path with the view (Section 3.3): the
// navigation tree locates the operator producing the monitored elements.
func (e *Engine) resolvePath(spec *trigger.Spec) (*compile.NavNode, error) {
	v, ok := e.comp.View(spec.ViewName)
	if !ok {
		return nil, fmt.Errorf("core: unknown view %q", spec.ViewName)
	}
	nav := v.Nav
	for i, st := range spec.PathSteps {
		if len(st.Preds) > 0 {
			return nil, fmt.Errorf("core: predicates in trigger paths are not supported; use WHERE")
		}
		switch st.Axis {
		case "child":
			// Allow naming the document element as the first step.
			if i == 0 && st.Name == nav.ElemName {
				continue
			}
			c := nav.Child(st.Name)
			if c == nil {
				return nil, fmt.Errorf("core: view %q has no element %q under %q", spec.ViewName, st.Name, nav.ElemName)
			}
			nav = c
		case "descendant":
			c := nav.Find(st.Name)
			if c == nil || c == nav {
				return nil, fmt.Errorf("core: view %q has no descendant element %q", spec.ViewName, st.Name)
			}
			nav = c
		default:
			return nil, fmt.Errorf("core: unsupported axis %q in trigger path", st.Axis)
		}
	}
	if nav.Op == nil {
		return nil, fmt.Errorf("core: path resolves to no producer")
	}
	return nav, nil
}

// signature groups structurally similar triggers: same view, path, event,
// condition shape (literals abstracted), and action shape. It does not
// depend on any mode, so a group's mode can change without re-grouping.
func signature(spec *trigger.Spec) string {
	var sb strings.Builder
	sb.WriteString(spec.ViewName)
	sb.WriteByte('|')
	sb.WriteString(spec.PathString())
	sb.WriteByte('|')
	sb.WriteString(spec.Event.String())
	sb.WriteByte('|')
	sb.WriteString(abstractString(spec.Condition))
	sb.WriteByte('|')
	sb.WriteString(spec.ActionFn)
	for _, a := range spec.ActionArgs {
		sb.WriteByte(',')
		sb.WriteString(abstractString(a))
	}
	return sb.String()
}

// abstractString is the shape of an expression: its AST rendered with "?"
// for each literal, met in the order condCompiler collects them.
func abstractString(ex xquery.Expr) string {
	if ex == nil {
		return "<none>"
	}
	return xquery.AbstractString(ex)
}

// Flush builds and installs the SQL triggers for all registered XML
// triggers (Figure 6's Event Pushdown → Affected-Node Graph Generation →
// Trigger Grouping → Trigger Pushdown pipeline). It is idempotent, and
// compiled per-group plans are cached across flushes: only groups whose
// membership changed since the last flush are rebuilt.
func (e *Engine) Flush() error {
	e.mu.RLock()
	dirty := e.dirty
	e.mu.RUnlock()
	if !dirty {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

func (e *Engine) flushLocked() error {
	if !e.dirty {
		return nil
	}
	// Installing/dropping SQL triggers mutates structures the write path
	// iterates, so DDL excludes all in-flight statements.
	unlock := e.acquireLocks(allOf(e.lockOrder), nil)
	defer unlock()

	for _, n := range e.pendingDropSQL {
		_ = e.db.DropTrigger(n)
	}
	e.pendingDropSQL = nil

	m := e.obsp.Load()
	for _, sig := range e.order {
		g := e.groups[sig]
		if g.built && !e.dirtyGroups[sig] {
			if m != nil {
				m.planHits.Inc()
			}
			continue
		}
		if m != nil {
			m.planMiss.Inc()
		}
		// Compile before dropping anything: a failed compile leaves the
		// previous plans installed and the group still dirty.
		b, err := e.compileGroup(g, g.mode)
		if err != nil {
			return fmt.Errorf("core: building trigger group %q: %w", sig, err)
		}
		if err := e.installGroup(g, b); err != nil {
			return fmt.Errorf("core: installing trigger group %q: %w", sig, err)
		}
	}
	e.dirtyGroups = map[string]bool{}
	e.recomputeReadSets()
	e.dirty = false
	return nil
}

func allOf(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

// compileGroup compiles one trigger group for the given mode without
// installing anything: no SQL triggers are created, no indexes built, no
// engine state mutated. The returned build either installs atomically
// (installGroup, under every table's write lock) or is discarded — the
// abort path of a prepared mode switch. Caller holds e.mu and the table
// locks (a MATERIALIZED compile evaluates its initial snapshot).
func (e *Engine) compileGroup(g *group, mode Mode) (*groupBuild, error) {
	g.stats.builds.Add(1)
	if mode == ModeMaterialized {
		return e.compileMaterialized(g)
	}
	b := &groupBuild{mode: mode}
	srcEvents := events.GetSrcEvents(e.db.Schema(), g.nav.Op, g.event)
	tables := map[string][]reldb.Event{}
	var tableOrder []string
	for _, te := range srcEvents {
		if _, seen := tables[te.Table]; !seen {
			tableOrder = append(tableOrder, te.Table)
		}
		tables[te.Table] = append(tables[te.Table], te.Event)
	}

	for _, table := range tableOrder {
		plans, err := e.buildTablePlans(g, table, mode)
		if err != nil {
			return nil, err
		}
		for _, plan := range plans {
			b.plans = append(b.plans, plan)
			for _, relEv := range tables[table] {
				p := plan
				b.installs = append(b.installs, pendingTrigger{
					table: table, event: relEv, prefix: "xmlTrig",
					body: func(ctx *reldb.FireContext) error { return e.fire(g, p, ctx) },
				})
			}
		}
	}
	return b, nil
}

// installGroup swaps a compiled build into the group: the old SQL
// triggers drop, the new ones install, and the group adopts the build's
// mode and plans. Runs under e.mu and every table's write lock (flush, or
// a prepared mode switch's commit), so no statement ever observes a
// half-installed group.
func (e *Engine) installGroup(g *group, b *groupBuild) error {
	for _, n := range g.sqlNames {
		_ = e.db.DropTrigger(n)
	}
	g.sqlNames = nil
	g.plans = b.plans
	g.mode = b.mode
	for _, p := range b.plans {
		if p.root != nil {
			e.ensureIndexes(p.root)
		}
	}
	for _, pt := range b.installs {
		e.sqlSeq++
		name := fmt.Sprintf("%s_%d", pt.prefix, e.sqlSeq)
		if err := e.db.CreateTrigger(&reldb.SQLTrigger{
			Name: name, Table: pt.table, Event: pt.event, Body: pt.body,
		}); err != nil {
			return err
		}
		g.sqlNames = append(g.sqlNames, name)
	}
	g.built = true
	return nil
}

// buildTablePlans builds the affected-node graph and the plans for one
// base table: one shared plan in GROUPED mode, one plan per member in
// UNGROUPED mode.
func (e *Engine) buildTablePlans(g *group, table string, mode Mode) ([]*installedPlan, error) {
	opts := affected.Options{Prune: true}
	if affected.InjectiveFor(g.nav.Op, table) {
		opts.SkipValueCompare = true
	} else {
		opts.CompareCols = []int{g.nav.NodeCol}
	}

	an, err := affected.CreateANGraph(e.db.Schema(), g.event, g.nav.Op, table, opts)
	if err != nil {
		return nil, err
	}
	cc := &condCompiler{nav: g.nav, layout: Layout{NewCol: an.NewCol, OldCol: an.OldCol}}
	template, args, err := cc.template(g.cond, g.args)
	if err != nil {
		return nil, err
	}

	if mode == ModeUngrouped {
		// The paper's per-trigger translation: one plan per member, all
		// sharing one ANGraph per table. A member's condition first filters
		// the affected keys it can hold for, so the shared graph builds
		// nodes only for a firing it may deliver.
		members := g.members.Members()
		plans := make([]*installedPlan, 0, len(members))
		for _, m := range members {
			var root *xqgm.Operator = an.Root
			if template != nil {
				bound := grouping.Bind(template, m.Consts)
				root = xqgm.NewSelect(an.Restrict(bound), bound)
			}
			plan := newInstalledPlan(g, table, an, args)
			plan.root = root
			plan.member = m
			// One by one, not Prepare(roots...): an evaluation sizes its memo
			// by the root's node id, and ids prepared together count every
			// member's Select before this one.
			if err := xqgm.Prepare(root); err != nil {
				return nil, err
			}
			plans = append(plans, plan)
		}
		return plans, nil
	}

	// GROUPED: one plan joining the group's constants table, whose TrigIDs
	// follows the affected-node graph's columns.
	plan := newInstalledPlan(g, table, an, args)
	plan.root = grouping.BuildGroupedPlan(g.members, template, an.Root)
	plan.store, plan.trigIDsCol = g.members, an.Root.OutWidth()
	if err := xqgm.Prepare(plan.root); err != nil {
		return nil, err
	}
	return []*installedPlan{plan}, nil
}

// fire is the body of an installed SQL trigger: evaluate the plan over the
// transition tables, tag results, and activate the member triggers.
//
// Batched firings (Tx.Commit) evaluate the plan once per commit with the
// transaction's net deltas for every touched table, so N statements on a
// table cost one plan evaluation instead of N. Because each touched
// table's plan seeds affected keys from its own transition tables, plans
// of the same group can discover the same affected node when a commit
// touched several tables; the per-commit activation set dedups those.
func (e *Engine) fire(g *group, plan *installedPlan, ctx *reldb.FireContext) error {
	if ctx.Batch != nil {
		if ctx.Batch.Silent {
			// A silent data movement (shard rebalancing): the deltas are
			// placement artifacts, not logical changes. Translated plans are
			// stateless across firings, so skipping the evaluation outright
			// stages nothing and leaves nothing stale.
			return nil
		}
		return e.fireBatch(g, plan, ctx)
	}
	e.fires.Add(1)
	g.stats.fires.Add(1)
	g.stats.deltaRows.Add(int64(len(ctx.Inserted) + len(ctx.Deleted)))
	start := time.Now()                                             //quark:clock per-group eval time: evalNS is reported in GroupStats, never delivered bytes
	defer func() { g.stats.evalNS.Add(int64(time.Since(start))) }() //quark:clock per-group eval time: evalNS is reported in GroupStats, never delivered bytes
	if m := e.obsp.Load(); m != nil {
		defer m.fire.Since(time.Now())
	}
	// Every plan that fires for the statement evaluates in one context over
	// its transition tables, borrowed until reldb releases the statement
	// (see reldb.FireContext's sharing contract).
	es, ok := ctx.EngineState.(*evalState)
	if !ok {
		es = e.evals.statement(ctx.Table, ctx.Inserted, ctx.Deleted)
		ctx.EngineState = es
	}
	return e.activate(g, plan, es, ctx)
}

// fireBatch runs the plan once for a whole committed transaction.
// plan.lastBatch is only touched here, while the committing goroutine
// holds the plan's table write lock (a plan fires only from statements on
// its own table, so concurrent disjoint BatchTables commits touch
// disjoint plans). The per-commit activation dedup state rides on the
// commit's BatchInfo, so its lifetime is exactly the commit's; the
// evaluation context on it is borrowed until the prepare phase ends.
func (e *Engine) fireBatch(g *group, plan *installedPlan, ctx *reldb.FireContext) error {
	if plan.lastBatch == ctx.Batch.Seq {
		return nil // another event of the same commit already ran this plan
	}
	plan.lastBatch = ctx.Batch.Seq
	e.fires.Add(1)
	g.stats.fires.Add(1)
	for _, nd := range ctx.Batch.Deltas {
		g.stats.deltaRows.Add(int64(len(nd.Inserted) + len(nd.Deleted)))
	}
	start := time.Now()                                             //quark:clock per-group eval time: evalNS is reported in GroupStats, never delivered bytes
	defer func() { g.stats.evalNS.Add(int64(time.Since(start))) }() //quark:clock per-group eval time: evalNS is reported in GroupStats, never delivered bytes
	if m := e.obsp.Load(); m != nil {
		defer m.fire.Since(time.Now())
		if psp, ok := ctx.Batch.Obs.(*obs.Span); ok && psp != nil {
			sp := psp.Child("eval")
			sp.SetAttr("tables", fmt.Sprint(len(ctx.Batch.Deltas)))
			defer sp.End()
		}
	}
	st := batchStateOf(ctx.Batch)
	if st.eval == nil {
		st.eval = e.evals.commit(ctx.Batch.Deltas)
	}
	return e.activate(g, plan, st.eval, ctx)
}

// activate evaluates a trigger plan in the statement's or commit's
// evaluation context and invokes — or, in a prepare-phase staging pass,
// stages — the member actions. Batched firings dedup activations across the
// plans of one commit via the batch state riding on ctx.Batch.
func (e *Engine) activate(g *group, plan *installedPlan, es *evalState, ctx *reldb.FireContext) error {
	invs, err := e.activations(g, plan, es, ctx)
	if err == nil && len(invs) > 0 {
		wave := e.firingWave(ctx)
		for _, inv := range invs {
			g.stats.activations.Add(1)
			if err = e.stageOrDeliver(ctx, wave, g.actionFn, inv); err != nil {
				break
			}
		}
		if err == nil && ctx.Stage == nil && wave != nil {
			err = wave.run()
		}
	}
	clear(invs) // what was delivered is the actions' now, not the context's
	return err
}

// activations evaluates the plan and returns its activations in delivery
// order, in es's buffer. A grouped plan's membership holds still meanwhile
// and is free again before anything is delivered: an action may take its
// time, or write a table whose statement fires the group again.
func (e *Engine) activations(g *group, plan *installedPlan, es *evalState, ctx *reldb.FireContext) ([]Invocation, error) {
	if st := plan.store; st != nil {
		st.RLock()
		defer st.RUnlock()
	}
	var seen map[activation]struct{}
	if ctx.Batch != nil {
		seen = batchStateOf(ctx.Batch).seen
	}
	an := plan.an
	// The plan takes what another group's plan computed in this context
	// (an UNGROUPED group's members are one owner: each evaluates its own
	// plan), but only while the database is as it was then: an action an
	// earlier body delivered may have written it.
	if seq := e.db.WriteSeq(); seq != es.seq {
		es.Reset()
		es.seq = seq
	}
	es.Stats = xqgm.EvalStats{}
	rows, err := es.EvalFor(g, plan.root)
	if err != nil {
		return nil, err
	}
	g.stats.rowsReused.Add(int64(es.Stats.RowsReused))
	g.stats.joinsSkipped.Add(int64(es.Stats.JoinsSkipped))
	g.stats.nodesBuilt.Add(int64(es.Stats.NodesBuilt))
	g.stats.opsShared.Add(int64(es.Stats.OpsShared))
	if sh := e.shadow.Load(); sh != nil {
		if err := (*sh).VerifyPlan(plan.table, plan.sql(), es.Deltas, rows); err != nil {
			return nil, fmt.Errorf("core: plan shadow: %w", err)
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	// Sorted activation (the ORDER BY of Figure 16): by TrigIDs then by the
	// row. The leading affected-key columns decide that order whenever they
	// differ (TupleKey length-prefixes each column), and affected keys are
	// unique per row and TrigIDs, so the rest of the row — which serialises
	// its OLD and NEW nodes — is keyed only to break a tie: the rows of a
	// DELETE graph, whose leading key is NULL.
	if len(rows) > 1 {
		type keyed struct {
			ids, key, full string
			row            xqgm.Tuple
		}
		ks := make([]keyed, len(rows))
		for i, row := range rows {
			ks[i] = keyed{key: xdm.TupleKey(row[:an.KeyWidth()]), row: row}
			if plan.store != nil {
				ks[i].ids = row[plan.trigIDsCol].AsString()
			}
		}
		full := func(k *keyed) string {
			if k.full == "" {
				k.full = xdm.TupleKey(k.row)
			}
			return k.full
		}
		sort.SliceStable(ks, func(i, j int) bool {
			if ks[i].ids != ks[j].ids {
				return ks[i].ids < ks[j].ids
			}
			if ks[i].key != ks[j].key {
				return ks[i].key < ks[j].key
			}
			return full(&ks[i]) < full(&ks[j])
		})
		rows = make([]xqgm.Tuple, len(ks))
		for i := range ks {
			rows[i] = ks[i].row
		}
	}
	invs := es.invs[:0]
	var env xqgm.Env
	for _, row := range rows {
		members := []*grouping.Member{plan.member}
		if plan.store != nil {
			members = plan.store.RowMembers(row[plan.trigIDsCol])
		}
		oldNode := row[an.OldCol(g.nav.NodeCol)].AsNode()
		newNode := row[an.NewCol(g.nav.NodeCol)].AsNode()
		for _, m := range members {
			if seen != nil {
				k := activation{g, m.Name, xdm.ColsKey(row, plan.keyCols[0]), xdm.ColsKey(row, plan.keyCols[1])}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
			}
			var args []xdm.Value
			if len(plan.args) > 0 {
				args = make([]xdm.Value, len(plan.args))
				env.In = [2][]xdm.Value{row, m.Consts}
				for i, ae := range plan.args {
					v, err := ae.Eval(&env)
					if err != nil {
						return nil, err
					}
					args[i] = v
				}
			}
			invs = append(invs, Invocation{Trigger: m.Name, Event: g.event, Old: oldNode, New: newNode, Args: args})
		}
	}
	es.invs = invs
	return invs, nil
}

// renderedSQL is a grouped plan's SQL as of one membership version.
type renderedSQL struct {
	version uint64
	text    string
}

// sql returns the plan's SQL, rendered when first asked for and again once
// the group's membership changed: a grouped plan lists its constants table
// in it. The caller holds the store's read lock or the metadata lock, which
// joins and leaves take too.
func (p *installedPlan) sql() string {
	var v uint64
	if p.store != nil {
		v = p.store.Version()
	}
	if r := p.rendered.Load(); r != nil && r.version == v {
		return r.text
	}
	r := &renderedSQL{version: v, text: RenderSQL(p.root)}
	p.rendered.Store(r)
	return r.text
}

// newInstalledPlan starts a plan over an's rows for one base table of g.
func newInstalledPlan(g *group, table string, an *affected.ANGraph, args []xqgm.Expr) *installedPlan {
	p := &installedPlan{table: table, an: an, args: args}
	for _, kc := range g.nav.KeyCols {
		p.keyCols[0] = append(p.keyCols[0], an.NewCol(kc))
		p.keyCols[1] = append(p.keyCols[1], an.OldCol(kc))
	}
	return p
}

// ensureIndexes creates hash indexes on base-table columns used as
// equi-join keys anywhere in the plan ("appropriate indices on the key
// columns and other join columns", Section 6.1).
func (e *Engine) ensureIndexes(root *xqgm.Operator) {
	xqgm.Walk(root, func(o *xqgm.Operator) {
		if o.Type != xqgm.OpJoin {
			return
		}
		for _, eq := range o.On {
			e.indexIfBase(o.Inputs[0], eq.L)
			e.indexIfBase(o.Inputs[1], eq.R)
		}
	})
}

func (e *Engine) indexIfBase(op *xqgm.Operator, col int) {
	switch op.Type {
	case xqgm.OpTable:
		if op.Source == xqgm.SrcBase || op.Source == xqgm.SrcOld {
			if col >= 0 && col < len(op.Names) {
				_ = e.db.CreateIndex(op.Table, op.Names[col])
			}
		}
	case xqgm.OpSelect, xqgm.OpOrderBy:
		e.indexIfBase(op.Inputs[0], col)
	case xqgm.OpProject:
		if col < len(op.Projs) {
			if cr, ok := op.Projs[col].E.(*xqgm.ColRef); ok && cr.Input == 0 {
				e.indexIfBase(op.Inputs[0], cr.Col)
			}
		}
	}
}

// Stats returns engine counters, including the async dispatcher's queue
// counters when async dispatch is enabled.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	st := Stats{
		XMLTriggers: len(e.triggers),
		SQLTriggers: e.db.TriggerCount(),
		Groups:      len(e.groups),
		Fires:       e.fires.Load(),
		Actions:     e.actsRun.Load(),
	}
	e.mu.RUnlock()
	st.DB = e.db.Stats()
	if d := e.dispatcher.Load(); d != nil {
		st.Async = true
		st.Dispatch = d.Stats()
	}
	if ob := e.ob.Load(); ob != nil {
		st.Outbox = true
		st.OutboxLog = ob.log.Stats()
	}
	st.PerGroup = e.GroupStats()
	return st
}

// SQLTexts returns the rendered SQL of all installed plans, keyed by group
// signature and table (for inspection, like Figure 16). An UNGROUPED
// group installs one plan per member, so those keys lead with the owning
// trigger's name.
func (e *Engine) SQLTexts() map[string]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := map[string]string{}
	for _, sig := range e.order {
		for _, p := range e.groups[sig].plans {
			key := sig
			if p.member != nil {
				key = p.member.Name + "|" + sig
			}
			out[key+"/"+p.table] = p.sql()
		}
	}
	return out
}

// --- statement helpers: auto-flush, lock the statement's table
// footprint, then delegate to the database ---

// Insert flushes pending trigger builds and inserts rows.
func (e *Engine) Insert(table string, rows ...reldb.Row) error {
	if err := e.Flush(); err != nil {
		return err
	}
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.Insert(table, rows...)
}

// Update flushes pending trigger builds and updates rows.
func (e *Engine) Update(table string, pred func(reldb.Row) bool, set func(reldb.Row) reldb.Row) (int, error) {
	if err := e.Flush(); err != nil {
		return 0, err
	}
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.Update(table, pred, set)
}

// UpdateByPK flushes pending trigger builds and updates one row.
func (e *Engine) UpdateByPK(table string, key []xdm.Value, set func(reldb.Row) reldb.Row) (bool, error) {
	if err := e.Flush(); err != nil {
		return false, err
	}
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.UpdateByPK(table, key, set)
}

// Delete flushes pending trigger builds and deletes rows.
func (e *Engine) Delete(table string, pred func(reldb.Row) bool) (int, error) {
	if err := e.Flush(); err != nil {
		return 0, err
	}
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.Delete(table, pred)
}

// DeleteByPK flushes pending trigger builds and deletes one row.
func (e *Engine) DeleteByPK(table string, key ...xdm.Value) (bool, error) {
	if err := e.Flush(); err != nil {
		return false, err
	}
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.DeleteByPK(table, key...)
}

// GetByPK reads one row under the table's read lock and returns a copy,
// so the caller never holds a reference into live storage. It exists for
// coordinators (the shard router) that must inspect a row's current value
// before deciding where a statement belongs.
func (e *Engine) GetByPK(table string, key ...xdm.Value) (reldb.Row, bool, error) {
	e.mu.RLock()
	if _, ok := e.tableLocks[table]; !ok {
		e.mu.RUnlock()
		return nil, false, fmt.Errorf("core: unknown table %q", table)
	}
	unlock := e.acquireLocks(nil, map[string]bool{table: true})
	e.mu.RUnlock()
	defer unlock()
	r, found, err := e.db.GetByPK(table, key...)
	if err != nil || !found {
		return nil, found, err
	}
	return r.Copy(), true, nil
}

// Batch runs fn inside a batched update transaction: every mutation made
// through the Tx applies immediately, but the translated SQL triggers
// fire once per (table, event) at commit with the merged transition
// tables — N statements cost one trigger activation wave instead of N.
// If fn returns an error the transaction is rolled back and no triggers
// fire. The whole batch runs under write locks on all tables (its write
// footprint is unknown up front); fn must not call back into the engine.
func (e *Engine) Batch(fn func(*reldb.Tx) error) error {
	h, err := e.BeginBatch()
	if err != nil {
		return err
	}
	return h.Run(fn)
}

// BatchHandle is an open batched transaction whose lifetime the caller
// controls: BeginBatch locks and begins, the caller applies mutations
// through Tx, and Commit (fire the merged deltas) or Rollback finishes it
// and releases the locks. It exists for coordinators that interleave the
// statements of several engines inside one logical transaction — the
// sharded engine opens one handle per shard and commits them in shard
// order — where the callback shape of Batch cannot express the control
// flow. Handles are not safe for concurrent use.
type BatchHandle struct {
	e        *Engine
	tx       *reldb.Tx
	unlock   func()
	done     bool
	prepared bool
	// span is the handle's root trace ("tx"), non-nil only with
	// observability attached; Prepare/Commit/Rollback open phase children
	// and the commit's delivery wave nests its outbox append under it.
	span *obs.Span
}

// BeginBatch flushes pending trigger builds, write-locks every table, and
// begins a batched transaction. The caller must finish the handle with
// Commit or Rollback (or Run), or the engine stays locked.
func (e *Engine) BeginBatch() (*BatchHandle, error) {
	if err := e.Flush(); err != nil {
		return nil, err
	}
	unlock := e.lockAllForWrite()
	h := &BatchHandle{e: e, tx: e.db.Begin(), unlock: unlock}
	if m := e.obsp.Load(); m != nil {
		h.span = m.reg.StartSpan("tx")
	}
	return h, nil
}

// AttachSpan replaces the handle's trace span with sp — a fleet
// coordinator (the sharded engine) passes a child of its own distributed-
// transaction root so every shard's prepare/commit/abort phases nest
// under one tree. The handle ends sp at Commit/Rollback but never retains
// it; retaining the root is the coordinator's job. Passing nil disables
// tracing for this handle.
func (h *BatchHandle) AttachSpan(sp *obs.Span) { h.span = sp }

// Tx returns the handle's transaction for applying mutations.
func (h *BatchHandle) Tx() *reldb.Tx { return h.tx }

// SetSilent marks the handle's transaction as a silent data movement
// (see reldb.Tx.SetSilent): prepare still computes net deltas and lets
// stateful trigger bodies refresh themselves (a materialized view's diff
// baseline), but no trigger activates and nothing is staged or
// delivered. The sharded engine's rebalancer sets it on the donor and
// recipient handles of a group migration — physically moved rows are not
// logical data changes. Must be called before Prepare.
func (h *BatchHandle) SetSilent() error {
	return h.tx.SetSilent()
}

// Engine returns the engine the handle belongs to.
func (h *BatchHandle) Engine() *Engine { return h.e }

// Prepare runs the transaction's prepare phase without finishing the
// handle: the merged net deltas are computed, trigger conditions evaluate,
// and the resulting invocation set is staged (nothing is delivered). Any
// error — evaluation, cascade, or the engine's prepare check — leaves the
// handle open so the caller can Rollback, which is what lets a
// coordinator prepare every participant before committing any of them.
// Prepare on an already-prepared handle is a no-op; locks stay held until
// Commit or Rollback.
func (h *BatchHandle) Prepare() error {
	if h.done {
		return fmt.Errorf("core: batch already finished")
	}
	if h.prepared {
		return nil
	}
	sp := h.span.Child("prepare")
	if h.span != nil {
		// Thread the prepare span to the firing waves (reldb copies the
		// token onto the BatchInfo), so each group's trigger evaluation
		// traces as an "eval" child of this prepare.
		h.tx.SetObsToken(sp)
	}
	if err := h.tx.Prepare(); err != nil {
		sp.SetAttr("err", err.Error())
		sp.End()
		return err
	}
	if h.span != nil {
		if b := h.tx.Staged(); b != nil {
			if st, ok := b.EngineState.(*batchState); ok {
				sp.SetAttr("staged", fmt.Sprint(len(st.staged)))
			}
		}
	}
	if chk := h.e.prepCheck.Load(); chk != nil {
		if err := (*chk)(h.e.stagedInvocations(h.tx.Staged())); err != nil {
			sp.SetAttr("err", err.Error())
			sp.End()
			return err
		}
	}
	sp.End()
	h.prepared = true
	return nil
}

// Commit finishes the handle: an unprepared handle prepares first — and a
// prepare-phase error rolls the transaction back all-or-nothing, since
// nothing was delivered yet — then the staged deliveries run (delivery
// errors surface but the applied state stands, AFTER-trigger style) and
// the locks release.
func (h *BatchHandle) Commit() error {
	if h.done {
		return fmt.Errorf("core: batch already finished")
	}
	if err := h.Prepare(); err != nil {
		_ = h.Rollback()
		return err
	}
	h.done = true
	defer h.unlock()
	sp := h.span.Child("commit")
	if h.span != nil {
		// Hand the commit span to the delivery wave (if any trigger staged
		// one): the group-commit outbox append and synchronous deliveries
		// trace as its children.
		if b := h.tx.Staged(); b != nil {
			if st, ok := b.EngineState.(*batchState); ok && st.wave != nil {
				st.wave.span = sp
			}
		}
	}
	err := h.tx.Commit()
	if err != nil {
		sp.SetAttr("err", err.Error())
	}
	sp.End()
	h.span.End()
	return err
}

// Rollback undoes the transaction's mutations (no triggers fire) and
// releases the locks.
func (h *BatchHandle) Rollback() error {
	if h.done {
		return fmt.Errorf("core: batch already finished")
	}
	h.done = true
	defer h.unlock()
	err := h.tx.Rollback()
	sp := h.span.Child("abort")
	if err != nil {
		sp.SetAttr("err", err.Error())
	}
	sp.End()
	h.span.End()
	return err
}

// Run drives fn to commit or rollback with the panic safety of Batch.
func (h *BatchHandle) Run(fn func(*reldb.Tx) error) error {
	finished := false
	defer func() {
		if !finished {
			_ = h.Rollback()
		}
	}()
	if err := fn(h.tx); err != nil {
		finished = true
		if rbErr := h.Rollback(); rbErr != nil {
			return fmt.Errorf("%w (rollback failed: %v)", err, rbErr)
		}
		return err
	}
	finished = true
	return h.Commit()
}

// BatchTables runs fn like Batch, but write-locks only the declared table
// footprint (plus the tables the declared tables' installed triggers and
// foreign-key checks read), so batches with disjoint footprints run
// concurrently. The transaction is restricted to the declared tables: a
// mutation of an undeclared table fails with reldb.ErrUndeclaredTable,
// and the engine escalates — the declared-footprint attempt rolls back
// (nothing from it survives) and fn re-runs under Batch's all-table
// lock. Escalation is a restart, never a mid-flight lock upgrade: the
// declared locks release before the full set is acquired in global
// lockOrder, so two escalating batches cannot deadlock against each
// other. fn must therefore be safe to re-run from scratch, which every
// pure mutation callback is. Triggers installed on the declared tables
// still fire at commit exactly as with Batch.
func (e *Engine) BatchTables(tables []string, fn func(*reldb.Tx) error) error {
	h, err := e.BeginBatchTables(tables)
	if err != nil {
		return err
	}
	finished := false
	defer func() {
		if !finished {
			_ = h.Rollback()
		}
	}()
	err = fn(h.tx)
	if h.tx.NeedsEscalation() {
		// The declared footprint was too small. The handle's mutations are
		// partial (the undeclared statement was refused), so the whole
		// attempt rolls back and the batch restarts with every table
		// locked. Checked on the handle, not on fn's error: a callback
		// that swallowed the refusal and returned nil must not commit its
		// partial declared-table mutations.
		finished = true
		if rbErr := h.Rollback(); rbErr != nil {
			return fmt.Errorf("core: lock escalation rollback failed: %w", rbErr)
		}
		return e.Batch(fn)
	}
	if err != nil {
		finished = true
		if rbErr := h.Rollback(); rbErr != nil {
			return fmt.Errorf("%w (rollback failed: %v)", err, rbErr)
		}
		return err
	}
	finished = true
	return h.Commit()
}

// BeginBatchTables is BeginBatch with a declared footprint: only the
// listed tables are write-locked (plus their installed triggers' and
// foreign-key checks' read sets), and the transaction is restricted to
// them, so handles with disjoint footprints run concurrently.
func (e *Engine) BeginBatchTables(tables []string) (*BatchHandle, error) {
	if err := e.Flush(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	write := map[string]bool{}
	for _, t := range tables {
		if _, ok := e.tableLocks[t]; !ok {
			e.mu.RUnlock()
			return nil, fmt.Errorf("core: unknown table %q", t)
		}
		write[t] = true
	}
	unlock := e.acquireLocks(write, e.readFootprint(write))
	e.mu.RUnlock()
	tx := e.db.Begin()
	tx.Restrict(tables)
	h := &BatchHandle{e: e, tx: tx, unlock: unlock}
	if m := e.obsp.Load(); m != nil {
		h.span = m.reg.StartSpan("tx")
	}
	return h, nil
}

// EvalView materializes a registered view (for inspection/examples). It
// read-locks only the tables the view reads, so concurrent readers never
// serialize behind each other, nor behind writers on unrelated tables.
func (e *Engine) EvalView(name string) (*xdm.Node, error) {
	e.mu.RLock()
	v, ok := e.comp.View(name)
	if !ok {
		e.mu.RUnlock()
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	read := allOf(xqgm.Tables(v.Root))
	unlock := e.acquireLocks(nil, read)
	e.mu.RUnlock()
	defer unlock()
	ectx := xqgm.NewEvalContext(e.db, nil)
	rows, err := ectx.Eval(v.Root)
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("core: view %q produced %d rows", name, len(rows))
	}
	return rows[0][v.Nav.NodeCol].AsNode(), nil
}
