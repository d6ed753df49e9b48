// Package core is the system of Figure 6: an active XML-publishing engine
// that accepts XML views (XQuery over the default view) and XML triggers,
// translates the triggers into SQL statement triggers on the underlying
// relational engine, and activates trigger actions with OLD_NODE/NEW_NODE
// parameters when base updates affect the monitored view nodes.
//
// Triggers that differ only in constants form one group. An engine runs
// one of two translations (Section 6), fixed when it is built, for every
// group: ModeUngrouped (one SQL trigger set per XML trigger) or ModeGrouped
// (the members share one SQL trigger via a constants table, Section 5.1).
// The paper's third translation (Section 5.2: old aggregates derived from
// the new ones and the transition tables) is not reproduced as a mode: at
// every figure point it ran GROUPED's plan, and no figure or benchmark
// workload reaches the rewrite. A third mode, ModeMaterialized, implements
// the strawman the paper argues against — materialize the view and diff it
// on every update — and is kept as the correctness oracle tests compare the
// translations against.
package core

import (
	"bytes"
	"errors"
	"fmt"
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
	"quark/internal/xdm"
	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// Mode is an engine's translation strategy, fixed by NewEngine: every
// trigger group it builds runs it.
type Mode uint8

// Translation modes. 2 was GROUPED-AGG and is retired.
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

// Stats reports engine state and activity. Actions counts the deliveries
// run, inline or by a dispatcher worker. Async and Dispatch are only
// meaningful after EnableAsyncDispatch: Dispatch carries the dispatcher's
// queue counters (enqueued, completed, max depth, action errors).
// Outbox and OutboxLog are only meaningful after EnableOutbox: OutboxLog
// carries the durable log's append/ack counters. Engines sharing one
// delivery (ShareDelivery) report the same Dispatch and OutboxLog. DB
// folds in the relational layer's statement and access-path counters, so
// one Stats call covers every layer under the engine.
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
	// firings, eval latency and delta sizes. /snapshot reads the same rows.
	PerGroup []GroupStat `json:",omitempty"`
}

// Surface is the engine API the core engine and the sharded engine
// (internal/shard) share, generic in the transaction type Batch hands its
// callback: *reldb.Tx here, *shard.Tx there. Code that drives either
// engine — the conformance runner, stream replay — takes a Surface.
type Surface[T reldb.Writer] interface {
	reldb.Writer
	RegisterAction(name string, fn ActionFunc)
	CreateView(name, src string) error
	CreateTrigger(src string) error
	DropTrigger(name string) error
	EnableAsyncDispatch(cfg dispatch.Config) error
	EnableOutbox(lg *outbox.Log, sink outbox.Sink) error
	SetPrepareCheck(fn func([]Invocation) error)
	Drain()
	Close() error
	Batch(fn func(T) error) error
}

var _ Surface[*reldb.Tx] = (*Engine)(nil)

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
// Action delivery (delivery.go): every activation goes through one wave —
// a statement-level firing's, run when the firing ends, or a commit's, run
// at commit. Running a wave has two independent steps: with an outbox
// (EnableOutbox) it first appends the wave's records in one group write,
// and each delivery acknowledges its own; then, after EnableAsyncDispatch,
// it queues the deliveries on a bounded worker pool (internal/dispatch)
// with per-trigger FIFO ordering, so a slow sink no longer stalls the
// writer, and by default it runs them inline while the firing statement's
// locks are held. Trigger *detection* always runs inline under the
// statement's locks. In either mode action callbacks must not call back
// into the engine.
type Engine struct {
	mu   sync.RWMutex
	db   *reldb.DB
	comp *compile.Compiler
	mode Mode

	// actions is copy-on-write so trigger firings can read it without
	// taking e.mu (firings run under table locks, not the metadata lock).
	actions atomic.Pointer[map[string]ActionFunc]

	triggers triggerTable
	groups   map[string]*group
	sigBuf   []byte   // CreateTriggerSpec renders a signature here
	order    []string // group signatures in creation order
	sqlSeq   int

	// Per-table lock manager. lockOrder is the global acquisition order;
	// readSets maps a write target to the tables its installed trigger
	// bodies may read (recomputed when a group comes or goes); fkReads
	// maps a write target to the tables its foreign-key validation reads
	// (static, from the schema), which must be locked even when no trigger
	// is installed.
	tableLocks map[string]*sync.RWMutex
	lockOrder  []string
	readSets   map[string][]string
	fkReads    map[string][]string
	// The lock plans of the fixed footprints, so a statement takes its
	// locks without allocating: per table, a statement's (writePlans,
	// rebuilt with readSets) and a read of it (readPlans); and every
	// table's write lock (allPlan).
	writePlans map[string]*lockPlan
	readPlans  map[string]*lockPlan
	allPlan    *lockPlan

	// dl is where activations go once detected (delivery.go): the
	// dispatcher, the outbox and their stripes, shared by every engine of a
	// fleet (ShareDelivery).
	dl *delivery

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

// group is the set of triggers with one structural signature, translated
// in the engine's mode.
type group struct {
	num      uint32 // in e.triggers
	sig      string
	event    reldb.Event
	view     string
	nav      *compile.NavNode
	actionFn string
	// cond and args are the first member's: every member has their shape,
	// and differs only in constants, which the store holds.
	cond    xquery.Expr
	args    []xquery.Expr
	members *grouping.Store
	// Compiled when the group is created; an UNGROUPED member adds its own
	// plans and SQL triggers when it joins and drops them when it leaves.
	tables []tableGraph
	plans  []*installedPlan
	sql    []sqlTrigger
	stats  groupStats
}

// tableGraph is one base table's share of a translated group: the events
// that fire it, the affected-node graph, and the group's condition
// template and action arguments over that graph's rows. A GROUPED plan
// and each UNGROUPED member's plan for the table are built from it.
type tableGraph struct {
	table    string
	events   []reldb.Event
	an       *affected.ANGraph
	template xqgm.Expr
	args     []xqgm.Expr
}

// sqlTrigger is one installed SQL trigger of a group. member names the
// UNGROUPED member whose plan it runs; "" is a trigger of the whole group.
type sqlTrigger struct {
	name, member string
}

// groupStats are the always-on per-group counters behind GroupStats and
// the /snapshot surface. Plain atomics, recorded on the firing path
// without any obs registry.
type groupStats struct {
	fires        atomic.Int64 // plan/body evaluations
	evalNS       atomic.Int64 // wall time spent in those evaluations
	deltaRows    atomic.Int64 // transition rows seen across firings
	activations  atomic.Int64 // member activations delivered or staged
	rowsReused   atomic.Int64 // xqgm.EvalStats.RowsReused summed over those evaluations
	joinsSkipped atomic.Int64 // xqgm.EvalStats.JoinsSkipped summed likewise
	nodesBuilt   atomic.Int64 // xqgm.EvalStats.NodesBuilt summed likewise
	opsShared    atomic.Int64 // xqgm.EvalStats.OpsShared summed likewise
	opsEvaluated atomic.Int64 // xqgm.EvalStats.OpsEvaluated summed likewise
	rowsProduced atomic.Int64 // xqgm.EvalStats.RowsProduced summed likewise
}

// groupBuild is a compiled translation not yet installed: plans plus the
// SQL triggers to create. Compiling registers nothing with the database,
// so a failed compile has nothing to undo there.
type groupBuild struct {
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
// metadata lock: what a plan reads is immutable once installed, except a
// grouped plan's store, which the firing read-locks.
type installedPlan struct {
	table string
	an    *affected.ANGraph
	root  *xqgm.Operator
	args  []xqgm.Expr // the group's action arguments: a member's constants are input 1
	// A GROUPED plan's rows name their members in the store at trigIDsCol;
	// an UNGROUPED plan is one member's, whose name and constants it keeps.
	store      *grouping.Store
	trigIDsCol int
	member     string
	consts     []xdm.Value
	rendered   atomic.Pointer[renderedSQL] // see sql
	keyCols    [2][]int                    // the affected node's canonical key in a row: NEW side, OLD side

	// lastBatch dedups plan evaluation within one Tx.Commit (the same
	// plan is shared by this table's INSERT/UPDATE/DELETE triggers).
	lastBatch int64
}

// NewEngine creates an engine over db whose trigger groups all run the
// given translation mode.
func NewEngine(db *reldb.DB, mode Mode) *Engine {
	e := &Engine{
		db:         db,
		comp:       compile.New(db.Schema()),
		mode:       mode,
		triggers:   newTriggerTable(),
		groups:     map[string]*group{},
		tableLocks: map[string]*sync.RWMutex{},
		readSets:   map[string][]string{},
		dl:         &delivery{},
	}
	acts := map[string]ActionFunc{}
	e.actions.Store(&acts)
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
	e.allPlan = e.planLocks(allOf(e.lockOrder), nil)
	e.readPlans = make(map[string]*lockPlan, len(e.lockOrder))
	for _, t := range e.lockOrder {
		e.readPlans[t] = e.planLocks(nil, map[string]bool{t: true})
	}
	e.planWrites()
	return e
}

// lockPlan is one footprint's table locks in global name order (write wins
// when a table is in both sets) and the function that releases them.
type lockPlan struct {
	take    []func()
	release func()
}

// noLocks is the plan of an empty footprint.
var noLocks = &lockPlan{release: func() {}}

// planLocks builds the plan that write-locks the tables of write and
// read-locks those of read.
func (e *Engine) planLocks(write, read map[string]bool) *lockPlan {
	var take, undo []func()
	for _, t := range e.lockOrder {
		l := e.tableLocks[t]
		switch {
		case write[t]:
			take, undo = append(take, l.Lock), append(undo, l.Unlock)
		case read[t]:
			take, undo = append(take, l.RLock), append(undo, l.RUnlock)
		}
	}
	return &lockPlan{take: take, release: func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}}
}

// acquireLocks takes the plan's locks and returns the release function.
func (e *Engine) acquireLocks(p *lockPlan) func() {
	for _, lock := range p.take {
		lock()
	}
	return p.release
}

// lockForWrite locks one statement's footprint: the target table for
// writing plus the tables its installed trigger bodies read and the
// tables foreign-key validation may scan (reldb.checkFK reads the
// referenced table's rows even when no trigger is installed on it).
func (e *Engine) lockForWrite(table string) func() {
	e.mu.RLock()
	p, ok := e.writePlans[table]
	if !ok {
		p = noLocks // an unknown table: the statement fails on its own
	}
	unlock := e.acquireLocks(p)
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
	unlock := e.acquireLocks(e.allPlan)
	e.mu.RUnlock()
	return unlock
}

// planWrites rebuilds every table's statement plan from the read sets.
// Caller holds e.mu for writing.
func (e *Engine) planWrites() {
	e.writePlans = make(map[string]*lockPlan, len(e.lockOrder))
	for _, t := range e.lockOrder {
		write := map[string]bool{t: true}
		e.writePlans[t] = e.planLocks(write, e.readFootprint(write))
	}
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
		if e.mode == ModeMaterialized {
			ts := xqgm.Tables(g.nav.Op)
			for _, t := range ts {
				add(t, ts)
			}
			continue
		}
		// Every plan of a table reads what its affected-node graph reads: a
		// GROUPED plan joins the constants table to it, an UNGROUPED one
		// restricts it.
		for _, tg := range g.tables {
			add(tg.table, xqgm.Tables(tg.an.Root))
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
	e.planWrites()
}

// DB returns the underlying relational database.
func (e *Engine) DB() *reldb.DB { return e.db }

// CreateView compiles and registers an XQuery view; View returns it.
func (e *Engine) CreateView(name, src string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.comp.CompileView(name, src)
	return err
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

// batchState is the engine's per-commit scratch riding on
// BatchInfo.EngineState: activation dedup across the commit's plans, the
// commit's wave (whose invocations the prepare check inspects), and the
// one evaluation context over the commit's net deltas that every plan it
// fires evaluates in, borrowed until the prepare phase ends. All firing
// waves of one commit run on the committing goroutine, so no locking is
// needed.
type batchState struct {
	seen map[activation]struct{}
	wave wave
	eval *evalState
}

// stagedState returns a prepared transaction's batch state, or nil when
// no trigger fired.
func stagedState(tx *reldb.Tx) *batchState {
	if b := tx.Staged(); b != nil {
		st, _ := b.EngineState.(*batchState)
		return st
	}
	return nil
}

// Release returns the commit's evaluation context when its prepare phase
// is done: the wave holds nodes and values, never the context's tuples.
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

// CreateTrigger parses and registers an XML trigger. It is live when
// CreateTrigger returns: the first statement after it fires it. A trigger
// whose translation fails to compile (a view with no canonical key, say)
// returns the error and leaves the engine as it was.
func (e *Engine) CreateTrigger(src string) error {
	spec, err := trigger.Parse(src)
	if err != nil {
		return err
	}
	return e.CreateTriggerSpec(spec)
}

// CreateTriggerSpec registers a pre-parsed trigger. A trigger of a new
// group compiles and installs the group's translation, and an UNGROUPED
// member its own plans, under every table's write lock. One joining a
// GROUPED or MATERIALIZED group adds a row to its store, which the group's
// plans read as they run: it compiles nothing and locks no table.
func (e *Engine) CreateTriggerSpec(spec *trigger.Spec) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, _, at := e.triggers.find(spec.Name); at >= 0 {
		return fmt.Errorf("core: duplicate trigger %q", spec.Name)
	}
	if e.action(spec.ActionFn) == nil {
		return fmt.Errorf("core: action function %q is not registered", spec.ActionFn)
	}
	nav, err := e.resolvePath(spec)
	if err != nil {
		return err
	}
	e.sigBuf = appendSignature(e.sigBuf[:0], spec)
	g, ok := e.groups[string(e.sigBuf)]
	if !ok {
		// The group's first member checks that its shape translates; the
		// template tells the store which constants its plans probe by.
		cc := &condCompiler{nav: nav, layout: identityLayout(nav)}
		cond, _, err := cc.template(spec.Condition, spec.ActionArgs)
		if err != nil {
			return fmt.Errorf("core: trigger %s: %w", spec.Name, err)
		}
		g = &group{sig: string(e.sigBuf), event: spec.Event, view: spec.ViewName, nav: nav, actionFn: spec.ActionFn,
			cond: spec.Condition, args: spec.ActionArgs, members: grouping.NewStore(cond, cc.nCond)}
	}
	// A member has its group's shape, so its literals are the template's
	// constants in order. The store keeps copies: the spec's strings point
	// into its source.
	consts := appendLits(nil, spec.Condition, spec.ActionArgs)
	for i, v := range consts {
		if v.Kind() == xdm.KindString {
			consts[i] = xdm.Str(strings.Clone(v.AsString()))
		}
	}
	h, err := g.members.Add(strings.Clone(spec.Name), consts)
	if err != nil {
		return err
	}
	if !ok {
		e.groups[g.sig] = g
		e.order = append(e.order, g.sig)
		e.triggers.addGroup(g)
	}
	if err := e.join(g, h, !ok); err != nil {
		e.leave(g, h)
		return err
	}
	e.triggers.insert(g, h)
	return nil
}

// join installs what member h of g needs to fire: a new group's
// translation, then an UNGROUPED member's own plans.
func (e *Engine) join(g *group, h int32, isNew bool) error {
	if !isNew && e.mode != ModeUngrouped {
		return nil
	}
	// Installing SQL triggers changes what the write path fires, so it
	// excludes every statement in flight.
	unlock := e.acquireLocks(e.allPlan)
	defer unlock()
	if isNew {
		b, err := e.compileGroup(g)
		if err != nil {
			return fmt.Errorf("core: building trigger group %q: %w", g.sig, err)
		}
		if err := e.install(g, b, ""); err != nil {
			return fmt.Errorf("core: installing trigger group %q: %w", g.sig, err)
		}
		e.recomputeReadSets()
	}
	if e.mode != ModeUngrouped {
		return nil
	}
	b, err := e.compileMember(g, h)
	if err != nil {
		return fmt.Errorf("core: building trigger %q: %w", g.members.Name(h), err)
	}
	if err := e.install(g, b, g.members.Name(h)); err != nil {
		return fmt.Errorf("core: installing trigger %q: %w", g.members.Name(h), err)
	}
	return nil
}

// DropTrigger removes an XML trigger; it fires on no statement after
// DropTrigger returns. An UNGROUPED member drops its SQL triggers, and the
// last member of any group drops the group's, under every table's write
// lock; leaving a GROUPED or MATERIALIZED group with members left removes
// a row from its store and locks no table. With async dispatch enabled it
// then waits out every statement and batch in flight — one that evaluated
// before the drop, or staged an invocation, holds a table lock until it
// has enqueued — and drains the trigger's delivery lane, so deliveries
// already enqueued for it complete before DropTrigger returns and the lane
// is released.
func (e *Engine) DropTrigger(name string) error {
	e.mu.Lock()
	g, h, at := e.triggers.find(name)
	if at >= 0 {
		e.triggers.remove(at)
		e.leave(g, h)
	}
	e.mu.Unlock()
	if at < 0 {
		return fmt.Errorf("core: no trigger %q", name)
	}
	if d := e.dl.dispatcher.Load(); d != nil {
		// Wait and drain outside the metadata lock: lane deliveries may take
		// arbitrary time, and engine calls must not queue up behind the drop.
		e.lockAllForWrite()()
		d.DrainTrigger(name)
	}
	return nil
}

// leave removes member h from g, with what it installed: an UNGROUPED
// member's plans and SQL triggers, and the group itself, with its SQL
// triggers, when no member is left. Caller holds e.mu.
func (e *Engine) leave(g *group, h int32) {
	name := g.members.Name(h)
	g.members.Remove(h)
	last := g.members.Len() == 0
	if !last && e.mode != ModeUngrouped {
		return
	}
	unlock := e.acquireLocks(e.allPlan)
	defer unlock()
	g.sql = slices.DeleteFunc(g.sql, func(t sqlTrigger) bool {
		if last || t.member == name {
			_ = e.db.DropTrigger(t.name)
			return true
		}
		return false
	})
	if !last {
		g.plans = slices.DeleteFunc(g.plans, func(p *installedPlan) bool { return p.member == name })
		return
	}
	e.triggers.dropGroup(g)
	delete(e.groups, g.sig)
	e.order = slices.DeleteFunc(e.order, func(s string) bool { return s == g.sig })
	e.recomputeReadSets()
}

// identityLayout is the view's row: NEW columns, then OLD (a new group's
// store, MATERIALIZED's tuple pairs).
func identityLayout(nav *compile.NavNode) Layout {
	return Layout{New: 0, Old: nav.Op.OutWidth()}
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

// appendSignature appends spec's group signature to b. The signature groups
// structurally similar triggers: same view, path, event, condition shape
// (literals abstracted), and action shape. It does not depend on the mode.
func appendSignature(b []byte, spec *trigger.Spec) []byte {
	b = append(b, spec.ViewName...)
	b = append(b, '|')
	b = spec.AppendPath(b)
	b = append(b, '|')
	b = append(b, spec.Event.String()...)
	b = append(b, '|')
	b = appendAbstract(b, spec.Condition)
	b = append(b, '|')
	b = append(b, spec.ActionFn...)
	for _, a := range spec.ActionArgs {
		b = append(b, ',')
		b = appendAbstract(b, a)
	}
	return b
}

// appendAbstract appends the shape of an expression: its AST rendered with
// "?" for each literal, met in the order appendLits collects them.
func appendAbstract(b []byte, ex xquery.Expr) []byte {
	if ex == nil {
		return append(b, "<none>"...)
	}
	return xquery.AppendAbstract(b, ex)
}

// Flush does nothing: trigger DDL takes effect when CreateTrigger and
// DropTrigger return. It remains for callers written when installation
// waited for it.
func (e *Engine) Flush() error { return nil }

func allOf(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

// compileGroup compiles a new group's translation without installing
// anything: no SQL triggers are created, no indexes built. A translated
// group keeps a tableGraph per base table whose events fire it; a GROUPED
// group builds its one plan per table from it, an UNGROUPED group nothing
// more until a member joins. Caller holds e.mu and the table locks (a
// MATERIALIZED compile evaluates its initial snapshot).
func (e *Engine) compileGroup(g *group) (*groupBuild, error) {
	if e.mode == ModeMaterialized {
		return e.compileMaterialized(g)
	}
	at := map[string]int{}
	for _, te := range events.GetSrcEvents(e.db.Schema(), g.nav.Op, g.event) {
		i, seen := at[te.Table]
		if !seen {
			tg, err := e.compileTable(g, te.Table)
			if err != nil {
				return nil, err
			}
			i = len(g.tables)
			at[te.Table] = i
			g.tables = append(g.tables, tg)
		}
		g.tables[i].events = append(g.tables[i].events, te.Event)
	}
	b := &groupBuild{}
	if e.mode == ModeUngrouped {
		return b, nil
	}
	// GROUPED: one plan per table joining the group's constants table,
	// whose TrigIDs follows the affected-node graph's columns.
	for _, tg := range g.tables {
		plan := newInstalledPlan(g, tg)
		plan.root = grouping.BuildGroupedPlan(g.members, tg.template, tg.an.Root)
		plan.store, plan.trigIDsCol = g.members, tg.an.Root.OutWidth()
		if err := xqgm.Prepare(plan.root); err != nil {
			return nil, err
		}
		b.add(e, g, plan, tg.events)
	}
	return b, nil
}

// compileTable builds g's affected-node graph for one base table and
// compiles the group's condition and arguments over its rows.
func (e *Engine) compileTable(g *group, table string) (tableGraph, error) {
	opts := affected.Options{Prune: true}
	if affected.InjectiveFor(g.nav.Op, table) {
		opts.SkipValueCompare = true
	} else {
		opts.CompareCols = []int{g.nav.NodeCol}
	}
	an, err := affected.CreateANGraph(e.db.Schema(), g.event, g.nav.Op, table, opts)
	if err != nil {
		return tableGraph{}, err
	}
	cc := &condCompiler{nav: g.nav, layout: Layout{New: an.NewCol(0), Old: an.OldCol(0)}}
	template, args, err := cc.template(g.cond, g.args)
	if err != nil {
		return tableGraph{}, err
	}
	return tableGraph{table: table, an: an, template: template, args: args}, nil
}

// compileMember builds UNGROUPED member h's plans, the paper's per-trigger
// translation: one per table, over the group's shared affected-node graph
// for it. The member's condition first filters the affected keys it can
// hold for, so the shared graph builds nodes only for a firing it may
// deliver.
func (e *Engine) compileMember(g *group, h int32) (*groupBuild, error) {
	b := &groupBuild{}
	name, consts := g.members.Name(h), g.members.AppendConsts(nil, h)
	for _, tg := range g.tables {
		plan := newInstalledPlan(g, tg)
		plan.member, plan.consts = name, consts
		plan.root = tg.an.Root
		if tg.template != nil {
			bound := grouping.Bind(tg.template, consts)
			plan.root = xqgm.NewSelect(tg.an.Restrict(bound), bound)
		}
		// One by one, not Prepare(roots...): an evaluation sizes its memo by
		// the root's node id, and ids prepared together count every member's
		// Select before this one.
		if err := xqgm.Prepare(plan.root); err != nil {
			return nil, err
		}
		b.add(e, g, plan, tg.events)
	}
	return b, nil
}

// add files plan with an SQL trigger per event that fires it.
func (b *groupBuild) add(e *Engine, g *group, plan *installedPlan, evs []reldb.Event) {
	b.plans = append(b.plans, plan)
	for _, ev := range evs {
		b.installs = append(b.installs, pendingTrigger{
			table: plan.table, event: ev, prefix: "xmlTrig",
			body: func(ctx *reldb.FireContext) error { return e.fire(g, plan, ctx) },
		})
	}
}

// install adds a compiled build to g: its plans, the indexes they probe,
// and its SQL triggers, recorded as member's. Runs under e.mu and every
// table's write lock, so no statement ever observes a half-installed
// build; a failure leaves what it installed for the caller's leave.
func (e *Engine) install(g *group, b *groupBuild, member string) error {
	g.plans = append(g.plans, b.plans...)
	for _, p := range b.plans {
		e.ensureIndexes(p.root)
	}
	for _, pt := range b.installs {
		e.sqlSeq++
		name := fmt.Sprintf("%s_%d", pt.prefix, e.sqlSeq)
		if err := e.db.CreateTrigger(&reldb.SQLTrigger{
			Name: name, Table: pt.table, Event: pt.event, Body: pt.body,
		}); err != nil {
			return err
		}
		g.sql = append(g.sql, sqlTrigger{name: name, member: member})
	}
	return nil
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
	return e.activate(g, plan, e.statementEval(ctx), ctx)
}

// statementEval returns the statement's evaluation context: every plan
// that fires for the statement evaluates in one context over its
// transition tables, and stages on its wave, borrowed until reldb releases
// the statement (see reldb.FireContext's sharing contract).
func (e *Engine) statementEval(ctx *reldb.FireContext) *evalState {
	es, ok := ctx.EngineState.(*evalState)
	if !ok {
		es = e.evals.statement(ctx.Table, ctx.Inserted, ctx.Deleted)
		ctx.EngineState = es
	}
	return es
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
	if err == nil {
		err = e.stage(ctx, g, invs)
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
	g.stats.opsEvaluated.Add(int64(es.Stats.OpsEvaluated))
	g.stats.rowsProduced.Add(int64(es.Stats.RowsProduced))
	if sh := e.shadow.Load(); sh != nil {
		if err := (*sh).VerifyPlan(plan.table, plan.sql(), es.Deltas, plan.labelled(rows)); err != nil {
			return nil, fmt.Errorf("core: plan shadow: %w", err)
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if len(rows) > 1 {
		rows = es.sortRows(plan, rows)
	}
	// The arguments of every activation come from one slab, cut in turn: at
	// most one activation per row and member.
	es.invs, es.args = es.invs[:0], nil
	if len(plan.args) > 0 {
		n := len(rows)
		if plan.store != nil {
			n = 0
			for _, row := range rows {
				n += len(plan.store.RowMembers(row[plan.trigIDsCol]))
			}
		}
		es.args = make([]xdm.Value, n*len(plan.args))
	}
	for _, row := range rows {
		if plan.store == nil {
			if err := es.invoke(g, plan, seen, row, plan.member, plan.consts); err != nil {
				return nil, err
			}
			continue
		}
		for _, m := range plan.store.RowMembers(row[plan.trigIDsCol]) {
			if len(plan.args) > 0 {
				es.consts = plan.store.AppendConsts(es.consts[:0], m)
			}
			if err := es.invoke(g, plan, seen, row, plan.store.Name(m), es.consts); err != nil {
				return nil, err
			}
		}
	}
	clear(es.sorted)
	es.args = nil
	return es.invs, nil
}

// rowKey is a plan's result row and where its sort keys are in
// evalState.sortBuf: the TupleKey of its affected-key columns, and of the
// whole row once a tie needed it (full[1] is 0 until then).
type rowKey struct {
	row       xqgm.Tuple
	key, full [2]int32
}

// sortRows returns the plan's rows in activation order (the ORDER BY of
// Figure 16): by TrigIDs, then by the row, in es.sorted. The leading
// affected-key columns decide that order whenever they differ (TupleKey
// length-prefixes each column), and affected keys are unique per row and
// TrigIDs, so the rest of the row — which serialises its OLD and NEW
// nodes — is keyed only to break a tie: the rows of a DELETE graph, whose
// leading key is NULL. The keys are bytes in one buffer, which the state
// keeps with the key and order slices for the next firing.
func (es *evalState) sortRows(plan *installedPlan, rows []xqgm.Tuple) []xqgm.Tuple {
	ks, ord, buf := es.sortKeys[:0], es.sortOrd[:0], es.sortBuf[:0]
	w := plan.an.KeyWidth()
	for i, row := range rows {
		lo := len(buf)
		buf = xdm.AppendTupleKey(buf, row[:w])
		ks = append(ks, rowKey{row: row, key: [2]int32{int32(lo), int32(len(buf))}})
		ord = append(ord, int32(i))
	}
	full := func(k *rowKey) []byte {
		if k.full[1] == 0 {
			lo := len(buf)
			buf = xdm.AppendTupleKey(buf, k.row)
			k.full = [2]int32{int32(lo), int32(len(buf))}
		}
		return buf[k.full[0]:k.full[1]]
	}
	slices.SortStableFunc(ord, func(i, j int32) int {
		a, b := &ks[i], &ks[j]
		if plan.store != nil {
			if c := plan.store.CompareIDs(a.row[plan.trigIDsCol], b.row[plan.trigIDsCol]); c != 0 {
				return c
			}
		}
		if c := bytes.Compare(buf[a.key[0]:a.key[1]], buf[b.key[0]:b.key[1]]); c != 0 {
			return c
		}
		return bytes.Compare(full(a), full(b))
	})
	sorted := es.sorted[:0]
	for _, i := range ord {
		sorted = append(sorted, ks[i].row)
	}
	clear(ks)
	es.sortKeys, es.sortOrd, es.sortBuf, es.sorted = ks, ord, buf, sorted
	return sorted
}

// invoke appends to es.invs the activation of the trigger named name, whose
// constants are consts, by a row of plan's result, unless seen has it. Its
// arguments are cut from es.args.
func (es *evalState) invoke(g *group, plan *installedPlan, seen map[activation]struct{}, row xqgm.Tuple, name string, consts []xdm.Value) error {
	if seen != nil {
		k := activation{g, name, xdm.ColsKey(row, plan.keyCols[0]), xdm.ColsKey(row, plan.keyCols[1])}
		if _, dup := seen[k]; dup {
			return nil
		}
		seen[k] = struct{}{}
	}
	var args []xdm.Value
	if n := len(plan.args); n > 0 {
		args, es.args = es.args[:n:n], es.args[n:]
		es.env.In = [2][]xdm.Value{row, consts}
		for i, ae := range plan.args {
			v, err := ae.Eval(&es.env)
			if err != nil {
				return err
			}
			args[i] = v
		}
		es.env.In = [2][]xdm.Value{}
	}
	es.invs = append(es.invs, Invocation{Trigger: name, Event: g.event,
		Old: row[plan.an.OldCol(g.nav.NodeCol)].AsNode(), New: row[plan.an.NewCol(g.nav.NodeCol)].AsNode(), Args: args})
	return nil
}

// labelled returns a grouped plan's rows with each TrigIDs cell holding
// its row's label, as the plan's SQL lists it; others as they are.
func (p *installedPlan) labelled(rows []xqgm.Tuple) []xqgm.Tuple {
	if p.store == nil {
		return rows
	}
	out := make([]xqgm.Tuple, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
		out[i][p.trigIDsCol] = xdm.Str(p.store.Label(r[p.trigIDsCol]))
	}
	return out
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

// newInstalledPlan starts a plan over tg's rows for one base table of g.
func newInstalledPlan(g *group, tg tableGraph) *installedPlan {
	p := &installedPlan{table: tg.table, an: tg.an, args: tg.args}
	for _, kc := range g.nav.KeyCols {
		p.keyCols[0] = append(p.keyCols[0], tg.an.NewCol(kc))
		p.keyCols[1] = append(p.keyCols[1], tg.an.OldCol(kc))
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
		XMLTriggers: e.triggers.n,
		SQLTriggers: e.db.TriggerCount(),
		Groups:      len(e.groups),
		Fires:       e.fires.Load(),
		Actions:     e.actsRun.Load(),
	}
	e.mu.RUnlock()
	st.DB = e.db.Stats()
	if d := e.dl.dispatcher.Load(); d != nil {
		st.Async = true
		st.Dispatch = d.Stats()
	}
	if ob := e.dl.ob.Load(); ob != nil {
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
			if p.member != "" {
				key = p.member + "|" + sig
			}
			out[key+"/"+p.table] = p.sql()
		}
	}
	return out
}

// --- statement helpers: lock the statement's table footprint, then
// delegate to the database ---

// Insert inserts rows.
func (e *Engine) Insert(table string, rows ...reldb.Row) error {
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.Insert(table, rows...)
}

// Update updates the rows pred selects.
func (e *Engine) Update(table string, pred func(reldb.Row) bool, set func(reldb.Row) reldb.Row) (int, error) {
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.Update(table, pred, set)
}

// UpdateByPK updates one row.
func (e *Engine) UpdateByPK(table string, key []xdm.Value, set func(reldb.Row) reldb.Row) (bool, error) {
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.UpdateByPK(table, key, set)
}

// Delete deletes the rows pred selects.
func (e *Engine) Delete(table string, pred func(reldb.Row) bool) (int, error) {
	unlock := e.lockForWrite(table)
	defer unlock()
	return e.db.Delete(table, pred)
}

// DeleteByPK deletes one row.
func (e *Engine) DeleteByPK(table string, key ...xdm.Value) (bool, error) {
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
	unlock := e.acquireLocks(e.readPlans[table])
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

// BeginBatch write-locks every table and begins a batched transaction. The caller must finish the handle with
// Commit or Rollback (or Run), or the engine stays locked.
func (e *Engine) BeginBatch() (*BatchHandle, error) {
	unlock := e.lockAllForWrite()
	h := &BatchHandle{e: e, tx: e.db.Begin(), unlock: unlock}
	if m := e.obsp.Load(); m != nil {
		h.span = m.reg.StartSpan("tx")
	}
	return h, nil
}

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
	st := stagedState(h.tx)
	if st != nil && h.span != nil {
		sp.SetAttr("staged", strconv.Itoa(len(st.wave.tasks)))
	}
	if chk := h.e.prepCheck.Load(); chk != nil {
		var staged []Invocation
		if st != nil {
			staged = st.wave.invocations()
		}
		if err := (*chk)(staged); err != nil {
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
	if st := stagedState(h.tx); st != nil {
		// Hand the commit span to the commit's wave: its group append and
		// inline deliveries trace as its children.
		st.wave.span = sp
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

// errEscalate is what Run returns for a handle with a declared footprint
// whose callback touched an undeclared table: the attempt rolled back, and
// BatchTables re-runs the callback under Batch.
var errEscalate = errors.New("core: batch touched an undeclared table")

// Run drives fn to commit or rollback with the panic safety of Batch. On a
// handle with a declared footprint (BeginBatchTables), a callback that
// touched an undeclared table rolls the handle back and Run says so;
// BatchTables then re-runs the callback under Batch.
func (h *BatchHandle) Run(fn func(*reldb.Tx) error) error {
	finished := false
	defer func() {
		if !finished {
			_ = h.Rollback()
		}
	}()
	err := fn(h.tx)
	finished = true
	if h.tx.NeedsEscalation() {
		// The declared footprint was too small. The handle's mutations are
		// partial (the undeclared statement was refused), so the whole
		// attempt rolls back. Checked on the handle, not on fn's error: a
		// callback that swallowed the refusal and returned nil must not
		// commit its partial declared-table mutations.
		if rbErr := h.Rollback(); rbErr != nil {
			return fmt.Errorf("core: lock escalation rollback failed: %w", rbErr)
		}
		return errEscalate
	}
	if err != nil {
		if rbErr := h.Rollback(); rbErr != nil {
			return fmt.Errorf("%w (rollback failed: %v)", err, rbErr)
		}
		return err
	}
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
	if err := h.Run(fn); !errors.Is(err, errEscalate) {
		return err
	}
	return e.Batch(fn)
}

// BeginBatchTables is BeginBatch with a declared footprint: only the
// listed tables are write-locked (plus their installed triggers' and
// foreign-key checks' read sets), and the transaction is restricted to
// them, so handles with disjoint footprints run concurrently.
func (e *Engine) BeginBatchTables(tables []string) (*BatchHandle, error) {
	e.mu.RLock()
	write := map[string]bool{}
	for _, t := range tables {
		if _, ok := e.tableLocks[t]; !ok {
			e.mu.RUnlock()
			return nil, fmt.Errorf("core: unknown table %q", t)
		}
		write[t] = true
	}
	unlock := e.acquireLocks(e.planLocks(write, e.readFootprint(write)))
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
	unlock := e.acquireLocks(e.planLocks(nil, allOf(xqgm.Tables(v.Root))))
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
