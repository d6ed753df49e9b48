package shard

import (
	"fmt"
	"sync"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/trigger"
	"quark/internal/xdm"
)

// Config parameterizes a sharded engine.
type Config struct {
	// Shards is the number of embedded engine instances; defaults to 1.
	Shards int
	// Mode is the trigger translation mode every shard uses.
	Mode core.Mode
	// Routing overrides per-table routing rules (see TableRouting); tables
	// without an entry default to child-via-first-FK or root-by-PK.
	Routing []TableRouting
	// Dir, when set, persists the routing directory (checkpoint +
	// append-only delta log, see DirStore) under this path. It may be the
	// outbox's directory: the outbox ignores files that are not seg-*.log.
	// Reopening an engine over an existing Dir adopts the persisted
	// directory and group assignments — the caller then reloads the base
	// data (parents before children), and every row lands back on the
	// shard it occupied before the restart, including rebalanced groups.
	Dir string
}

// Engine mirrors the core Engine API over N embedded engines, one per
// shard. Views, triggers, and actions registered here are installed on
// every shard (a trigger's spec is parsed once and compiled per shard
// against that shard's store); statements route to the owning shard, and
// statements whose footprint spans shards run as distributed transactions
// committed in shard order, so merged per-shard deltas activate in
// deterministic (shard, storage-key) order.
//
// Action delivery is shared: every shard delivers through the first
// shard's delivery (core.Engine.ShareDelivery), so EnableAsyncDispatch
// gives the fleet ONE dispatcher, whose per-trigger FIFO lanes span
// shards, and EnableOutbox one log, sink, and append+enqueue stripe set,
// so log order is a global per-trigger order and a replay reproduces the
// fleet's deliveries exactly.
type Engine struct {
	router *Router
	schema *schema.Schema
	mode   core.Mode

	// topo guards the fleet slices, which Grow/Shrink replace wholesale
	// (readers snapshot them; an old snapshot stays valid because the
	// backing arrays are never mutated in place).
	topo    sync.RWMutex
	engines []*core.Engine
	dbs     []*reldb.DB

	// Registered actions, views, and triggers are retained (in
	// registration order) so Grow can replay them onto appended shards.
	regMu     sync.Mutex
	actions   []namedAction
	views     []namedView
	trigSpecs []*trigger.Spec

	store *DirStore // nil: in-memory directory only

	// rebalanceBarrier, when set, runs between a rebalance transaction's
	// prepare-all and commit-all phases (the kill-mid-rebalance tests'
	// seam; see SetRebalanceBarrier).
	rebalanceBarrier func()
}

var _ core.Surface[*Tx] = (*Engine)(nil)

type namedAction struct {
	name string
	fn   core.ActionFunc
}

type namedView struct {
	name, src string
}

// Stats reports fleet-wide counters plus the per-shard breakdown.
type Stats struct {
	Shards      int
	PerShard    []core.Stats
	XMLTriggers int   // registered triggers (same on every shard)
	Fires       int64 // summed over shards
	Actions     int64 // summed over shards
	DirEntries  int   // routing directory size
	Async       bool
	Dispatch    dispatch.Stats
	Outbox      bool
	OutboxLog   outbox.Stats
}

// New builds a sharded engine: cfg.Shards embedded engines over fresh
// stores of the same schema, and a router resolved from cfg.Routing.
// With cfg.Dir set, the persisted routing directory is adopted (see
// Config.Dir); the persisted shard count, when present, must match
// cfg.Shards.
func New(s *schema.Schema, cfg Config) (*Engine, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	router, err := NewRouter(s, n, cfg.Routing)
	if err != nil {
		return nil, err
	}
	e := &Engine{router: router, schema: s, mode: cfg.Mode}
	if cfg.Dir != "" {
		store, st, err := OpenDirStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		if st.Shards != 0 && st.Shards != n {
			_ = store.Close()
			return nil, fmt.Errorf("shard: persisted directory has %d shards, config asks for %d", st.Shards, n)
		}
		for k, si := range st.Dir { //quark:sorted validation only: any order rejects the same bad entry set
			if si < 0 || si >= n {
				_ = store.Close()
				return nil, fmt.Errorf("shard: persisted directory entry %q references shard %d of %d", k, si, n)
			}
		}
		for k, si := range st.Assign { //quark:sorted validation only: any order rejects the same bad entry set
			if si < 0 || si >= n {
				_ = store.Close()
				return nil, fmt.Errorf("shard: persisted group assignment %q references shard %d of %d", k, si, n)
			}
		}
		router.adopt(st.Dir, st.Assign)
		router.attachStore(store)
		e.store = store
		// Re-checkpoint immediately: the persisted state now includes the
		// shard count even for a fresh directory, and the delta log resets
		// to empty for this process's run.
		if err := store.Checkpoint(router.state()); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		db, err := reldb.Open(s)
		if err != nil {
			return nil, err
		}
		ce := core.NewEngine(db, cfg.Mode)
		if i > 0 {
			ce.ShareDelivery(e.engines[0])
		}
		e.dbs = append(e.dbs, db)
		e.engines = append(e.engines, ce)
	}
	return e, nil
}

// fleet snapshots the engine and store slices under the topology lock.
// Grow/Shrink replace the slices wholesale, so a snapshot stays
// internally consistent for the duration of one statement.
func (e *Engine) fleet() ([]*core.Engine, []*reldb.DB) {
	e.topo.RLock()
	defer e.topo.RUnlock()
	return e.engines, e.dbs
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int {
	engines, _ := e.fleet()
	return len(engines)
}

// Shard returns the i-th embedded engine (inspection and tests).
func (e *Engine) Shard(i int) *core.Engine {
	engines, _ := e.fleet()
	return engines[i]
}

// Router returns the engine's router.
func (e *Engine) Router() *Router { return e.router }

// OwnerOf reports which shard currently owns the row with the given
// primary key, according to the directory.
func (e *Engine) OwnerOf(table string, key ...xdm.Value) (int, bool) {
	return e.router.lookup(table, xdm.TupleKey(key), nil)
}

// RegisterAction installs an action function on every shard (current and
// future: Grow replays registrations onto appended shards).
func (e *Engine) RegisterAction(name string, fn core.ActionFunc) {
	engines, _ := e.fleet()
	for _, ce := range engines {
		ce.RegisterAction(name, fn)
	}
	e.regMu.Lock()
	e.actions = append(e.actions, namedAction{name, fn})
	e.regMu.Unlock()
}

// CreateView compiles and registers the view on every shard (current and
// future).
func (e *Engine) CreateView(name, src string) error {
	engines, _ := e.fleet()
	for _, ce := range engines {
		if err := ce.CreateView(name, src); err != nil {
			return err
		}
	}
	e.regMu.Lock()
	e.views = append(e.views, namedView{name, src})
	e.regMu.Unlock()
	return nil
}

// CreateTrigger parses the trigger once and registers it on every shard;
// each shard compiles its own plans against its own store before its
// CreateTrigger returns. On a mid-fleet failure, a compile error included,
// the already-registered shards are rolled back so the fleet never
// disagrees about the trigger population.
func (e *Engine) CreateTrigger(src string) error {
	spec, err := trigger.Parse(src)
	if err != nil {
		return err
	}
	return e.CreateTriggerSpec(spec)
}

// CreateTriggerSpec registers a pre-parsed trigger on every shard.
func (e *Engine) CreateTriggerSpec(spec *trigger.Spec) error {
	engines, _ := e.fleet()
	for i, ce := range engines {
		if err := ce.CreateTriggerSpec(spec); err != nil {
			for j := 0; j < i; j++ {
				_ = engines[j].DropTrigger(spec.Name)
			}
			return err
		}
	}
	e.regMu.Lock()
	e.trigSpecs = append(e.trigSpecs, spec)
	e.regMu.Unlock()
	return nil
}

// DropTrigger removes the trigger from every shard (draining its shared
// delivery lane via the per-shard drop path).
func (e *Engine) DropTrigger(name string) error {
	var first error
	engines, _ := e.fleet()
	for _, ce := range engines {
		if err := ce.DropTrigger(name); err != nil && first == nil {
			first = err
		}
	}
	e.regMu.Lock()
	for i, sp := range e.trigSpecs {
		if sp.Name == name {
			e.trigSpecs = append(e.trigSpecs[:i], e.trigSpecs[i+1:]...)
			break
		}
	}
	e.regMu.Unlock()
	return first
}

// SetPrepareCheck installs (or, with nil, clears) the transaction
// admission check on every shard of the current fleet (see
// core.Engine.SetPrepareCheck; Grow does not replay it): an error from any
// shard's check fails that shard's prepare, and the distributed
// transaction rolls back everywhere.
func (e *Engine) SetPrepareCheck(fn func([]core.Invocation) error) {
	engines, _ := e.fleet()
	for _, ce := range engines {
		ce.SetPrepareCheck(fn)
	}
}

// EnableAsyncDispatch switches the fleet's shared delivery to one
// bounded-queue worker pool: per-trigger FIFO lanes span shards, so a
// trigger's deliveries never reorder or run concurrently even when it
// fires on several shards.
func (e *Engine) EnableAsyncDispatch(cfg dispatch.Config) error {
	return e.Shard(0).EnableAsyncDispatch(cfg)
}

// EnableOutbox makes the fleet's shared delivery durable through ONE log,
// sink, and append+enqueue stripe set, so the log's per-trigger order is
// the fleet's delivery order and a replay reproduces it.
func (e *Engine) EnableOutbox(lg *outbox.Log, sink outbox.Sink) error {
	return e.Shard(0).EnableOutbox(lg, sink)
}

// Drain blocks until every queued async delivery across the fleet has
// completed; a no-op in synchronous mode.
func (e *Engine) Drain() { e.Shard(0).Drain() }

// Close drains and stops the fleet's shared dispatcher, and closes the
// directory store. Idempotent; safe on a synchronous engine.
func (e *Engine) Close() error {
	first := e.Shard(0).Close()
	if e.store != nil {
		if err := e.store.Close(); err != nil && first == nil {
			first = err
		}
		e.store = nil
	}
	return first
}

// Stats returns fleet counters with the per-shard breakdown.
func (e *Engine) Stats() Stats {
	engines, _ := e.fleet()
	st := Stats{Shards: len(engines), DirEntries: e.router.DirSize()}
	for _, ce := range engines {
		s := ce.Stats()
		st.PerShard = append(st.PerShard, s)
		st.Fires += s.Fires
		st.Actions += s.Actions
	}
	if len(st.PerShard) > 0 {
		// Every shard reports the delivery they share.
		s0 := st.PerShard[0]
		st.XMLTriggers = s0.XMLTriggers
		st.Async, st.Dispatch, st.Outbox, st.OutboxLog = s0.Async, s0.Dispatch, s0.Outbox, s0.OutboxLog
	}
	return st
}

// --- statement surface: route to the owning shard when the statement's
// footprint is provably one shard; otherwise run a distributed tx ---

// Insert routes each row to its owning shard. A statement whose rows all
// land on one shard takes the fast path; a statement spanning shards runs
// as a distributed transaction so validation failures keep single-
// statement atomicity (the single engine's applyInsert is all-or-nothing,
// and so is the rolled-back fleet). Parents must be inserted before
// children (the directory resolves child ownership from the parent's
// entry). Primary keys are globally unique: the directory doubles as the
// fleet-wide PK index, rejecting a key that already exists on ANY shard —
// matching the single engine's duplicate-key error even when the
// duplicate's routing columns hash elsewhere.
func (e *Engine) Insert(table string, rows ...reldb.Row) error {
	rt, err := e.router.route(table)
	if err != nil {
		return err
	}
	engines, _ := e.fleet()
	groups := make(map[int][]reldb.Row)
	keys := make(map[int][]string)
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		if len(row) != len(rt.def.Columns) {
			// Let an engine produce the canonical arity error (under its
			// table lock; validation fails before anything is applied).
			return engines[0].Insert(table, row)
		}
		k := pkKeyOf(rt, row)
		o := e.router.ownerForRow(rt, row, nil)
		if seen[k] {
			return fmt.Errorf("shard: duplicate primary key in table %s", table)
		}
		seen[k] = true
		if cur, ok := e.router.lookup(table, k, nil); ok && cur != o {
			// The same key lives on another shard; the owning reldb could
			// never see the collision, so the router rejects it.
			return fmt.Errorf("shard: duplicate primary key in table %s (row exists on shard %d)", table, cur)
		}
		groups[o] = append(groups[o], row)
		keys[o] = append(keys[o], k)
	}
	if len(groups) > 1 {
		// Cross-shard statement: distributed transaction for atomicity.
		return e.runTxTables([]string{table}, func(tx *Tx) error {
			return tx.Insert(table, rows...)
		})
	}
	for si := range engines {
		g := groups[si]
		if len(g) == 0 {
			continue
		}
		err := engines[si].Insert(table, g...)
		if err == nil {
			for ri, k := range keys[si] {
				e.router.record(table, k, si)
				if rt.parent == "" {
					e.router.recordAssign(groupKeyOf(rt, g[ri]), si)
				}
			}
			continue
		}
		// The statement failed, but reldb applies rows BEFORE firing: a
		// trigger-action error leaves the rows in the store (AFTER-trigger
		// semantics). Reconcile the directory with what actually exists so
		// the rows stay addressable, exactly as on a single engine.
		for ri, k := range keys[si] {
			if _, found, _ := engines[si].GetByPK(table, pkVals(rt, g[ri])...); found {
				e.router.record(table, k, si)
				if rt.parent == "" {
					e.router.recordAssign(groupKeyOf(rt, g[ri]), si)
				}
			}
		}
		return err
	}
	return nil
}

// UpdateByPK updates one row on its owning shard. If the update changes
// the row's routing key to another shard, the statement runs as a
// distributed transaction migrating the row (and, for a root, its
// co-located subtree) to the new owner. The set function must be pure:
// the router probes it against a copy of the current row to decide the
// statement's footprint before applying it for real.
func (e *Engine) UpdateByPK(table string, key []xdm.Value, set func(reldb.Row) reldb.Row) (bool, error) {
	rt, err := e.router.route(table)
	if err != nil {
		return false, err
	}
	engines, _ := e.fleet()
	pk := xdm.TupleKey(key)
	owner, ok := e.router.lookup(table, pk, nil)
	if !ok {
		return false, nil
	}
	cur, found, err := engines[owner].GetByPK(table, key...)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	next := set(cur.Copy())
	if len(next) != len(rt.def.Columns) {
		// Malformed post-image: let the owning engine produce the error.
		return engines[owner].UpdateByPK(table, key, set)
	}
	newOwner := e.router.ownerForRow(rt, next, nil)
	if nk := pkKeyOf(rt, next); nk != pk {
		// Fleet-wide PK uniqueness on PK moves (see Insert): a collision
		// on another shard is invisible to the destination's reldb.
		if cur, ok := e.router.lookup(table, nk, nil); ok && cur != newOwner {
			return false, fmt.Errorf("shard: duplicate primary key in table %s (row exists on shard %d)", table, cur)
		}
	}
	if newOwner == owner {
		changed, err := engines[owner].UpdateByPK(table, key, set)
		applied := changed && err == nil
		if err != nil {
			// A firing error leaves the applied update in place
			// (AFTER-trigger semantics); reconcile the directory with
			// the store so a PK-moved row stays addressable.
			_, applied, _ = engines[owner].GetByPK(table, pkVals(rt, next)...)
		}
		if applied {
			if nk := pkKeyOf(rt, next); nk != pk {
				e.router.rekey(table, pk, nk, owner)
			}
			if rt.parent == "" {
				// The routing tuple may have changed to a group that happens
				// to stay on this shard; pin the new group here so a later
				// modulus change never splits it from its rows.
				e.router.recordAssign(groupKeyOf(rt, next), owner)
			}
		}
		return changed, err
	}
	var moved bool
	err = e.runTxTables(e.router.writeFootprint(table), func(tx *Tx) error {
		var err error
		moved, err = tx.UpdateByPK(table, key, set)
		return err
	})
	return moved, err
}

// Update applies a predicate update across the fleet as a distributed
// transaction scoped to the statement's write footprint (the table plus
// its FK-children, which a migration may write) — disjoint-footprint
// statements and single-shard statements on other tables stay
// concurrent. Per-row migration applies when the update changes a row's
// owner. set must be pure (see UpdateByPK).
func (e *Engine) Update(table string, pred func(reldb.Row) bool, set func(reldb.Row) reldb.Row) (int, error) {
	if _, err := e.router.route(table); err != nil {
		return 0, err
	}
	n := 0
	err := e.runTxTables(e.router.writeFootprint(table), func(tx *Tx) error {
		var err error
		n, err = tx.Update(table, pred, set)
		return err
	})
	return n, err
}

// Delete applies a predicate delete across the fleet as a distributed
// transaction write-locked on the target table only.
func (e *Engine) Delete(table string, pred func(reldb.Row) bool) (int, error) {
	if _, err := e.router.route(table); err != nil {
		return 0, err
	}
	n := 0
	err := e.runTxTables([]string{table}, func(tx *Tx) error {
		var err error
		n, err = tx.Delete(table, pred)
		return err
	})
	return n, err
}

// DeleteByPK deletes one row on its owning shard.
func (e *Engine) DeleteByPK(table string, key ...xdm.Value) (bool, error) {
	if _, err := e.router.route(table); err != nil {
		return false, err
	}
	engines, _ := e.fleet()
	pk := xdm.TupleKey(key)
	owner, ok := e.router.lookup(table, pk, nil)
	if !ok {
		return false, nil
	}
	removed, err := engines[owner].DeleteByPK(table, key...)
	if err == nil && removed {
		e.router.forget(table, pk)
	} else if err != nil {
		// A firing error leaves the applied delete in place; reconcile.
		if _, found, _ := engines[owner].GetByPK(table, key...); !found {
			e.router.forget(table, pk)
		}
	}
	return removed, err
}

// Batch runs fn inside one distributed transaction spanning every shard:
// mutations route like their statement counterparts (including cross-
// shard migrations), each shard's triggers fire once at its commit with
// that shard's merged net deltas, and commits run in shard order. If fn
// returns an error every shard rolls back and the directory is untouched.
//
// Commit is two-phase: every shard prepares first (condition evaluation
// and invocation staging — any error rolls ALL shards back and discards
// the directory overlay, leaving the fleet byte-identical to its
// pre-transaction state), and only when every prepare succeeded do the
// shards commit and deliver. A delivery error during phase 2 surfaces to
// the caller but every shard's data still commits and the directory
// folds completely — the same contract a single engine's AFTER-trigger
// error has, never a half-committed fleet.
func (e *Engine) Batch(fn func(*Tx) error) error {
	return e.runTxTables(nil, fn)
}

// runTxTables drives one distributed transaction to commit or rollback.
// tables, when non-nil, is the declared write footprint (locked and
// restricted per shard via BeginBatchTables); nil locks every table
// (Batch, whose footprint is unknown up front).
func (e *Engine) runTxTables(tables []string, fn func(*Tx) error) error {
	tx, err := e.beginAll(tables)
	if err != nil {
		return err
	}
	finished := false
	defer func() {
		if !finished {
			tx.rollback()
		}
	}()
	if err := fn(tx); err != nil {
		finished = true
		tx.rollback()
		return err
	}
	finished = true
	return tx.commit()
}

// beginAll opens a batch handle on every shard in shard order; within a
// shard, table locks follow the global name order. Every multi-shard
// acquirer walks this one (shard, table) order, which makes concurrent
// distributed transactions deadlock-free against each other and against
// single-shard statements.
func (e *Engine) beginAll(tables []string) (*Tx, error) {
	engines, dbs := e.fleet()
	tx := &Tx{e: e, dbs: dbs, ov: newDirOps()}
	for _, ce := range engines {
		var h *core.BatchHandle
		var err error
		if tables == nil {
			h, err = ce.BeginBatch()
		} else {
			h, err = ce.BeginBatchTables(tables)
		}
		if err != nil {
			for _, open := range tx.hs {
				_ = open.Rollback()
			}
			return nil, err
		}
		tx.hs = append(tx.hs, h)
	}
	return tx, nil
}
