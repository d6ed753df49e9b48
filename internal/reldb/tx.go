package reldb

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"quark/internal/xdm"
)

// Tx is a batched update transaction (paper §2.3 taken to its logical
// conclusion: a statement-level trigger fires once per statement however
// many rows the statement touches, so a transaction-level trigger fires
// once per transaction with the merged transition tables). Mutations apply
// to the database immediately — reads inside the transaction see them —
// but trigger firing is deferred to Commit, which activates each
// (table, event) trigger at most once with the coalesced net Δ/∇:
//
//   - two UPDATEs of the same row merge into one (original old, final new);
//   - an INSERT followed by UPDATEs contributes a single Δ row (final
//     version); an INSERT followed by DELETE contributes nothing;
//   - a DELETE followed by a re-INSERT of the same key becomes an UPDATE;
//   - primary-key-changing updates (including chains and swaps) stay
//     UPDATE pairs, tracked by row identity across the moves;
//   - updates whose net effect restores the original row are dropped.
//
// A Tx is not safe for concurrent use; the engine layer serializes whole
// transactions against other writers.
type Tx struct {
	db *DB
	// touched records, per table, the pre-transaction row stored under
	// each storage key the transaction has touched (nil = key was vacant).
	// The net transition is the diff between this snapshot and the current
	// table contents, so coalescing across any sequence of operations and
	// primary-key moves falls out of the bookkeeping.
	touched map[string]map[xdm.CompKey]preImage
	// moved tracks row identity across primary-key changes: per table,
	// the storage key a row currently occupies -> the key it occupied at
	// transaction start (entries exist only for rows that moved). It lets
	// the net diff pair a moved row's pre- and post-images as an UPDATE —
	// matching the single-statement path, which fires AFTER UPDATE for
	// PK-changing updates — instead of reporting DELETE+INSERT.
	moved map[string]map[xdm.CompKey]xdm.CompKey
	order []string // tables in first-touch order
	// allowed, when non-nil, restricts mutations to the listed tables
	// (declared-footprint batches, Engine.BatchTables); a mutation of any
	// other table fails before applying.
	allowed map[string]bool
	// autoIDs snapshots a table's synthetic-rowid counter before the
	// transaction's first insert into it, so Rollback can restore it: a
	// rolled-back transaction must leave no trace, and a drifted counter
	// would give re-run inserts different storage keys than the original
	// attempt.
	autoIDs map[string]int64
	done    bool

	// Two-phase state: Prepare runs the firing waves in staging mode,
	// collecting the delivery thunks (in activation order) that Commit
	// later runs; batch is the staged wave's BatchInfo. prepErr is sticky —
	// a transaction whose prepare failed can only be rolled back or
	// re-report the same error.
	prepared bool
	prepErr  error
	staged   []func() error
	batch    *BatchInfo
	silent   bool
	obsTok   any

	// escalate latches when a restricted transaction touched an undeclared
	// table (the mutation was refused with ErrUndeclaredTable). The engine
	// layer reads it through NeedsEscalation to retry the batch under the
	// all-table lock instead of surfacing the error.
	escalate bool
}

// preImage is what a storage key held when the transaction first touched
// it: the row (nil = the key was vacant) and the slot it sat in, which is
// where Rollback puts it back.
type preImage struct {
	row  Row
	slot uint32
}

// ErrUndeclaredTable is wrapped into the error a restricted transaction
// returns when a mutation targets a table outside its declared footprint
// (see Restrict). Callers can match it with errors.Is to distinguish the
// footprint violation from real mutation failures.
var ErrUndeclaredTable = fmt.Errorf("reldb: table not in declared footprint")

// NeedsEscalation reports whether a restricted transaction was refused a
// mutation for touching an undeclared table. The refusal is sticky: once
// set, the transaction's declared lock footprint is known to be too
// small, and the engine layer's lock escalation rolls it back and re-runs
// the batch under the all-table lock.
func (tx *Tx) NeedsEscalation() bool { return tx.escalate }

// SetObsToken attaches an opaque observability token that Prepare copies
// onto the firing wave's BatchInfo (see BatchInfo.Obs). The translation
// layer uses it to nest trigger-evaluation trace spans under the
// transaction's prepare phase; reldb itself never looks inside.
func (tx *Tx) SetObsToken(v any) { tx.obsTok = v }

// SetSilent marks the transaction as a silent data movement: its firing
// wave carries BatchInfo.Silent, telling trigger bodies to refresh any
// internal state (e.g. a materialized view's diff baseline) without
// activating triggers or staging deliveries. Must be called before
// Prepare; the flag cannot be cleared.
func (tx *Tx) SetSilent() error {
	if tx.prepared || tx.done {
		return fmt.Errorf("reldb: SetSilent after prepare")
	}
	tx.silent = true
	return nil
}

// Begin starts a batched transaction.
func (db *DB) Begin() *Tx {
	return &Tx{
		db:      db,
		touched: map[string]map[xdm.CompKey]preImage{},
		moved:   map[string]map[xdm.CompKey]xdm.CompKey{},
		autoIDs: map[string]int64{},
	}
}

// snapAutoID records the table's pre-transaction rowid counter the first
// time the transaction is about to insert into it.
func (tx *Tx) snapAutoID(table string) {
	if _, ok := tx.autoIDs[table]; ok {
		return
	}
	if td, ok := tx.db.tables[table]; ok {
		tx.autoIDs[table] = td.autoID
	}
}

func (tx *Tx) tableTouched(table string) map[xdm.CompKey]preImage {
	m, ok := tx.touched[table]
	if !ok {
		m = map[xdm.CompKey]preImage{}
		tx.touched[table] = m
		tx.moved[table] = map[xdm.CompKey]xdm.CompKey{}
		tx.order = append(tx.order, table)
	}
	return m
}

// noteMoves updates the identity chains for one statement's key-changing
// updates. A statement's changes are simultaneous: every oldKey refers to
// the pre-statement occupant, so origins are resolved for all changes
// before any chain entry is rewritten (a PK swap inside one statement
// must not read the other change's freshly installed entry).
func (tx *Tx) noteMoves(table string, changes []updateChange) {
	mv := tx.moved[table]
	type entry struct{ newKey, origin xdm.CompKey }
	var adds []entry
	for _, c := range changes {
		if c.newKey == c.oldKey {
			continue
		}
		origin, chained := mv[c.oldKey]
		if !chained {
			origin = c.oldKey
		}
		adds = append(adds, entry{c.newKey, origin})
	}
	for _, c := range changes {
		if c.newKey != c.oldKey {
			delete(mv, c.oldKey)
		}
	}
	for _, a := range adds {
		// Rows created inside the transaction (origin has no pre-image)
		// need no entry: their final key diffs as vacant→row on its own.
		if a.origin != a.newKey && tx.touched[table][a.origin].row != nil {
			mv[a.newKey] = a.origin
		}
	}
}

// noteFirstTouch records the pre-operation value of a storage key the first
// time the transaction touches it. Because every change inside the
// transaction is recorded here, "not yet touched" implies the current value
// equals the pre-transaction value.
func noteFirstTouch(m map[xdm.CompKey]preImage, key xdm.CompKey, pre Row, slot uint32) {
	if _, ok := m[key]; !ok {
		m[key] = preImage{pre, slot}
	}
}

// Restrict limits the transaction to the declared tables: any subsequent
// mutation of an undeclared table fails before applying, so the caller's
// lock footprint stays authoritative. Reads are not restricted.
func (tx *Tx) Restrict(tables []string) {
	tx.allowed = map[string]bool{}
	for _, t := range tables {
		tx.allowed[t] = true
	}
}

func (tx *Tx) check() error {
	if tx.done {
		return fmt.Errorf("reldb: transaction already finished")
	}
	return nil
}

// checkTable combines the finished check with the declared-footprint
// restriction; every mutation entry point calls it before applying. A
// prepared transaction's mutations are frozen: the staged firing wave
// was computed from the net deltas at Prepare, so a later mutation would
// commit silently without ever firing — exactly the transactionality
// hole the two-phase split exists to close.
func (tx *Tx) checkTable(table string) error {
	if err := tx.check(); err != nil {
		return err
	}
	if tx.prepared || tx.prepErr != nil {
		return fmt.Errorf("reldb: transaction is prepared; mutations are frozen until commit or rollback")
	}
	if tx.allowed != nil && !tx.allowed[table] {
		tx.escalate = true
		return fmt.Errorf("reldb: transaction is restricted to its declared tables; %q is not declared: %w", table, ErrUndeclaredTable)
	}
	return nil
}

// Insert adds rows as one deferred-firing statement.
func (tx *Tx) Insert(table string, rows ...Row) error {
	if err := tx.checkTable(table); err != nil {
		return err
	}
	tx.snapAutoID(table)
	inserted, err := tx.db.applyInsert(table, rows)
	if err != nil {
		return err
	}
	m := tx.tableTouched(table)
	for _, kr := range inserted {
		noteFirstTouch(m, kr.key, nil, 0)
		delete(tx.moved[table], kr.key) // fresh row: no identity chain
	}
	return nil
}

// Update rewrites all rows matching pred via set; firing is deferred.
func (tx *Tx) Update(table string, pred func(Row) bool, set func(Row) Row) (int, error) {
	if err := tx.checkTable(table); err != nil {
		return 0, err
	}
	changes, err := tx.db.applyUpdate(table, pred, set)
	if err != nil {
		return 0, err
	}
	m := tx.tableTouched(table)
	// Record every change's old key BEFORE any new-key vacancy: in a
	// statement that chains or swaps primary keys, another change's
	// newKey may be this change's oldKey, and the pre-image of that key
	// is the old row — not vacant.
	for _, c := range changes {
		noteFirstTouch(m, c.oldKey, c.old, c.slot)
	}
	for _, c := range changes {
		if c.newKey != c.oldKey {
			// If still untouched, the key was vacant before this statement
			// (the collision check guarantees it) and, being unrecorded,
			// vacant at transaction start too.
			noteFirstTouch(m, c.newKey, nil, 0)
		}
	}
	tx.noteMoves(table, changes)
	return len(changes), nil
}

// UpdateByPK rewrites the single row with the given primary key.
func (tx *Tx) UpdateByPK(table string, key []xdm.Value, set func(Row) Row) (bool, error) {
	if err := tx.checkTable(table); err != nil {
		return false, err
	}
	c, found, err := tx.db.applyUpdateByPK(table, key, set)
	if err != nil || !found {
		return false, err
	}
	m := tx.tableTouched(table)
	noteFirstTouch(m, c.oldKey, c.old, c.slot)
	if c.newKey != c.oldKey {
		noteFirstTouch(m, c.newKey, nil, 0)
		tx.noteMoves(table, []updateChange{c})
	}
	return true, nil
}

// Delete removes all rows matching pred; firing is deferred.
func (tx *Tx) Delete(table string, pred func(Row) bool) (int, error) {
	if err := tx.checkTable(table); err != nil {
		return 0, err
	}
	removed, err := tx.db.applyDelete(table, pred)
	if err != nil {
		return 0, err
	}
	m := tx.tableTouched(table)
	for _, kr := range removed {
		noteFirstTouch(m, kr.key, kr.row, kr.slot)
		delete(tx.moved[table], kr.key) // the occupant is gone
	}
	return len(removed), nil
}

// DeleteByPK removes the row with the given primary key, if present.
func (tx *Tx) DeleteByPK(table string, key ...xdm.Value) (bool, error) {
	if err := tx.checkTable(table); err != nil {
		return false, err
	}
	kr, found, err := tx.db.applyDeleteByPK(table, key)
	if err != nil || !found {
		return false, err
	}
	noteFirstTouch(tx.tableTouched(table), kr.key, kr.row, kr.slot)
	delete(tx.moved[table], kr.key) // the occupant is gone
	return true, nil
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !xdm.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// netChange is the coalesced per-table outcome of a transaction: Δ holds the
// inserted rows, then the updates' new versions; ∇ the deleted rows, then
// the updates' pre-images, index-aligned with the new versions.
type netChange struct {
	inserted, deleted []Row
	ins, del          int // how many rows of Δ are inserts, of ∇ deletes
}

// net computes the coalesced change of one table by diffing the
// first-touch snapshot against the table's current contents, in storage-key
// order (sortKeyed) for deterministic firing. The moved-identity chains
// pair a PK-changed row's pre- and post-images as one UPDATE, so batched
// commits fire the same event kinds as the single-statement path.
func (tx *Tx) net(table string) netChange {
	td := tx.db.tables[table]
	m := tx.touched[table]
	mv := tx.moved[table]
	// Each touched key is ordered by the key columns of a row filed under
	// it: its pre-image, else its current occupant. A key vacant at both
	// ends nets to nothing and is dropped here.
	keys := td.keyed[:0]
	for k, pre := range m { //quark:sorted sortKeyed orders the keys below
		row := pre.row
		if row == nil {
			s, exists := td.pk.get(k)
			if !exists {
				continue
			}
			row = td.row(s)
		}
		keys = append(keys, keyedRow{key: k, row: row})
	}
	defer func() { clear(keys); td.keyed = keepScratch(keys) }()
	if len(keys) == 0 {
		return netChange{}
	}
	td.sortKeyed(keys)
	// A key adds at most one row to Δ and a pre-image at most one to ∇, so
	// one array of twice the keys holds both. Inserts and deletes fill each
	// half from the front, update pairs from the back; the pairs move down
	// behind them at the end.
	n := len(keys)
	rows := make([]Row, 2*n)
	ins, del := rows[:n:n], rows[n:]
	ni, nd, nu := 0, 0, 0
	// Keys claimed as a moved row's origin: their pre-image belongs to
	// that row (paired at its current key), not to whatever occupies the
	// key now — a fresh insert into a vacated key must not adopt it.
	// Without moves no key is claimed, and a pre-image is consumed exactly
	// when its own key's occupant is, which pass 2 tells by itself.
	var claimed, consumed map[xdm.CompKey]bool
	if len(mv) > 0 {
		claimed, consumed = map[xdm.CompKey]bool{}, map[xdm.CompKey]bool{}
		for _, origin := range mv {
			claimed[origin] = true
		}
	}
	// Pass 1: current occupants, paired with their identity's pre-image.
	for _, kr := range keys {
		k := kr.key
		s, exists := td.pk.get(k)
		if !exists {
			continue
		}
		cur := td.row(s)
		var pre Row
		origin, moved := mv[k]
		switch {
		case moved:
			pre = m[origin].row
		case !claimed[k]: // else the pre-image is owned by the row that moved away
			origin, pre = k, m[k].row
		}
		switch {
		case pre == nil:
			ins[ni] = cur
			ni++
		case origin != k || !rowsEqual(pre, cur):
			nu++
			ins[n-nu], del[n-nu] = cur, pre
			if consumed != nil {
				consumed[origin] = true
			}
		default:
			if consumed != nil {
				consumed[origin] = true // net no-op; pre-image accounted for
			}
		}
	}
	// Pass 2: pre-images whose row vanished (deleted, or displaced by a
	// row that moved in while the original was removed).
	for _, kr := range keys {
		k := kr.key
		pre := m[k].row
		if pre == nil || consumed[k] {
			continue
		}
		if _, exists := td.pk.get(k); exists {
			if _, movedIn := mv[k]; !movedIn {
				// The occupant is the original row; pass 1 handled it.
				continue
			}
		}
		del[nd] = pre
		nd++
	}
	slices.Reverse(ins[n-nu:])
	slices.Reverse(del[n-nu:])
	copy(ins[ni:], ins[n-nu:])
	copy(del[nd:], del[n-nu:])
	return netChange{inserted: ins[: ni+nu : ni+nu], deleted: del[: nd+nu : nd+nu], ins: ni, del: nd}
}

// Prepare runs the prepare phase of a two-phase commit: it computes the
// merged net deltas and runs every deferred firing wave in staging mode —
// trigger bodies evaluate their plans (all evaluation errors surface
// here) and stage their deliveries through FireContext.Stage instead of
// performing them. A successful Prepare leaves the transaction open: the
// caller either Commits (run the staged deliveries) or Rollbacks (undo
// every mutation; nothing was delivered). A failed Prepare is sticky —
// the transaction can only be rolled back, and a coordinator that
// prepared other participants can still roll all of them back, which is
// what closes the cross-shard partial-commit window. Prepare on an
// already-prepared transaction is a no-op.
func (tx *Tx) Prepare() error {
	if err := tx.check(); err != nil {
		return err
	}
	if tx.prepErr != nil {
		return tx.prepErr
	}
	if tx.prepared {
		return nil
	}
	if m := tx.db.obs.Load(); m != nil {
		defer m.txPrepare.Since(time.Now())
	}
	if err := tx.prepare(); err != nil {
		tx.prepErr = err
		return err
	}
	return nil
}

func (tx *Tx) prepare() error {
	tables := append([]string(nil), tx.order...)
	sort.Strings(tables)
	batch := &BatchInfo{Seq: tx.db.batchSeq.Add(1), Deltas: map[string]*NetDelta{}, Silent: tx.silent, Obs: tx.obsTok}
	nets := make([]netChange, len(tables))
	for i, t := range tables {
		nets[i] = tx.net(t)
		if len(nets[i].inserted)+len(nets[i].deleted) > 0 {
			batch.Deltas[t] = &NetDelta{Inserted: nets[i].inserted, Deleted: nets[i].deleted}
		}
	}
	tx.batch = batch
	defer func() { release(batch.EngineState) }()
	stage := func(deliver func() error) {
		tx.staged = append(tx.staged, deliver)
	}
	for i, t := range tables {
		nc := nets[i]
		updNew, updOld := nc.inserted[nc.ins:], nc.deleted[nc.del:]
		if nc.ins > 0 {
			if err := tx.db.fire(t, EvInsert, nc.inserted[:nc.ins:nc.ins], nil, batch, stage); err != nil {
				return err
			}
		}
		if len(updNew) > 0 {
			if err := tx.db.fire(t, EvUpdate, updNew, updOld, batch, stage); err != nil {
				return err
			}
		}
		if nc.del > 0 {
			if err := tx.db.fire(t, EvDelete, nil, nc.deleted[:nc.del:nc.del], batch, stage); err != nil {
				return err
			}
		}
	}
	tx.prepared = true
	return nil
}

// Staged returns the BatchInfo of the staged firing wave (nil until a
// successful Prepare). Coordinators use it to inspect what a prepared
// transaction is about to deliver before deciding to commit.
func (tx *Tx) Staged() *BatchInfo {
	if !tx.prepared {
		return nil
	}
	return tx.batch
}

// Commit finishes the transaction. On an unprepared transaction it is the
// one-shot Prepare+Commit convenience with the historical contract: for
// every touched table (in name order) each of INSERT, UPDATE, DELETE
// fires at most once with the merged transition tables, every
// FireContext carries the transaction-wide net deltas, and trigger errors
// abort the wave while the data changes remain applied (AFTER-trigger
// semantics). On a prepared transaction it runs the staged deliveries in
// staging order; trigger evaluation already happened at Prepare, so the
// only errors left are delivery errors — which likewise leave the
// applied state standing.
func (tx *Tx) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	if !tx.prepared {
		if err := tx.Prepare(); err != nil {
			// One-shot contract: a firing error finishes the transaction
			// with its mutations applied (no implicit rollback).
			tx.done = true
			return err
		}
	}
	tx.done = true
	tx.db.writes.Add(1)
	if m := tx.db.obs.Load(); m != nil {
		defer m.txCommit.Since(time.Now())
	}
	for _, deliver := range tx.staged {
		if err := deliver(); err != nil {
			return err
		}
	}
	return nil
}

// Rollback undoes every change the transaction applied, restoring rows and
// indexes to their pre-transaction state: each pre-image goes back to its
// slot as a new version carved from it, which is why a compaction in between
// loses nothing. No triggers fire. Rolling back
// a prepared transaction discards its staged deliveries — staging has no
// external effect, which is what makes the prepare phase abortable.
func (tx *Tx) Rollback() error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.done = true
	for _, t := range tx.order {
		td := tx.db.tables[t]
		m := tx.touched[t]
		// Vacate every touched key before restoring any pre-image: the slot
		// a pre-image goes back to may hold another touched key's row by now.
		for k := range m { //quark:sorted keys are disjoint; the free list these pushes build is sorted below
			if s, exists := td.pk.get(k); exists {
				td.vacate(s, k)
			}
		}
		for k, pre := range m { //quark:sorted each pre-image returns to its own slot and key
			if pre.row != nil {
				td.place(pre.slot, pre.row, k)
			}
		}
		// The restored slots are taken again; what stays free is the
		// pre-transaction free set plus the slots the transaction added.
		td.free = slices.DeleteFunc(td.free, func(s uint32) bool { return !td.rows[s].vacant() })
		slices.Sort(td.free)
		td.settle()
	}
	// Restore synthetic rowid counters for no-PK tables: the rows the
	// transaction inserted are gone, so their allocated ids must be too.
	for t, id := range tx.autoIDs { //quark:sorted per-table counter restore; entries are independent
		tx.db.tables[t].autoID = id
	}
	tx.db.writes.Add(1)
	return nil
}
