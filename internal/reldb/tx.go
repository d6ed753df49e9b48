package reldb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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
//
// What a transaction needs only while it runs — its touched-key and moved-key
// maps, the net deltas and their BatchInfo, the staged deliveries — it
// borrows from memory the database keeps for the next transaction (txMem),
// and gives back, cleared, when Commit or Rollback finishes it. So the
// BatchInfo that Staged and FireContext.Batch return, its Deltas map and the
// transition tables in it are valid until then; a body or caller that needs
// them later copies them (the rows themselves it may keep). A finished Tx
// holds none of that memory.
type Tx struct {
	db  *DB
	mem *txMem // nil once the transaction is finished
	// allowed, when non-nil, restricts mutations to the listed tables
	// (declared-footprint batches, Engine.BatchTables); a mutation of any
	// other table fails before applying.
	allowed map[string]bool
	done    bool

	// Two-phase state: Prepare runs the firing waves in staging mode,
	// collecting the delivery thunks (in activation order, mem.staged) that
	// Commit later runs, and the staged wave's BatchInfo (mem.batch).
	// prepErr is sticky — a transaction whose prepare failed can only be
	// rolled back or re-report the same error.
	prepared bool
	prepErr  error
	silent   bool
	obsTok   any

	// escalate latches when a restricted transaction touched an undeclared
	// table (the mutation was refused with ErrUndeclaredTable). The engine
	// layer reads it through NeedsEscalation to retry the batch under the
	// all-table lock instead of surfacing the error.
	escalate bool
}

// txMem is a transaction's bookkeeping, kept on the database's free list
// (txPool) from one transaction to the next.
type txMem struct {
	tabs []txTable // the touched tables
	// autoIDs snapshots a table's synthetic-rowid counter before the
	// transaction's first insert into it, so Rollback can restore it: a
	// rolled-back transaction must leave no trace, and a drifted counter
	// would give re-run inserts different storage keys than the original
	// attempt.
	autoIDs []tableID
	// What Prepare computes: the touched tables' net changes (tabs is in
	// name order by then), the one array all their Δ and ∇ rows are cut
	// from, and the BatchInfo whose Deltas point at them.
	nets   []netChange
	rows   []Row
	nds    []NetDelta
	batch  BatchInfo
	deltas map[string]*NetDelta
	staged []func() error
	stage  func(deliver func() error) // appends to staged; built once
}

// txTable is what a transaction records for one table it touched.
type txTable struct {
	name string
	// touched records the pre-transaction row stored under each storage key
	// the transaction has touched. The net transition is the diff between
	// this snapshot and the current table contents, so coalescing across any
	// sequence of operations and primary-key moves falls out of the
	// bookkeeping.
	touched map[xdm.CompKey]preImage
	// moved tracks row identity across primary-key changes: the storage key
	// a row currently occupies -> the key it occupied at transaction start
	// (entries exist only for rows that moved). It lets the net diff pair a
	// moved row's pre- and post-images as an UPDATE — matching the
	// single-statement path, which fires AFTER UPDATE for PK-changing
	// updates — instead of reporting DELETE+INSERT. Every key in it is a
	// key of touched.
	moved map[xdm.CompKey]xdm.CompKey
	// grown is the most keys touched has held since the maps were made:
	// clearing a map does not shrink it.
	grown int
}

// tableID is a table's synthetic-rowid counter.
type tableID struct {
	table string
	id    int64
}

// touchedEntryBytes is what one key of touched and of moved costs together:
// a key and a pre-image, a key and a key.
const touchedEntryBytes = 4 * 32

// maxIdleTxs is how many finished transactions' bookkeeping a database keeps
// for the next ones; a transaction that finds none builds its own.
const maxIdleTxs = 4

// txPool is the database's free list of transaction bookkeeping. Concurrent
// transactions on disjoint tables each borrow their own.
type txPool struct {
	mu   sync.Mutex
	free []*txMem
}

// borrow takes bookkeeping off the free list, or builds it.
func (p *txPool) borrow() *txMem {
	p.mu.Lock()
	var m *txMem
	if n := len(p.free); n > 0 {
		m, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if m == nil {
		m = &txMem{deltas: map[string]*NetDelta{}}
		m.stage = func(deliver func() error) { m.staged = append(m.staged, deliver) }
	}
	return m
}

// put clears m and returns it to the free list, if there is room. A map or
// slice that grew past maxScratchBytes is dropped, not kept: clearing it
// would cost every later transaction its size.
func (p *txPool) put(m *txMem) {
	for i := range m.tabs {
		tt := &m.tabs[i]
		tt.name = ""
		if tt.grown = max(tt.grown, len(tt.touched)); tt.grown*touchedEntryBytes > maxScratchBytes {
			tt.touched, tt.moved, tt.grown = nil, nil, 0
		} else {
			clear(tt.touched)
			clear(tt.moved)
		}
	}
	m.tabs = m.tabs[:0]
	m.autoIDs = keepScratch(m.autoIDs)
	clear(m.nets)
	m.nets = keepScratch(m.nets)
	clear(m.rows)
	m.rows = keepScratch(m.rows)
	clear(m.nds)
	m.nds = keepScratch(m.nds)
	clear(m.deltas)
	m.batch = BatchInfo{}
	clear(m.staged)
	m.staged = keepScratch(m.staged)
	p.mu.Lock()
	if len(p.free) < maxIdleTxs {
		p.free = append(p.free, m)
	}
	p.mu.Unlock()
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
	return &Tx{db: db, mem: db.txs.borrow()}
}

// finish marks the transaction finished and gives its bookkeeping back.
func (tx *Tx) finish() {
	tx.done = true
	if m := tx.mem; m != nil {
		tx.mem = nil
		tx.db.txs.put(m)
	}
}

// snapAutoID records the table's pre-transaction rowid counter the first
// time the transaction is about to insert into it.
func (tx *Tx) snapAutoID(table string) {
	m := tx.mem
	for _, a := range m.autoIDs {
		if a.table == table {
			return
		}
	}
	if td, ok := tx.db.tables[table]; ok {
		m.autoIDs = append(m.autoIDs, tableID{table, td.autoID})
	}
}

// table returns what the transaction records for table, nil until it
// touched it.
func (m *txMem) table(table string) *txTable {
	for i := len(m.tabs) - 1; i >= 0; i-- { // the last table touched is the likeliest
		if m.tabs[i].name == table {
			return &m.tabs[i]
		}
	}
	return nil
}

// tableTouched returns what the transaction records for table, starting it
// on first touch in the maps an earlier transaction left in its slot.
func (tx *Tx) tableTouched(table string) *txTable {
	m := tx.mem
	if tt := m.table(table); tt != nil {
		return tt
	}
	if n := len(m.tabs); n < cap(m.tabs) {
		m.tabs = m.tabs[:n+1]
	} else {
		m.tabs = append(m.tabs, txTable{})
	}
	tt := &m.tabs[len(m.tabs)-1]
	tt.name = table
	if tt.touched == nil {
		tt.touched, tt.moved = map[xdm.CompKey]preImage{}, map[xdm.CompKey]xdm.CompKey{}
	}
	return tt
}

// noteMoves updates the identity chains for one statement's key-changing
// updates. A statement's changes are simultaneous: every oldKey refers to
// the pre-statement occupant, so origins are resolved for all changes
// before any chain entry is rewritten (a PK swap inside one statement
// must not read the other change's freshly installed entry).
func (tt *txTable) noteMoves(changes []updateChange) {
	mv := tt.moved
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
		if a.origin != a.newKey && tt.touched[a.origin].row != nil {
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
	tt := tx.tableTouched(table)
	for _, kr := range inserted {
		noteFirstTouch(tt.touched, kr.key, nil, 0)
		delete(tt.moved, kr.key) // fresh row: no identity chain
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
	tt := tx.tableTouched(table)
	m := tt.touched
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
	tt.noteMoves(changes)
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
	tt := tx.tableTouched(table)
	noteFirstTouch(tt.touched, c.oldKey, c.old, c.slot)
	if c.newKey != c.oldKey {
		noteFirstTouch(tt.touched, c.newKey, nil, 0)
		tt.noteMoves([]updateChange{c})
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
	tt := tx.tableTouched(table)
	for _, kr := range removed {
		noteFirstTouch(tt.touched, kr.key, kr.row, kr.slot)
		delete(tt.moved, kr.key) // the occupant is gone
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
	tt := tx.tableTouched(table)
	noteFirstTouch(tt.touched, kr.key, kr.row, kr.slot)
	delete(tt.moved, kr.key) // the occupant is gone
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
// commits fire the same event kinds as the single-statement path. Its Δ and
// ∇ are cut from rows, which has room for twice the touched keys; it returns
// what is left of rows.
func (tx *Tx) net(tt *txTable, rows []Row) (netChange, []Row) {
	td := tx.db.tables[tt.name]
	m := tt.touched
	mv := tt.moved
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
		return netChange{}, rows
	}
	td.sortKeyed(keys)
	// A key adds at most one row to Δ and a pre-image at most one to ∇, so
	// one array of twice the keys holds both. Inserts and deletes fill each
	// half from the front, update pairs from the back; the pairs move down
	// behind them at the end.
	n := len(keys)
	ins, del, rows := rows[:n:n], rows[n:2*n:2*n], rows[2*n:]
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
	return netChange{inserted: ins[: ni+nu : ni+nu], deleted: del[: nd+nu : nd+nu], ins: ni, del: nd}, rows
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
	m := tx.mem
	// The tables fire in name order. Rollback restores each table on its
	// own, so their first-touch order is not needed any more.
	slices.SortFunc(m.tabs, func(a, b txTable) int { return strings.Compare(a.name, b.name) })
	keys := 0
	for i := range m.tabs {
		keys += len(m.tabs[i].touched)
	}
	// Grown first, so nothing below moves what the deltas point at.
	rows := slices.Grow(m.rows[:0], 2*keys)[:2*keys]
	nets := slices.Grow(m.nets[:0], len(m.tabs))[:len(m.tabs)]
	nds := slices.Grow(m.nds[:0], len(m.tabs))
	m.rows, m.nets = rows, nets
	m.batch = BatchInfo{Seq: tx.db.batchSeq.Add(1), Deltas: m.deltas, Silent: tx.silent, Obs: tx.obsTok}
	batch := &m.batch
	for i := range m.tabs {
		nets[i], rows = tx.net(&m.tabs[i], rows)
		if len(nets[i].inserted)+len(nets[i].deleted) > 0 {
			nds = append(nds, NetDelta{Inserted: nets[i].inserted, Deleted: nets[i].deleted})
			batch.Deltas[m.tabs[i].name] = &nds[len(nds)-1]
		}
	}
	m.nds = nds
	defer func() { release(batch.EngineState) }()
	stage := m.stage
	for i := range m.tabs {
		t, nc := m.tabs[i].name, nets[i]
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
// successful Prepare, and again once the transaction is finished).
// Coordinators use it to inspect what a prepared transaction is about to
// deliver before deciding to commit.
func (tx *Tx) Staged() *BatchInfo {
	if !tx.prepared || tx.done {
		return nil
	}
	return &tx.mem.batch
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
			tx.finish()
			return err
		}
	}
	tx.done = true
	defer tx.finish()
	tx.db.writes.Add(1)
	if m := tx.db.obs.Load(); m != nil {
		defer m.txCommit.Since(time.Now())
	}
	for _, deliver := range tx.mem.staged {
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
	defer tx.finish()
	for i := range tx.mem.tabs {
		td := tx.db.tables[tx.mem.tabs[i].name]
		m := tx.mem.tabs[i].touched
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
	for _, a := range tx.mem.autoIDs {
		tx.db.tables[a.table].autoID = a.id
	}
	tx.db.writes.Add(1)
	return nil
}
