// Package reldb is the relational substrate: an in-memory storage engine
// with primary keys, single-column indexes, statement-level
// INSERT/UPDATE/DELETE, and statement-level AFTER triggers with transition
// tables. It plays the role IBM DB2 plays in the paper: the generated "SQL
// triggers" produced by the translation pipeline are installed here and
// fire with Δtable / ∇table transition tables exactly as described in
// Section 2.3.
//
// Storage is slot-addressed: a table's slot array holds a reference to each
// row's current version, carved from the table's slabs (see slab.go; freed
// slots are reused), one map takes a primary key to its slot, and an index
// is one posting list of slots per column value, kept in primary-key order.
// Order contracts: Lookup yields rows in primary-key order (xdm.Compare
// over the key columns; insertion order for a table without a primary
// key); Scan and AllRows yield them in slot order, which is deterministic
// for a given statement history but otherwise carries no meaning.
//
// A DB's write path is not safe for concurrent use; the engine layer
// (internal/core) coordinates statements with per-table read/write locks.
// Read paths (Scan, Lookup, GetByPK, Stats) may run concurrently with each
// other: the work counters are atomic.
package reldb

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"time"

	"quark/internal/schema"
	"quark/internal/xdm"
)

// Row is one relational tuple, positionally aligned with the table's
// columns.
//
// A Row the store hands out (from Scan, Lookup, GetByPK, AllRows, or a
// transition table) is a stored version: a view into one of the table's
// slabs, capped so that an append copies it. Nothing writes a stored
// version after it is carved — not the store, which writes a new version
// for every change and restores a rolled-back row by carving a copy, and
// not a reader. A version of pointer-free values lives in memory the
// collector does not scan, so a pointer written into it would not keep
// what it points to alive. Copy a Row before changing it.
type Row []xdm.Value

// Copy returns a copy of the row (values are immutable, so a shallow copy
// of the slice suffices).
func (r Row) Copy() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Writer is the DML surface. A DB fires its triggers per statement and a
// Tx once at commit; the core and sharded engines, and a sharded
// transaction, route the same five statements.
type Writer interface {
	Insert(table string, rows ...Row) error
	Update(table string, pred func(Row) bool, set func(Row) Row) (int, error)
	Delete(table string, pred func(Row) bool) (int, error)
	UpdateByPK(table string, key []xdm.Value, set func(Row) Row) (bool, error)
	DeleteByPK(table string, key ...xdm.Value) (bool, error)
}

var (
	_ Writer = (*DB)(nil)
	_ Writer = (*Tx)(nil)
)

// Event is the statement kind a SQL trigger listens for.
type Event uint8

// Statement events.
const (
	EvInsert Event = iota
	EvUpdate
	EvDelete
)

func (e Event) String() string {
	switch e {
	case EvInsert:
		return "INSERT"
	case EvUpdate:
		return "UPDATE"
	case EvDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("EVENT(%d)", uint8(e))
	}
}

// FireContext is handed to a trigger body when its statement completes. The
// transition tables follow the paper's notation: Inserted is Δtable (rows
// after the statement), Deleted is ∇table (rows before). For INSERT
// statements Deleted is empty; for DELETE, Inserted is empty; UPDATE
// populates both, index-aligned (Deleted[i] is the old version of
// Inserted[i]).
//
// Immutability contract: the Row values in the transition tables (and in
// Batch.Deltas) are snapshots that the store never mutates in place —
// every write path carves a new version (applyInsert copies its input;
// applyUpdate copies what set returns) and points the slot at it; see Row.
// Trigger bodies and asynchronous dispatchers may therefore retain
// transition rows, and anything derived from them, beyond the firing
// statement without copying and without holding the statement's locks.
//
// Sharing contract: a statement has one FireContext, and every body that
// fires for it receives the same pointer, one body after another on the
// statement's goroutine. A body must not change the fields reldb set; it may
// keep per-statement state in EngineState for the bodies after it. A
// statement a body executes is a statement of its own, with its own
// FireContext. The FireContext, and a point update's one-row Inserted and
// Deleted slices, are reldb's scratch (see fireFrame): valid until the
// statement's last body returns, cleared then and reused by the table's next
// statement. A body that needs them later copies them; the rows themselves
// it may keep.
type FireContext struct {
	DB       *DB
	Table    string
	Event    Event
	Inserted []Row
	Deleted  []Row
	Depth    int // trigger cascade depth (1 for directly fired triggers)
	// Batch is non-nil when the firing comes from Tx.Prepare/Commit: the
	// trigger fires once for the whole transaction with the merged
	// transition tables, and Batch carries the net per-table deltas of the
	// entire batch (for engines that reconstruct cross-table old state).
	Batch *BatchInfo
	// Stage is non-nil when the firing is the staging pass of Tx.Prepare
	// (two-phase commit). A body that performs external deliveries must
	// route each one through Stage instead of performing it: staged
	// deliveries run at Tx.Commit, in staging order, after every
	// participant's prepare succeeded, so a prepare-phase error can still
	// abort the whole transaction with nothing delivered. Evaluation work
	// (and its errors) stays in the body; a body that ignores Stage simply
	// runs its effects at prepare time, which is the pre-two-phase
	// behavior.
	Stage func(deliver func() error)
	// EngineState is scratch storage for the trigger-translation layer, as
	// BatchInfo.EngineState is per commit. The statement's bodies run one
	// after another, so state kept here (the evaluation context the engine
	// lends the statement) needs no locking. It serves this statement only:
	// when the last body has returned — or one failed — reldb calls Release
	// on it if it is a Releaser, and the engine may then hand what it holds
	// to another statement. A body may write the database before the next
	// body runs, so what was read from the database may serve a later body
	// only while WriteSeq still returns the value it returned when that was
	// read.
	EngineState any
}

// Releaser is what an EngineState implements to learn that reldb is done
// with it: Release runs once, when a statement's bodies or a commit's prepare
// phase have finished, whether they failed or not.
type Releaser interface{ Release() }

// release ends an EngineState's use.
func release(state any) {
	if r, ok := state.(Releaser); ok {
		r.Release()
	}
}

// NetDelta is the net change of one table over a whole transaction:
// Inserted holds rows that exist after commit but not before (including
// new versions of updated rows); Deleted holds rows that existed before
// but not after (including old versions of updated rows).
type NetDelta struct {
	Inserted []Row
	Deleted  []Row
}

// BatchInfo identifies one Tx.Commit firing wave. Seq is unique per
// commit; Deltas maps every table the transaction touched to its net
// change.
type BatchInfo struct {
	Seq    int64
	Deltas map[string]*NetDelta
	// Silent marks a data-movement transaction (Tx.SetSilent) whose firing
	// wave must not produce observable trigger activity: bodies may refresh
	// internal state (a materialized view's diff baseline) but must not
	// activate triggers or deliver actions. Shard rebalancing uses it — the
	// donor's deletes and recipient's inserts are physical placement
	// artifacts, not logical data changes.
	Silent bool
	// EngineState is scratch storage for the trigger-translation layer:
	// every firing wave of one commit shares this BatchInfo and runs on
	// the committing goroutine, so per-commit state cached here (e.g.
	// cross-plan activation dedup, the staged invocations) needs no locking.
	// When the prepare phase has finished, failed or not, reldb calls
	// Release on it if it is a Releaser: what served only the evaluation
	// (the engine's evaluation context) may go back then, while what Commit
	// delivers stays with the BatchInfo.
	EngineState any
	// Obs is the opaque observability token set via Tx.SetObsToken (the
	// engine's prepare-phase trace span); reldb never inspects it.
	Obs any
}

// SQLTrigger is a statement-level AFTER trigger. Body is the compiled
// trigger action.
type SQLTrigger struct {
	Name  string
	Table string
	Event Event
	Body  func(*FireContext) error
}

// Stats counts engine work, used by benchmarks and by tests that assert
// index access paths are taken.
type Stats struct {
	Statements   int64
	TriggerFires int64
	FullScans    int64
	IndexLookups int64
	RowsRead     int64
}

// counters is the internal atomic mirror of Stats, safe for concurrent
// readers (Scan/Lookup run under shared locks at the engine layer).
type counters struct {
	statements   atomic.Int64
	triggerFires atomic.Int64
	fullScans    atomic.Int64
	indexLookups atomic.Int64
	rowsRead     atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Statements:   c.statements.Load(),
		TriggerFires: c.triggerFires.Load(),
		FullScans:    c.fullScans.Load(),
		IndexLookups: c.indexLookups.Load(),
		RowsRead:     c.rowsRead.Load(),
	}
}

func (c *counters) reset() {
	c.statements.Store(0)
	c.triggerFires.Store(0)
	c.fullScans.Store(0)
	c.indexLookups.Store(0)
	c.rowsRead.Store(0)
}

// maxTriggerDepth bounds trigger cascades, mirroring DB2's limit of 16.
const maxTriggerDepth = 16

// index is a single-column secondary index: one posting list of slots per
// distinct column value, each list in primary-key order (see cmpSlot).
type index struct {
	col int
	m   map[xdm.CompKey][]uint32
}

type tableData struct {
	def   *schema.Table
	pkIdx []int
	// rows is the slot array: each slot's reference to its row's current
	// version in store. A vacant entry is a free slot, listed in free; an
	// update points the slot its row already has at the new version.
	rows  []vref
	store slabs
	free  []uint32
	// scratch is the copy of a row an update's set function edits; the
	// edited row is carved into store before set runs again.
	scratch Row
	// keyBuf holds the TupleKeys sortKeyed orders by, and keyed the rows
	// Tx.net orders; frames holds each cascade depth's firing scratch (see
	// fireFrame). Like scratch they are reused from statement to statement,
	// which the engine's per-table write lock serializes.
	keyBuf      []byte
	keyed       []keyedRow
	frames      []*fireFrame
	compactions int // of store, for tests
	// pk maps a row's storage key to its slot: the key columns' CompKey, or
	// for a table without a primary key the synthetic rowid's. On a
	// single-column primary key it doubles as that column's index (pkCol).
	pk    slotMap
	pkCol int // the single primary-key column, else -1
	// keys holds each slot's storage key for tables without a primary key
	// (a keyed table derives it from the row); nil otherwise.
	keys    []xdm.CompKey
	indexes []*index // by column position; nil where the column has none
	autoID  int64    // synthetic rowid for tables without PK
	// fireDepth guards against runaway trigger cascades on this table.
	// Per-table counters keep concurrent statements on disjoint tables
	// (legal under the engine's per-table locks) from counting toward
	// each other's cascade budget; same-table writers are serialized by
	// the engine, and a cross-table cascade loop still grows every
	// counter it revisits, so the bound still trips.
	fireDepth atomic.Int32
}

// DB is an in-memory relational database instance over a fixed schema.
type DB struct {
	schema     *schema.Schema
	tables     map[string]*tableData
	triggers   []*SQLTrigger
	byName     map[string]*SQLTrigger
	enforceFKs bool
	stats      counters
	batchSeq   atomic.Int64
	writes     atomic.Uint64 // see WriteSeq
	// nesting reports overall cascade depth in FireContext.Depth. Under
	// concurrent statements (disjoint tables) it over-counts by the
	// number of in-flight firings — informational only; the cascade
	// LIMIT uses the per-table counters, which concurrency cannot trip.
	nesting atomic.Int32
	// obs, when non-nil, holds resolved latency-histogram handles (see
	// AttachObs). Nil means disabled: statement paths pay one atomic load
	// and a branch, never a clock read.
	obs atomic.Pointer[dbObs]
}

// Open creates an empty database for the schema. Every primary-key column
// and every foreign-key column of every table is indexed automatically.
func Open(s *schema.Schema) (*DB, error) {
	db := &DB{
		schema: s,
		tables: map[string]*tableData{},
		byName: map[string]*SQLTrigger{},
	}
	for _, t := range s.Tables() {
		td := &tableData{
			def:     t,
			pkIdx:   t.PKIndexes(),
			store:   slabs{width: uint32(len(t.Columns))},
			pk:      newSlotMap(),
			pkCol:   -1,
			indexes: make([]*index, len(t.Columns)),
		}
		if len(td.pkIdx) == 1 {
			td.pkCol = td.pkIdx[0]
		}
		db.tables[t.Name] = td
	}
	for _, t := range s.Tables() {
		for _, k := range t.PrimaryKey {
			if err := db.CreateIndex(t.Name, k); err != nil {
				return nil, err
			}
		}
		for _, fk := range t.ForeignKeys {
			for _, c := range fk.Columns {
				if err := db.CreateIndex(t.Name, c); err != nil {
					return nil, err
				}
			}
		}
	}
	return db, nil
}

// Schema returns the database schema.
func (db *DB) Schema() *schema.Schema { return db.schema }

// SetEnforceFKs toggles foreign-key enforcement on writes.
func (db *DB) SetEnforceFKs(on bool) { db.enforceFKs = on }

// Stats returns a copy of the engine counters.
func (db *DB) Stats() Stats { return db.stats.snapshot() }

// ResetStats zeroes the engine counters.
func (db *DB) ResetStats() { db.stats.reset() }

// WriteSeq returns the database's write sequence. It grows with every
// applied statement and every transaction commit and rollback, and is never
// reset, so a reader that sees the value it saw before knows nothing was
// written in between.
func (db *DB) WriteSeq() uint64 { return db.writes.Load() }

// applied counts one applied statement.
func (db *DB) applied() {
	db.stats.statements.Add(1)
	db.writes.Add(1)
}

func (db *DB) table(name string) (*tableData, error) {
	td, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("reldb: unknown table %q", name)
	}
	return td, nil
}

// keyOf returns the storage key of a row of a table with a primary key.
func (td *tableData) keyOf(r Row) xdm.CompKey { return xdm.ColsKey(r, td.pkIdx) }

// keyAt returns the storage key of the row in slot s.
func (td *tableData) keyAt(s uint32) xdm.CompKey {
	if len(td.pkIdx) == 0 {
		return td.keys[s]
	}
	return td.keyOf(td.row(s))
}

// cmpSlot orders the row in slot s against row r (storage key k) in
// primary-key order: xdm.Compare over the key columns, or rowid order for a
// table without a primary key. Posting lists are kept in this order.
func (td *tableData) cmpSlot(s uint32, r Row, k xdm.CompKey) int {
	if len(td.pkIdx) == 0 {
		return td.keys[s].Compare(k)
	}
	sr := td.row(s)
	for _, c := range td.pkIdx {
		if d := xdm.Compare(sr[c], r[c]); d != 0 {
			return d
		}
	}
	return 0
}

// cmpSlots is cmpSlot between two slots.
func (td *tableData) cmpSlots(a, b uint32) int { return td.cmpSlot(a, td.row(b), td.keyAt(b)) }

// search returns the position in posting list l of the first slot whose
// row does not order before (r, k).
func (td *tableData) search(l []uint32, r Row, k xdm.CompKey) int {
	i, _ := slices.BinarySearchFunc(l, k, func(s uint32, k xdm.CompKey) int { return td.cmpSlot(s, r, k) })
	return i
}

func (db *DB) validateRow(td *tableData, r Row) error {
	if len(r) != len(td.def.Columns) {
		return fmt.Errorf("reldb: table %s expects %d columns, got %d", td.def.Name, len(td.def.Columns), len(r))
	}
	for i, c := range td.def.Columns {
		if !c.Type.Accepts(r[i]) {
			return fmt.Errorf("reldb: table %s column %s (%s) rejects value %s", td.def.Name, c.Name, c.Type, r[i])
		}
	}
	for _, c := range td.pkIdx {
		if r[c].IsNull() {
			return fmt.Errorf("reldb: table %s primary key column %s is NULL", td.def.Name, td.def.Columns[c].Name)
		}
	}
	if db.enforceFKs {
		for _, fk := range td.def.ForeignKeys {
			if err := db.checkFK(td, fk, r); err != nil {
				return err
			}
		}
	}
	return nil
}

func (db *DB) checkFK(td *tableData, fk schema.ForeignKey, r Row) error {
	ref, err := db.table(fk.RefTable)
	if err != nil {
		return err
	}
	// NULL foreign keys are vacuously satisfied.
	vals := make([]xdm.Value, len(fk.Columns))
	for i, c := range fk.Columns {
		ci := td.def.ColIndex(c)
		if r[ci].IsNull() {
			return nil
		}
		vals[i] = r[ci]
	}
	violation := func() error {
		return fmt.Errorf("reldb: foreign key violation: %s(%v) has no parent in %s", td.def.Name, vals, fk.RefTable)
	}
	// Fast path: the key names the referenced table's whole primary key,
	// so the key map's answer is final either way. (A keyless table's map
	// holds rowids, which no foreign key names.)
	if len(ref.pkIdx) > 0 && slices.Equal(fk.RefColumns, ref.def.PrimaryKey) {
		if _, found := ref.pk.get(xdm.RowKey(vals)); !found {
			return violation()
		}
		return nil
	}
	refIdx := make([]int, len(fk.RefColumns))
	for i, rc := range fk.RefColumns {
		refIdx[i] = ref.def.ColIndex(rc)
	}
	// Non-PK fallback: a whole-table scan of the referenced table, which
	// must show up in the stats like every other scan so access-path
	// assertions (and capacity planning) see it.
	db.stats.fullScans.Add(1)
	for s := range ref.rows {
		row := ref.row(uint32(s))
		if row == nil {
			continue
		}
		match := true
		for i, ri := range refIdx {
			if !xdm.Equal(row[ri], vals[i]) {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	return violation()
}

// CreateIndex builds an index on a single column; idempotent. The index on
// a single-column primary key is the key map itself.
func (db *DB) CreateIndex(table, col string) error {
	td, err := db.table(table)
	if err != nil {
		return err
	}
	ci := td.def.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("reldb: table %s has no column %q", table, col)
	}
	if ci == td.pkCol || td.indexes[ci] != nil {
		return nil
	}
	// Building over loaded rows: gather each value's slots, then sort every
	// list once (filing row by row would shift a long list per row).
	ix := &index{col: ci, m: map[xdm.CompKey][]uint32{}}
	for s := range td.rows {
		if r := td.row(uint32(s)); r != nil {
			k := r[ci].CompKey()
			ix.m[k] = append(ix.m[k], uint32(s))
		}
	}
	for _, l := range ix.m {
		slices.SortFunc(l, td.cmpSlots)
	}
	td.indexes[ci] = ix
	return nil
}

// HasIndex reports whether a single-column index exists.
func (db *DB) HasIndex(table, col string) bool {
	td, err := db.table(table)
	if err != nil {
		return false
	}
	ci := td.def.ColIndex(col)
	return ci >= 0 && (ci == td.pkCol || td.indexes[ci] != nil)
}

// add files slot s, holding row r under storage key k, in r's posting list
// at its primary-key position: in place, after the last entry when keys
// arrive in ascending order (a load), else by binary search and a shift.
func (ix *index) add(td *tableData, s uint32, r Row, k xdm.CompKey) {
	v := r[ix.col].CompKey()
	l := ix.m[v]
	i := len(l)
	if i > 0 && td.cmpSlot(l[i-1], r, k) > 0 {
		i = td.search(l, r, k)
	}
	ix.m[v] = slices.Insert(l, i, s)
}

// remove unfiles slot s, filed as row r under storage key k.
func (ix *index) remove(td *tableData, s uint32, r Row, k xdm.CompKey) {
	v := r[ix.col].CompKey()
	l := ix.m[v]
	i := td.search(l, r, k)
	if i == len(l) || l[i] != s {
		// Keys that xdm.Compare ties but CompKey tells apart (an int above
		// 2^53 beside the float it rounds to) defeat the binary search.
		if i = slices.Index(l, s); i < 0 {
			return
		}
	}
	if len(l) == 1 {
		delete(ix.m, v)
		return
	}
	ix.m[v] = slices.Delete(l, i, i+1)
}

// alloc returns a vacant slot: the most recently freed one, else a new one.
func (td *tableData) alloc() uint32 {
	if n := len(td.free); n > 0 {
		s := td.free[n-1]
		td.free = td.free[:n-1]
		return s
	}
	td.rows = append(td.rows, vref{})
	if len(td.pkIdx) == 0 {
		td.keys = append(td.keys, xdm.CompKey{})
	}
	return uint32(len(td.rows) - 1)
}

// place carves a version of row r into the vacant slot s, files it under
// storage key k, and returns the stored version.
func (td *tableData) place(s uint32, r Row, k xdm.CompKey) Row {
	td.rows[s], r = td.store.carve(r)
	if len(td.pkIdx) == 0 {
		td.keys[s] = k
	}
	td.pk.put(k, s)
	for _, ix := range td.indexes {
		if ix != nil {
			ix.add(td, s, r, k)
		}
	}
	return r
}

// vacate unfiles the row in slot s (storage key k) and frees the slot.
func (td *tableData) vacate(s uint32, k xdm.CompKey) {
	r := td.row(s)
	for _, ix := range td.indexes {
		if ix != nil {
			ix.remove(td, s, r, k)
		}
	}
	td.pk.del(k)
	td.rows[s] = vref{}
	td.free = append(td.free, s)
}

// keyedRow pairs a stored row with its storage key and slot. lo and hi,
// set only by sortKeyed, delimit the row's TupleKey in the table's keyBuf.
type keyedRow struct {
	key    xdm.CompKey
	row    Row
	slot   uint32
	lo, hi int32
}

// updateChange records one row rewrite: the storage keys before and after
// (they differ when the update changes the primary key), both versions,
// the slot the row keeps and where the new version was carved.
type updateChange struct {
	oldKey, newKey xdm.CompKey
	old, new       Row
	slot           uint32
	ref            vref
}

// refiles reports whether the update must move the row's entry in ix: a
// key change reorders every posting list (they are in key order), else only
// a change of the indexed value does. A plain non-key update edits no index.
func (c *updateChange) refiles(ix *index) bool {
	return c.newKey != c.oldKey || c.old[ix.col].CompKey() != c.new[ix.col].CompKey()
}

// unfile takes the old version out of the key map and posting lists it
// must leave; refile points the slot at the new version and files it. A
// statement unfiles all its rows before refiling any, so lists stay sorted
// while primary keys chain or swap.
func (td *tableData) unfile(c *updateChange) {
	for _, ix := range td.indexes {
		if ix != nil && c.refiles(ix) {
			ix.remove(td, c.slot, c.old, c.oldKey)
		}
	}
	if c.newKey != c.oldKey {
		td.pk.del(c.oldKey)
	}
}

func (td *tableData) refile(c *updateChange) {
	td.rows[c.slot] = c.ref
	if c.newKey != c.oldKey {
		td.pk.put(c.newKey, c.slot)
	}
	for _, ix := range td.indexes {
		if ix != nil && c.refiles(ix) {
			ix.add(td, c.slot, c.new, c.newKey)
		}
	}
}

// sortKeyed puts rows into the order Δ/∇ rows are reported in: ascending
// xdm.TupleKey of the primary key (the storage-key order the goldens pin),
// rowid order for a table without a primary key. The keys are written one
// after another into the table's keyBuf, not into a string per row.
func (td *tableData) sortKeyed(krs []keyedRow) {
	if len(krs) < 2 {
		return
	}
	if len(td.pkIdx) == 0 {
		slices.SortFunc(krs, func(a, b keyedRow) int { return a.key.Compare(b.key) })
		return
	}
	buf := td.keyBuf[:0]
	for i := range krs {
		lo := len(buf)
		for _, c := range td.pkIdx {
			buf = xdm.AppendTupleKey(buf, krs[i].row[c:c+1])
		}
		krs[i].lo, krs[i].hi = int32(lo), int32(len(buf))
	}
	slices.SortFunc(krs, func(a, b keyedRow) int { return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]) })
	td.keyBuf = keepScratch(buf)
}

// maxScratchBytes caps what a table keeps of its sort scratch (keyBuf,
// keyed): one huge statement does not pin its scratch for the table's
// lifetime.
const maxScratchBytes = 64 << 10

// keepScratch returns s emptied for the next statement, or nil when it grew
// past maxScratchBytes.
func keepScratch[T any](s []T) []T {
	if cap(s)*int(reflect.TypeFor[T]().Size()) > maxScratchBytes {
		return nil
	}
	return s[:0]
}

// match returns the rows satisfying pred, in sortKeyed order.
func (td *tableData) match(pred func(Row) bool) []keyedRow {
	var out []keyedRow
	for s := range td.rows {
		if r := td.row(uint32(s)); r != nil && pred(r) {
			out = append(out, keyedRow{key: td.keyAt(uint32(s)), row: r, slot: uint32(s)})
		}
	}
	td.sortKeyed(out)
	return out
}

// applyInsert validates and stores rows without firing triggers.
func (db *DB) applyInsert(table string, rows []Row) ([]keyedRow, error) {
	td, err := db.table(table)
	if err != nil {
		return nil, err
	}
	// Validate first (all-or-nothing).
	keyed := len(td.pkIdx) > 0
	inserted := make([]keyedRow, len(rows))
	var seen map[xdm.CompKey]struct{}
	if keyed && len(rows) > 1 {
		seen = make(map[xdm.CompKey]struct{}, len(rows))
	}
	for i, r := range rows {
		if err := db.validateRow(td, r); err != nil {
			return nil, err
		}
		if !keyed {
			continue
		}
		k := td.keyOf(r)
		_, dup := td.pk.get(k)
		if _, again := seen[k]; dup || again {
			return nil, fmt.Errorf("reldb: duplicate primary key in %s: %v", table, []xdm.Value(r))
		}
		if seen != nil {
			seen[k] = struct{}{}
		}
		inserted[i].key = k
	}
	for i, r := range rows {
		kr := &inserted[i]
		if !keyed {
			td.autoID++
			kr.key = xdm.Int(td.autoID).CompKey()
		}
		kr.slot = td.alloc()
		kr.row = td.place(kr.slot, r, kr.key)
	}
	td.settle()
	db.applied()
	return inserted, nil
}

// Insert adds rows to the table as one statement, then fires AFTER INSERT
// triggers with Δtable = rows. The statement is all-or-nothing: primary-key
// or type violations roll the whole statement back. A statement that
// inserted nothing fires nothing, matching Delete/Update (statement-level
// triggers still see an empty transition table in real SQL engines, but
// our translated bodies — and the paper's — have nothing to detect in an
// empty Δ, so the firing would be pure overhead).
func (db *DB) Insert(table string, rows ...Row) error {
	if m := db.obs.Load(); m != nil {
		defer m.stmt.Since(time.Now())
	}
	inserted, err := db.applyInsert(table, rows)
	if err != nil {
		return err
	}
	if len(inserted) == 0 {
		return nil
	}
	return db.fire(table, EvInsert, rowsOf(inserted), nil, nil, nil)
}

func rowsOf(krs []keyedRow) []Row {
	out := make([]Row, len(krs))
	for i, kr := range krs {
		out[i] = kr.row
	}
	return out
}

// applyDelete removes matching rows without firing triggers.
func (db *DB) applyDelete(table string, pred func(Row) bool) ([]keyedRow, error) {
	td, err := db.table(table)
	if err != nil {
		return nil, err
	}
	removed := td.match(pred)
	for _, kr := range removed {
		td.vacate(kr.slot, kr.key)
	}
	td.settle()
	db.applied()
	return removed, nil
}

// Delete removes all rows matching pred as one statement and fires AFTER
// DELETE triggers with ∇table = removed rows. Returns the removed count.
func (db *DB) Delete(table string, pred func(Row) bool) (int, error) {
	if m := db.obs.Load(); m != nil {
		defer m.stmt.Since(time.Now())
	}
	removed, err := db.applyDelete(table, pred)
	if err != nil {
		return 0, err
	}
	if len(removed) == 0 {
		return 0, nil
	}
	return len(removed), db.fire(table, EvDelete, nil, rowsOf(removed), nil, nil)
}

// applyDeleteByPK removes one row by primary key without firing triggers.
func (db *DB) applyDeleteByPK(table string, key []xdm.Value) (kr keyedRow, found bool, err error) {
	td, err := db.table(table)
	if err != nil {
		return kr, false, err
	}
	if len(td.pkIdx) == 0 {
		return kr, false, fmt.Errorf("reldb: table %s has no primary key", table)
	}
	k := xdm.RowKey(key)
	s, found := td.pk.get(k)
	db.applied()
	if !found {
		return kr, false, nil
	}
	kr = keyedRow{key: k, row: td.row(s), slot: s}
	td.vacate(s, k)
	td.settle()
	return kr, true, nil
}

// DeleteByPK removes the row with the given primary key, if present.
func (db *DB) DeleteByPK(table string, key ...xdm.Value) (bool, error) {
	if m := db.obs.Load(); m != nil {
		defer m.stmt.Since(time.Now())
	}
	kr, found, err := db.applyDeleteByPK(table, key)
	if err != nil || !found {
		return false, err
	}
	return true, db.fire(table, EvDelete, nil, []Row{kr.row}, nil, nil)
}

// applyUpdate rewrites matching rows without firing triggers.
func (db *DB) applyUpdate(table string, pred func(Row) bool, set func(Row) Row) ([]updateChange, error) {
	td, err := db.table(table)
	if err != nil {
		return nil, err
	}
	// A failed statement leaves the versions it carved dead; settle counts
	// them.
	defer td.settle()
	// set sees the rows in the Δ/∇ order, like a key-ordered scan would.
	matched := td.match(pred)
	changes := make([]updateChange, len(matched))
	rekeyed := false
	for i, kr := range matched {
		ref, nr, err := db.edit(td, kr.row, set)
		if err != nil {
			return nil, err
		}
		// Tables without a primary key keep their synthetic rowid: the
		// updated row is the same row, and key stability is what lets
		// Tx coalescing classify the change as an UPDATE pair.
		nk := kr.key
		if len(td.pkIdx) > 0 {
			nk = td.keyOf(nr)
		}
		changes[i] = updateChange{oldKey: kr.key, newKey: nk, old: kr.row, new: nr, slot: kr.slot, ref: ref}
		rekeyed = rekeyed || nk != kr.key
	}
	// Check PK collisions after removal of the old keys.
	if rekeyed {
		removed := map[xdm.CompKey]bool{}
		for _, c := range changes {
			removed[c.oldKey] = true
		}
		added := map[xdm.CompKey]bool{}
		for _, c := range changes {
			if added[c.newKey] {
				return nil, fmt.Errorf("reldb: update produces duplicate primary key in %s", table)
			}
			if _, exists := td.pk.get(c.newKey); exists && !removed[c.newKey] {
				return nil, fmt.Errorf("reldb: update collides with existing primary key in %s", table)
			}
			added[c.newKey] = true
		}
	}
	for i := range changes {
		td.unfile(&changes[i])
	}
	for i := range changes {
		td.refile(&changes[i])
	}
	db.applied()
	return changes, nil
}

// edit runs set on a scratch copy of the stored version old, validates the
// row it returns and carves that as the new version.
func (db *DB) edit(td *tableData, old Row, set func(Row) Row) (vref, Row, error) {
	td.scratch = append(td.scratch[:0], old...)
	nr := set(td.scratch)
	if err := db.validateRow(td, nr); err != nil {
		return vref{}, nil, err
	}
	ref, nr := td.store.carve(nr)
	return ref, nr, nil
}

// Update rewrites all rows matching pred via set, as one statement, then
// fires AFTER UPDATE triggers with ∇table = old rows and Δtable = new rows.
// set must return a full replacement row. It may mutate the copy it is
// given, which is scratch the store reuses: set must not keep it. Primary-key
// changes are permitted if they do not collide.
func (db *DB) Update(table string, pred func(Row) bool, set func(Row) Row) (int, error) {
	if m := db.obs.Load(); m != nil {
		defer m.stmt.Since(time.Now())
	}
	changes, err := db.applyUpdate(table, pred, set)
	if err != nil {
		return 0, err
	}
	if len(changes) == 0 {
		return 0, nil
	}
	oldRows := make([]Row, len(changes))
	newRows := make([]Row, len(changes))
	for i, c := range changes {
		oldRows[i], newRows[i] = c.old, c.new
	}
	return len(changes), db.fire(table, EvUpdate, newRows, oldRows, nil, nil)
}

// applyUpdateByPK rewrites one row by primary key without firing triggers.
func (db *DB) applyUpdateByPK(table string, key []xdm.Value, set func(Row) Row) (c updateChange, found bool, err error) {
	td, err := db.table(table)
	if err != nil {
		return c, false, err
	}
	if len(td.pkIdx) == 0 {
		return c, false, fmt.Errorf("reldb: table %s has no primary key", table)
	}
	k := xdm.RowKey(key)
	s, found := td.pk.get(k)
	if !found {
		db.applied()
		return c, false, nil
	}
	defer td.settle()
	old := td.row(s)
	ref, nr, err := db.edit(td, old, set)
	if err != nil {
		return c, false, err
	}
	c = updateChange{oldKey: k, newKey: td.keyOf(nr), old: old, new: nr, slot: s, ref: ref}
	if c.newKey != k {
		if _, exists := td.pk.get(c.newKey); exists {
			return c, false, fmt.Errorf("reldb: update collides with existing primary key in %s", table)
		}
	}
	td.unfile(&c)
	td.refile(&c)
	db.applied()
	return c, true, nil
}

// UpdateByPK rewrites the single row with the given primary key; set is as
// in Update. Its one-row transition tables are the firing frame's.
func (db *DB) UpdateByPK(table string, key []xdm.Value, set func(Row) Row) (bool, error) {
	if m := db.obs.Load(); m != nil {
		defer m.stmt.Since(time.Now())
	}
	c, found, err := db.applyUpdateByPK(table, key, set)
	if err != nil || !found {
		return false, err
	}
	td := db.tables[table]
	fr := td.frame(td.fireDepth.Load() + 1) // the frame fire takes below
	fr.ins[0], fr.del[0] = c.new, c.old
	return true, db.fire(table, EvUpdate, fr.ins[:], fr.del[:], nil, nil)
}

// fireFrame is what one cascade depth's firings on a table reuse from
// statement to statement: the FireContext a statement's bodies share and a
// point update's one-row transition tables. A statement a body executes on
// the same table fires one depth down, in a frame of its own; one on another
// table uses that table's frames. fire clears the frame when the statement's
// bodies are done, so it keeps no row alive.
type fireFrame struct {
	ctx      FireContext
	ins, del [1]Row
}

// frame returns the frame of the firings at cascade depth d (1 for a
// statement no trigger body executed), building it on first use.
func (td *tableData) frame(d int32) *fireFrame {
	for int(d) > len(td.frames) {
		td.frames = append(td.frames, &fireFrame{})
	}
	return td.frames[d-1]
}

// fire activates the AFTER triggers for (table, ev). The cascade guard is
// a per-table counter (see tableData.fireDepth), which also picks the
// statement's fireFrame. stage, when non-nil, makes this a staging pass: it
// is handed to the bodies via FireContext.Stage so their deliveries defer to
// Tx.Commit.
func (db *DB) fire(table string, ev Event, inserted, deleted []Row, batch *BatchInfo, stage func(func() error)) error {
	td, err := db.table(table)
	if err != nil {
		return err
	}
	d := td.fireDepth.Add(1)
	defer td.fireDepth.Add(-1)
	fr := td.frame(d)
	defer func() { *fr = fireFrame{} }()
	if d > maxTriggerDepth {
		return fmt.Errorf("reldb: trigger cascade exceeds depth %d on %s", maxTriggerDepth, table)
	}
	depth := db.nesting.Add(1)
	defer db.nesting.Add(-1)
	// Snapshot the trigger list: a trigger body may call CreateTrigger or
	// DropTrigger, and iterating the live slice while it is rewritten
	// skips or double-fires neighbors. CreateTrigger/DropTrigger never
	// mutate the published slice in place (copy-on-write), so holding the
	// header captured here is a stable view of the statement-time set:
	// triggers installed when the statement completed fire; triggers
	// created by a body join from the next statement on.
	triggers := db.triggers
	var ctx *FireContext // one for the statement: every body gets it
	defer func() {
		if ctx != nil {
			release(ctx.EngineState)
		}
	}()
	for _, tr := range triggers {
		if tr.Table != table || tr.Event != ev {
			continue
		}
		db.stats.triggerFires.Add(1)
		if ctx == nil {
			ctx = &fr.ctx
			*ctx = FireContext{
				DB:       db,
				Table:    table,
				Event:    ev,
				Inserted: inserted,
				Deleted:  deleted,
				Depth:    int(depth),
				Batch:    batch,
				Stage:    stage,
			}
		}
		if err := tr.Body(ctx); err != nil {
			return fmt.Errorf("reldb: trigger %s: %w", tr.Name, err)
		}
	}
	return nil
}

// CreateTrigger installs a statement-level AFTER trigger.
func (db *DB) CreateTrigger(tr *SQLTrigger) error {
	if tr.Name == "" {
		return fmt.Errorf("reldb: trigger must have a name")
	}
	if _, dup := db.byName[tr.Name]; dup {
		return fmt.Errorf("reldb: duplicate trigger %q", tr.Name)
	}
	if _, err := db.table(tr.Table); err != nil {
		return err
	}
	if tr.Body == nil {
		return fmt.Errorf("reldb: trigger %q has no body", tr.Name)
	}
	// Copy-on-write: in-flight firing waves iterate the slice header they
	// captured, so the published slice must never be appended to in place.
	next := make([]*SQLTrigger, len(db.triggers), len(db.triggers)+1)
	copy(next, db.triggers)
	db.triggers = append(next, tr)
	db.byName[tr.Name] = tr
	return nil
}

// DropTrigger removes a trigger by name.
func (db *DB) DropTrigger(name string) error {
	if _, ok := db.byName[name]; !ok {
		return fmt.Errorf("reldb: no trigger %q", name)
	}
	delete(db.byName, name)
	// Copy-on-write, as in CreateTrigger: rebuild rather than splice so an
	// in-flight firing wave keeps its stable snapshot.
	next := make([]*SQLTrigger, 0, len(db.triggers)-1)
	for _, tr := range db.triggers {
		if tr.Name != name {
			next = append(next, tr)
		}
	}
	db.triggers = next
	return nil
}

// TriggerCount reports the number of installed SQL triggers.
func (db *DB) TriggerCount() int { return len(db.triggers) }

// Scan iterates every row of the table in slot order (see the package
// comment); fn returns false to stop early.
func (db *DB) Scan(table string, fn func(Row) bool) error {
	td, err := db.table(table)
	if err != nil {
		return err
	}
	db.stats.fullScans.Add(1)
	read := 0
	for s := range td.rows {
		r := td.row(uint32(s))
		if r == nil {
			continue
		}
		read++
		if !fn(r) {
			break
		}
	}
	db.stats.rowsRead.Add(int64(read))
	return nil
}

// Lookup iterates the rows whose col equals v in primary-key order (see
// cmpSlot), walking the column's posting list when it is indexed and
// scanning the table otherwise; fn returns false to stop early.
func (db *DB) Lookup(table, col string, v xdm.Value, fn func(Row) bool) error {
	td, err := db.table(table)
	if err != nil {
		return err
	}
	ci := td.def.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("reldb: table %s has no column %q", table, col)
	}
	if ci == td.pkCol {
		db.stats.indexLookups.Add(1)
		if s, ok := td.pk.get(v.CompKey()); ok {
			db.stats.rowsRead.Add(1)
			fn(td.row(s))
		}
		return nil
	}
	if ix := td.indexes[ci]; ix != nil {
		db.stats.indexLookups.Add(1)
		read := 0
		for _, s := range ix.m[v.CompKey()] {
			read++
			if !fn(td.row(s)) {
				break
			}
		}
		db.stats.rowsRead.Add(int64(read))
		return nil
	}
	db.stats.fullScans.Add(1)
	db.stats.rowsRead.Add(int64(td.pk.len()))
	var hits []uint32
	for s := range td.rows {
		if r := td.row(uint32(s)); r != nil && xdm.Equal(r[ci], v) {
			hits = append(hits, uint32(s))
		}
	}
	slices.SortFunc(hits, td.cmpSlots)
	for _, s := range hits {
		if !fn(td.row(s)) {
			break
		}
	}
	return nil
}

// GetByPK returns the row with the given primary key.
func (db *DB) GetByPK(table string, key ...xdm.Value) (Row, bool, error) {
	td, err := db.table(table)
	if err != nil {
		return nil, false, err
	}
	if len(td.pkIdx) == 0 {
		return nil, false, fmt.Errorf("reldb: table %s has no primary key", table)
	}
	s, ok := td.pk.get(xdm.RowKey(key))
	if !ok {
		return nil, false, nil
	}
	return td.row(s), true, nil
}

// RowCount reports the number of rows in the table (0 for unknown tables).
func (db *DB) RowCount(table string) int {
	td, ok := db.tables[table]
	if !ok {
		return 0
	}
	return td.pk.len()
}

// AllRows returns the table's rows in slot order (the slice is the
// caller's; the rows are the stored snapshots); intended for tests and
// diagnostics.
func (db *DB) AllRows(table string) []Row {
	td, ok := db.tables[table]
	if !ok {
		return nil
	}
	out := make([]Row, 0, td.pk.len())
	for s := range td.rows {
		if r := td.row(uint32(s)); r != nil {
			out = append(out, r)
		}
	}
	return out
}
