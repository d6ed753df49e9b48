package reldb

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"quark/internal/schema"
	"quark/internal/xdm"
)

// The storage model test replays a byte-driven stream of statements against
// the slot store and against a naive []Row model, and after every step
// compares everything a reader can observe (GetByPK, RowCount, Scan, and
// Lookup on every column in primary-key order) and checks the store's own
// invariants (both halves of the key map, free list, sorted posting lists,
// the slabs and the compaction bound). TestStorageModel derives the bytes
// from a pinned seed; FuzzStorageModel takes them from the fuzzer. One op
// rewrites every leaf until the table compacts, so short streams cross the
// compaction bound too.

var modelSeed = flag.Int64("seed", 1, "first seed of TestStorageModel's op streams")

// bigID and its neighbours are ids above 2^53: float promotion ties them,
// so they only stay ordered while xdm.Compare compares ints exactly.
const bigID = int64(1) << 53

func modelSchema() *schema.Schema {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "leaf",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "parent", Type: schema.TInt},
			{Name: "val", Type: schema.TFloat}, {Name: "tag", Type: schema.TString},
		},
		PrimaryKey: []string{"id"},
	})
	s.MustAddTable(&schema.Table{
		Name: "pair",
		Columns: []schema.Column{
			{Name: "a", Type: schema.TInt}, {Name: "b", Type: schema.TString}, {Name: "v", Type: schema.TInt},
		},
		PrimaryKey: []string{"a", "b"},
	})
	s.MustAddTable(&schema.Table{
		Name:    "log",
		Columns: []schema.Column{{Name: "k", Type: schema.TInt}, {Name: "msg", Type: schema.TString}},
	})
	// One string key and one float key: between them their keys land in both
	// halves of the slot map ("" and every number in the pointer-free one).
	s.MustAddTable(&schema.Table{
		Name:       "name",
		Columns:    []schema.Column{{Name: "s", Type: schema.TString}, {Name: "n", Type: schema.TInt}},
		PrimaryKey: []string{"s"},
	})
	s.MustAddTable(&schema.Table{
		Name:       "meas",
		Columns:    []schema.Column{{Name: "x", Type: schema.TFloat}, {Name: "n", Type: schema.TInt}},
		PrimaryKey: []string{"x"},
	})
	return s
}

// mrow is one model row; id is its insertion sequence, which orders the rows
// of a table without a primary key.
type mrow struct {
	row Row
	id  int64
}

type mtable struct {
	name   string
	pk     []int
	rows   []mrow
	nextID int64
	peak   int // most rows the table ever held: the slot array's exact length
}

func (m *mtable) clone() *mtable {
	c := *m
	c.rows = slices.Clone(m.rows)
	return &c
}

// less is primary-key order: xdm.Compare over the key columns, insertion
// order for a keyless table.
func (m *mtable) less(a, b mrow) bool {
	for _, c := range m.pk {
		if d := xdm.Compare(a.row[c], b.row[c]); d != 0 {
			return d < 0
		}
	}
	return len(m.pk) == 0 && a.id < b.id
}

func (m *mtable) sameKey(a, b Row) bool {
	for _, c := range m.pk {
		if !xdm.Equal(a[c], b[c]) {
			return false
		}
	}
	return len(m.pk) > 0
}

// unique reports whether rows hold no two equal primary keys.
func (m *mtable) unique(rows []mrow) bool {
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if m.sameKey(rows[i].row, rows[j].row) {
				return false
			}
		}
	}
	return true
}

// insert, update and remove apply one statement to the model; ok is false
// (and the model unchanged) when the store must reject it.
func (m *mtable) insert(rows []Row) (ok bool) {
	next := slices.Clone(m.rows)
	id := m.nextID
	for _, r := range rows {
		id++
		next = append(next, mrow{r.Copy(), id})
	}
	if !m.unique(next) {
		return false
	}
	m.rows, m.nextID = next, id
	m.peak = max(m.peak, len(next))
	return true
}

func (m *mtable) update(pred func(Row) bool, set func(Row) Row) (n int, ok bool) {
	next := slices.Clone(m.rows)
	for i, r := range next {
		if pred(r.row) {
			next[i].row = set(r.row.Copy())
			n++
		}
	}
	if !m.unique(next) {
		return 0, false
	}
	m.rows = next
	return n, true
}

func (m *mtable) remove(pred func(Row) bool) (n int) {
	before := len(m.rows)
	m.rows = slices.DeleteFunc(slices.Clone(m.rows), func(r mrow) bool { return pred(r.row) })
	return before - len(m.rows)
}

// stream hands out the op bytes; an exhausted stream yields zeros.
type stream struct{ b []byte }

func (s *stream) n(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c) % n
}

func (s *stream) id() xdm.Value {
	i := s.n(14)
	if i < 12 {
		return xdm.Int(int64(i))
	}
	return xdm.Int(bigID + int64(i-12))
}

func (s *stream) nullableInt(n int) xdm.Value {
	if i := s.n(n + 1); i < n {
		return xdm.Int(int64(i))
	}
	return xdm.Null
}

func (s *stream) val() xdm.Value {
	switch i := s.n(6); {
	case i < 2:
		return xdm.Int(int64(i)) // a float column also stores ints
	case i < 4:
		return xdm.Float(float64(i - 2)) // ... which the float they equal must find
	default:
		return xdm.Float(float64(i) + 0.5)
	}
}

func (s *stream) str(pool ...string) xdm.Value {
	if i := s.n(len(pool) + 1); i < len(pool) {
		return xdm.Str(pool[i])
	}
	return xdm.Null
}

func (s *stream) nameKey() xdm.Value {
	return xdm.Str([]string{"a", "b", "", "ab"}[s.n(4)])
}

// measKey draws a float key from ints, the floats equal to them, fractions,
// and two floats beyond int64 that int64() would fold into one.
func (s *stream) measKey() xdm.Value {
	switch i := s.n(10); {
	case i < 3:
		return xdm.Int(int64(i))
	case i < 6:
		return xdm.Float(float64(i - 3))
	case i < 8:
		return xdm.Float(float64(i-6) + 0.5)
	default:
		return xdm.Float(float64(i-7) * 1e19)
	}
}

func (s *stream) pairKey() []xdm.Value {
	return []xdm.Value{xdm.Int(int64(s.n(3))), xdm.Str([]string{"x", "y", ""}[s.n(3)])}
}

// modelRun is one replay: the store, the model, and the open transaction.
type modelRun struct {
	t      *testing.T
	db     *DB
	tables map[string]*mtable
	names  []string

	tx       *Tx
	txModel  map[string]*mtable // the model at Begin
	txSlots  map[string][]Row   // each table's slots' versions at Begin
	txAutoID map[string]int64
}

func newModelRun(t *testing.T) *modelRun {
	db, err := Open(modelSchema())
	if err != nil {
		t.Fatal(err)
	}
	r := &modelRun{t: t, db: db, tables: map[string]*mtable{}, names: []string{"leaf", "pair", "log", "name", "meas"}}
	for _, n := range r.names {
		r.tables[n] = &mtable{name: n, pk: db.tables[n].pkIdx}
	}
	// One index per table exists from the start; the stream creates the
	// others over loaded rows.
	for _, ix := range [][2]string{{"leaf", "parent"}, {"log", "k"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *modelRun) w() Writer {
	if r.tx != nil {
		return r.tx
	}
	return r.db
}

// expect checks a statement's outcome against the model's verdict.
func (r *modelRun) expect(what string, err error, ok bool) {
	r.t.Helper()
	if (err == nil) != ok {
		r.t.Fatalf("%s: store error = %v, model accepts = %v", what, err, ok)
	}
}

func (r *modelRun) expectN(what string, got int, err error, want int, ok bool) {
	r.t.Helper()
	r.expect(what, err, ok)
	if ok && got != want {
		r.t.Fatalf("%s: store touched %d rows, model %d", what, got, want)
	}
}

// step decodes and applies one op to the store and the model.
func (r *modelRun) step(s *stream) {
	leaf, pair, log := r.tables["leaf"], r.tables["pair"], r.tables["log"]
	col := func(c int, v xdm.Value) func(Row) Row {
		return func(row Row) Row { row[c] = v; return row }
	}
	eq := func(c int, v xdm.Value) func(Row) bool {
		return func(row Row) bool { return xdm.Equal(row[c], v) }
	}
	switch op := s.n(29); op {
	case 0, 1: // insert 1-3 leaves
		rows := make([]Row, 1+s.n(3))
		for i := range rows {
			rows[i] = Row{s.id(), s.nullableInt(3), s.val(), s.str("a", "b", "")}
		}
		r.expect("insert leaf", r.w().Insert("leaf", rows...), leaf.insert(rows))
	case 2: // insert pairs
		rows := make([]Row, 1+s.n(2))
		for i := range rows {
			k := s.pairKey()
			rows[i] = Row{k[0], k[1], xdm.Int(int64(s.n(3)))}
		}
		r.expect("insert pair", r.w().Insert("pair", rows...), pair.insert(rows))
	case 3: // insert log rows, duplicates welcome
		rows := make([]Row, 1+s.n(3))
		for i := range rows {
			rows[i] = Row{s.nullableInt(2), xdm.Str([]string{"m0", "m1"}[s.n(2)])}
		}
		r.expect("insert log", r.w().Insert("log", rows...), log.insert(rows))
	case 4: // non-key, unindexed-at-first column by predicate
		pred, set := eq(1, s.nullableInt(3)), col(2, s.val())
		n, err := r.w().Update("leaf", pred, set)
		want, ok := leaf.update(pred, set)
		r.expectN("update leaf.val", n, err, want, ok)
	case 5: // indexed column by predicate, NULLs included
		pred, set := eq(1, s.nullableInt(3)), col(1, s.nullableInt(3))
		n, err := r.w().Update("leaf", pred, set)
		want, ok := leaf.update(pred, set)
		r.expectN("update leaf.parent", n, err, want, ok)
	case 6: // key chain in one statement: every id in [lo, lo+3) moves up by d
		lo, d := int64(s.n(10)), int64(1+s.n(3))
		pred := func(row Row) bool { id := row[0].AsInt(); return id >= lo && id < lo+3 }
		set := func(row Row) Row { row[0] = xdm.Int(row[0].AsInt() + d); return row }
		n, err := r.w().Update("leaf", pred, set)
		want, ok := leaf.update(pred, set)
		r.expectN("shift leaf.id", n, err, want, ok)
	case 7: // key swap in one statement
		x, y := s.id(), s.id()
		pred := func(row Row) bool { return xdm.Equal(row[0], x) || xdm.Equal(row[0], y) }
		set := func(row Row) Row {
			if xdm.Equal(row[0], x) {
				row[0] = y
			} else {
				row[0] = x
			}
			return row
		}
		n, err := r.w().Update("leaf", pred, set)
		want, ok := leaf.update(pred, set)
		r.expectN("swap leaf.id", n, err, want, ok)
	case 8: // composite key: rotate a for one b
		b := s.pairKey()[1]
		pred := eq(1, b)
		set := func(row Row) Row { row[0] = xdm.Int((row[0].AsInt() + 1) % 3); return row }
		n, err := r.w().Update("pair", pred, set)
		want, ok := pair.update(pred, set)
		r.expectN("rotate pair.a", n, err, want, ok)
	case 9: // keyless update keeps row identity
		pred, set := eq(0, s.nullableInt(2)), col(0, s.nullableInt(2))
		n, err := r.w().Update("log", pred, set)
		want, ok := log.update(pred, set)
		r.expectN("update log.k", n, err, want, ok)
	case 10, 11: // point update: plain, indexed column, or the key itself
		id := s.id()
		set := [](func(Row) Row){col(2, s.val()), col(1, s.nullableInt(3)), col(3, s.str("a", "b")), col(0, s.id())}[s.n(4)]
		found, err := r.w().UpdateByPK("leaf", []xdm.Value{id}, set)
		want, ok := leaf.update(eq(0, id), set)
		r.expectN("UpdateByPK leaf", b2i(found), err, want, ok)
	case 12:
		k := s.pairKey()
		set := [](func(Row) Row){col(2, xdm.Int(int64(s.n(3)))), col(1, s.pairKey()[1])}[s.n(2)]
		pred := func(row Row) bool { return xdm.Equal(row[0], k[0]) && xdm.Equal(row[1], k[1]) }
		found, err := r.w().UpdateByPK("pair", k, set)
		want, ok := pair.update(pred, set)
		r.expectN("UpdateByPK pair", b2i(found), err, want, ok)
	case 13:
		id := s.id()
		found, err := r.w().DeleteByPK("leaf", id)
		r.expectN("DeleteByPK leaf", b2i(found), err, leaf.remove(eq(0, id)), true)
	case 14:
		k := s.pairKey()
		pred := func(row Row) bool { return xdm.Equal(row[0], k[0]) && xdm.Equal(row[1], k[1]) }
		found, err := r.w().DeleteByPK("pair", k...)
		r.expectN("DeleteByPK pair", b2i(found), err, pair.remove(pred), true)
	case 15:
		pred := eq(1, s.nullableInt(3))
		n, err := r.w().Delete("leaf", pred)
		r.expectN("delete leaf", n, err, leaf.remove(pred), true)
	case 16:
		pred := eq(1, xdm.Str([]string{"m0", "m1"}[s.n(2)]))
		n, err := r.w().Delete("log", pred)
		r.expectN("delete log", n, err, log.remove(pred), true)
	case 17: // index a column after load
		ix := [][2]string{{"leaf", "val"}, {"leaf", "tag"}, {"pair", "v"}, {"log", "msg"}}[s.n(4)]
		if err := r.db.CreateIndex(ix[0], ix[1]); err != nil {
			r.t.Fatal(err)
		}
	case 18, 19:
		if r.tx == nil {
			r.begin()
		}
	case 20:
		if r.tx != nil {
			if err := r.tx.Commit(); err != nil {
				r.t.Fatal(err)
			}
			r.tx = nil
		}
	case 21:
		if r.tx != nil {
			r.rollback()
		}
	case 22, 25: // insert 1-2 rows under a string or a float key
		table, key := r.keyedBy(op == 22, s)
		rows := make([]Row, 1+s.n(2))
		for i := range rows {
			rows[i] = Row{key(), xdm.Int(int64(s.n(3)))}
		}
		r.expect("insert "+table.name, r.w().Insert(table.name, rows...), table.insert(rows))
	case 23, 26: // point update: the counter, or the key itself
		table, key := r.keyedBy(op == 23, s)
		k := key()
		set := [](func(Row) Row){col(1, xdm.Int(int64(s.n(3)))), col(0, key())}[s.n(2)]
		found, err := r.w().UpdateByPK(table.name, []xdm.Value{k}, set)
		want, ok := table.update(eq(0, k), set)
		r.expectN("UpdateByPK "+table.name, b2i(found), err, want, ok)
	case 24, 27:
		table, key := r.keyedBy(op == 24, s)
		k := key()
		found, err := r.w().DeleteByPK(table.name, k)
		r.expectN("DeleteByPK "+table.name, b2i(found), err, table.remove(eq(0, k)), true)
	case 28:
		r.churn()
	}
}

// churn rewrites every leaf, one statement a round, until its dead values
// pass the compaction bound: even rounds write a string tag, odd ones a
// number and a NULL tag, so versions move between the pointer-free and the
// scanned slabs of one table.
func (r *modelRun) churn() {
	leaf := r.tables["leaf"]
	live := len(leaf.rows) * len(r.db.tables["leaf"].def.Columns)
	if live == 0 {
		return
	}
	all := func(Row) bool { return true }
	for i := 0; i <= deadBound(live)/live; i++ {
		set := func(row Row) Row { row[3] = xdm.Str([]string{"a", "bb"}[i%4/2]); return row }
		if i%2 == 1 {
			set = func(row Row) Row { row[2], row[3] = xdm.Float(float64(i)), xdm.Null; return row }
		}
		n, err := r.w().Update("leaf", all, set)
		want, ok := leaf.update(all, set)
		r.expectN("churn leaf", n, err, want, ok)
	}
}

// keyedBy picks the string-keyed or the float-keyed table and its key source.
func (r *modelRun) keyedBy(str bool, s *stream) (*mtable, func() xdm.Value) {
	if str {
		return r.tables["name"], s.nameKey
	}
	return r.tables["meas"], s.measKey
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (r *modelRun) begin() {
	r.tx = r.db.Begin()
	r.txModel, r.txSlots, r.txAutoID = map[string]*mtable{}, map[string][]Row{}, map[string]int64{}
	for _, n := range r.names {
		r.txModel[n] = r.tables[n].clone()
		r.txSlots[n] = slotRows(r.db.tables[n])
		r.txAutoID[n] = r.db.tables[n].autoID
	}
}

// rollback undoes the open transaction and checks it left no trace: every
// row is back in the slot it had at Begin, slots the transaction added are
// vacant, and the rowid counter is restored.
func (r *modelRun) rollback() {
	if err := r.tx.Rollback(); err != nil {
		r.t.Fatal(err)
	}
	r.tx = nil
	for _, n := range r.names {
		td, pre := r.db.tables[n], r.txSlots[n]
		peak := r.tables[n].peak
		r.tables[n] = r.txModel[n]
		r.tables[n].peak = peak // the slot array keeps what the transaction grew it to
		for s, row := range slotRows(td) {
			var was Row
			if s < len(pre) {
				was = pre[s]
			}
			if (row == nil) != (was == nil) || !rowsEqual(row, was) {
				r.t.Fatalf("rollback: %s slot %d holds %v, held %v at Begin", n, s, row, was)
			}
		}
		if td.autoID != r.txAutoID[n] {
			r.t.Fatalf("rollback: %s autoID = %d, was %d", n, td.autoID, r.txAutoID[n])
		}
	}
}

// slotRows returns the version in each slot of td, nil for a free one.
func slotRows(td *tableData) []Row {
	out := make([]Row, len(td.rows))
	for s := range out {
		out[s] = td.row(uint32(s))
	}
	return out
}

// verify compares every observable of every table with the model and
// checks the store's structural invariants.
func (r *modelRun) verify() {
	r.t.Helper()
	for _, n := range r.names {
		td := r.db.tables[n]
		r.verifyTable(td, r.tables[n])
		r.verifySlabs(td)
	}
}

// verifySlabs checks the version store: dead values within the compaction
// bound, every live version carved once, in a slab no larger than the cap,
// and in a pointer-free slab exactly when its values hold no pointer.
func (r *modelRun) verifySlabs(td *tableData) {
	t, st, name := r.t, &td.store, td.def.Name
	t.Helper()
	carved := 0
	for i, sl := range st.list {
		if cap(sl.vals) > max(maxSlab, int(st.width)) {
			t.Fatalf("%s: slab %d holds %d values, the cap is %d", name, i, cap(sl.vals), maxSlab)
		}
		carved += len(sl.vals)
	}
	if carved != st.used {
		t.Fatalf("%s: slabs hold %d carved values, the store counts %d", name, carved, st.used)
	}
	if live, dead := td.live(), td.dead(); dead < 0 || dead > deadBound(live) {
		t.Fatalf("%s: %d dead values beside %d live ones, the bound is %d", name, dead, live, deadBound(live))
	}
	seen := map[vref]bool{}
	for s, ref := range td.rows {
		if ref.vacant() {
			continue
		}
		if seen[ref] {
			t.Fatalf("%s: slot %d shares version %v with another slot", name, s, ref)
		}
		seen[ref] = true
		if int(ref.slab) > len(st.list) || int(ref.off+st.width) > len(st.list[ref.slab-1].vals) {
			t.Fatalf("%s: slot %d refers to %v outside the carved values", name, s, ref)
		}
		if scanned := st.list[ref.slab-1].scanned; scanned != (kindOf(td.row(uint32(s))) == 1) {
			t.Fatalf("%s: slot %d's version %v sits in a slab with scanned=%v", name, s, td.row(uint32(s)), scanned)
		}
	}
}

func (r *modelRun) verifyTable(td *tableData, m *mtable) {
	t, db, name := r.t, r.db, m.name
	t.Helper()
	ordered := slices.Clone(m.rows)
	sort.SliceStable(ordered, func(i, j int) bool { return m.less(ordered[i], ordered[j]) })

	if got := db.RowCount(name); got != len(m.rows) {
		t.Fatalf("%s: RowCount = %d, model has %d", name, got, len(m.rows))
	}
	var scanned []Row
	if err := db.Scan(name, func(row Row) bool { scanned = append(scanned, row); return true }); err != nil {
		t.Fatal(err)
	}
	if got, want := multiset(scanned), multiset(rowsOfModel(ordered)); got != want {
		t.Fatalf("%s: Scan\n got  %s\n want %s", name, got, want)
	}
	if len(m.pk) > 0 {
		for _, mr := range ordered {
			key := make([]xdm.Value, len(m.pk))
			for i, c := range m.pk {
				key[i] = mr.row[c]
			}
			got, ok, err := db.GetByPK(name, key...)
			if err != nil || !ok || !rowsEqual(got, mr.row) {
				t.Fatalf("%s: GetByPK(%v) = %v, %v, %v; model has %v", name, key, got, ok, err, mr.row)
			}
		}
		absent := make([]xdm.Value, len(m.pk))
		for i, c := range m.pk {
			absent[i] = xdm.Int(-1)
			if td.def.Columns[c].Type == schema.TString {
				absent[i] = xdm.Str("absent")
			}
		}
		if _, ok, _ := db.GetByPK(name, absent...); ok {
			t.Fatalf("%s: GetByPK finds a key the model never stored", name)
		}
	}
	// Lookup, indexed or not, yields the matching rows in primary-key order.
	for ci, c := range td.def.Columns {
		probes := []xdm.Value{xdm.Null, xdm.Int(-1)}
		seen := map[xdm.CompKey]bool{}
		for _, mr := range ordered {
			if v := mr.row[ci]; !seen[v.CompKey()] {
				seen[v.CompKey()] = true
				probes = append(probes, v)
			}
		}
		for _, v := range probes {
			var want, got []Row
			for _, mr := range ordered {
				if xdm.Equal(mr.row[ci], v) {
					want = append(want, mr.row)
				}
			}
			if err := db.Lookup(name, c.Name, v, func(row Row) bool { got = append(got, row); return true }); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Lookup(%s, %v) (indexed=%v)\n got  %v\n want %v", name, c.Name, v, db.HasIndex(name, c.Name), got, want)
			}
		}
	}

	// Structure: the slot array is exactly as long as the table's peak row
	// count (freed slots are reused before it grows), the free list is the
	// set of vacant slots, the key map covers the live ones, and every
	// posting list is strictly sorted and files each live row once.
	if len(td.rows) != m.peak {
		t.Fatalf("%s: slot array has %d slots, the table never held more than %d rows", name, len(td.rows), m.peak)
	}
	free := map[uint32]bool{}
	for _, s := range td.free {
		if free[s] || td.row(s) != nil {
			t.Fatalf("%s: free list entry %d is duplicated or occupied", name, s)
		}
		free[s] = true
	}
	live, numeric := 0, 0
	for s, row := range slotRows(td) {
		if row == nil {
			if !free[uint32(s)] {
				t.Fatalf("%s: vacant slot %d is not on the free list", name, s)
			}
			continue
		}
		live++
		k := td.keyAt(uint32(s))
		if got, ok := td.pk.get(k); !ok || got != uint32(s) {
			t.Fatalf("%s: key map sends slot %d's key to %d, %v", name, s, got, ok)
		}
		if _, ok := k.NumKey(); ok {
			numeric++
		}
	}
	// With every live key found and the sizes equal, each half holds exactly
	// its own keys: the pointer-free one those NumKey accepts.
	if live != td.pk.len() || numeric != len(td.pk.num) {
		t.Fatalf("%s: %d live slots (%d with a pointer-free key), %d keys (%d in the pointer-free half)",
			name, live, numeric, td.pk.len(), len(td.pk.num))
	}
	for ci, ix := range td.indexes {
		if ix == nil {
			continue
		}
		filed := 0
		for v, l := range ix.m {
			if len(l) == 0 {
				t.Fatalf("%s.%s: empty posting list kept for %v", name, td.def.Columns[ci].Name, v)
			}
			for i, s := range l {
				if row := td.row(s); row == nil || row[ci].CompKey() != v {
					t.Fatalf("%s.%s: slot %d filed under %v holds %v", name, td.def.Columns[ci].Name, s, v, row)
				}
				if i > 0 && td.cmpSlot(l[i-1], td.row(s), td.keyAt(s)) >= 0 {
					t.Fatalf("%s.%s: posting list %v out of primary-key order at %d", name, td.def.Columns[ci].Name, l, i)
				}
			}
			filed += len(l)
		}
		if filed != live {
			t.Fatalf("%s.%s: %d postings for %d rows", name, td.def.Columns[ci].Name, filed, live)
		}
	}
}

func rowsOfModel(ms []mrow) []Row {
	out := make([]Row, len(ms))
	for i, m := range ms {
		out[i] = m.row
	}
	return out
}

// multiset renders rows order-insensitively.
func multiset(rows []Row) string {
	ss := make([]string, len(rows))
	for i, r := range rows {
		ss[i] = fmt.Sprint(r)
	}
	sort.Strings(ss)
	return strings.Join(ss, " ")
}

// replay runs one op stream to its end, verifying after every step, and
// returns each table's rows in slot order and how often the leaf table
// compacted.
func replay(t *testing.T, ops []byte) (map[string][]Row, int) {
	r := newModelRun(t)
	s := &stream{b: ops}
	for len(s.b) > 0 {
		r.step(s)
		r.verify()
	}
	if r.tx != nil {
		r.rollback()
		r.verify()
	}
	out := map[string][]Row{}
	for _, n := range r.names {
		out[n] = r.db.AllRows(n)
	}
	return out, r.db.tables["leaf"].compactions
}

func TestStorageModel(t *testing.T) {
	for seed := *modelSeed; seed < *modelSeed+8; seed++ {
		ops := make([]byte, 1500)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			first, compactions := replay(t, ops)
			// Slot order is a function of the statement history alone.
			if again, _ := replay(t, ops); fmt.Sprint(again) != fmt.Sprint(first) {
				t.Fatalf("slot order differs between two replays of one stream:\n%v\n%v", first, again)
			}
			if compactions == 0 {
				t.Fatal("the leaf table never crossed the compaction bound")
			}
			t.Logf("%d compactions", compactions)
		})
	}
}

// FuzzStorageModel replays streams of at most 256 bytes: a replay checks the
// whole store after every statement, so it costs about the square of its
// length (120 ms at 4 KB, 3 ms at 200 bytes), and minimising one new input
// of kilobytes outlasted a 20 s run. TestStorageModel replays long streams.
func FuzzStorageModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// Three inserts of 3, 1 and 2 leaves, then a churn: the leaf table
	// compacts.
	crossing := []byte{0, 2, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 1, 5, 0, 0, 0, 6, 0, 0, 0, 28}
	f.Add(crossing)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		if _, compactions := replay(t, ops); bytes.Equal(ops, crossing) && compactions == 0 {
			t.Fatal("the crossing stream did not compact the leaf table")
		}
	})
}

// TestSlotReuseUnderChurn deletes and re-inserts a fifth of a loaded table
// many times over: every insert must land in a freed slot.
func TestSlotReuseUnderChurn(t *testing.T) {
	db, err := Open(modelSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := db.Insert("leaf", Row{xdm.Int(int64(i)), xdm.Int(int64(i % 16)), xdm.Float(1), xdm.Null}); err != nil {
			t.Fatal(err)
		}
	}
	next := int64(n)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		victim := xdm.Int(int64(rng.Intn(16)))
		gone, err := db.Delete("leaf", func(r Row) bool { return xdm.Equal(r[1], victim) })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < gone; i++ {
			next++
			if err := db.Insert("leaf", Row{xdm.Int(next), victim, xdm.Float(2), xdm.Null}); err != nil {
				t.Fatal(err)
			}
		}
	}
	td := db.tables["leaf"]
	if len(td.rows) != n || len(td.free) != 0 || db.RowCount("leaf") != n {
		t.Fatalf("after churn: %d slots, %d free, %d rows; want %d, 0, %d", len(td.rows), len(td.free), db.RowCount("leaf"), n, n)
	}
}
