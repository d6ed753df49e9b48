package reldb

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"quark/internal/xdm"
)

// junk keeps the garbage churnHeap allocates reachable until the next call.
var junk [][]byte

// churnHeap runs two collections and then allocates small byte slices of
// every size up to 64, filled with '#', so that memory a collection freed
// is handed out again and overwritten: a value whose bytes the collector
// did not see reads back changed.
func churnHeap() {
	runtime.GC()
	runtime.GC()
	junk = junk[:0]
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+i%64)
		for j := range b {
			b[j] = '#'
		}
		junk = append(junk, b)
	}
}

// freshString returns a string whose bytes were just allocated and are
// referenced by nothing else.
func freshString(parts ...string) string {
	return string([]byte(strings.Join(parts, "-")))
}

// leafRows opens the model schema and stores n leaves whose values hold no
// pointer (a NULL tag), so their versions are carved from pointer-free slabs.
func leafRows(t *testing.T, n int) *DB {
	t.Helper()
	db, err := Open(modelSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("leaf", Row{xdm.Int(int64(i)), xdm.Int(int64(i % 7)), xdm.Float(float64(i)), xdm.Null}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// scannedAt reports whether the version in the slot under key id sits in
// an ordinary slab.
func scannedAt(t *testing.T, td *tableData, id int64) bool {
	t.Helper()
	s, ok := td.pk.get(xdm.Int(id).CompKey())
	if !ok {
		t.Fatalf("no row %d", id)
	}
	return td.store.list[td.rows[s].slab-1].scanned
}

func setTag(tag string) func(Row) Row {
	return func(r Row) Row { r[3] = xdm.Str(tag); return r }
}

// TestStringUpdateOfAnUnscannedRow writes a freshly built string into a row
// whose version was stored in a pointer-free slab: the new version must go
// to a scanned slab, or the collector frees the string under it.
func TestStringUpdateOfAnUnscannedRow(t *testing.T) {
	db := leafRows(t, 200)
	td := db.tables["leaf"]
	if scannedAt(t, td, 7) {
		t.Fatal("a version with no pointer was carved from a scanned slab")
	}
	want := strings.Repeat("fresh-", 3) + "7"
	if found, err := db.UpdateByPK("leaf", []xdm.Value{xdm.Int(7)}, setTag(freshString("fresh", "fresh", "fresh", "7"))); err != nil || !found {
		t.Fatal(found, err)
	}
	// Another update overwrites the table's scratch row, so that nothing but
	// the stored version holds the string.
	if found, err := db.UpdateByPK("leaf", []xdm.Value{xdm.Int(8)}, func(r Row) Row { r[2] = xdm.Float(-8); return r }); err != nil || !found {
		t.Fatal(found, err)
	}
	if !scannedAt(t, td, 7) {
		t.Fatal("a version holding a string was carved from a pointer-free slab")
	}
	churnHeap()
	row, ok, err := db.GetByPK("leaf", xdm.Int(7))
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if got := row[3].AsString(); got != want {
		t.Fatalf("the stored string reads %q after two collections, want %q", got, want)
	}
}

// TestHeldRowSurvivesCompaction holds Rows from Lookup across forced
// compactions and later updates of the same rows: what a reader holds never
// changes, and the slabs the store dropped stay alive while it holds them.
func TestHeldRowSurvivesCompaction(t *testing.T) {
	db := leafRows(t, 300)
	td := db.tables["leaf"]
	if found, err := db.UpdateByPK("leaf", []xdm.Value{xdm.Int(5)}, setTag(freshString("held", "string"))); err != nil || !found {
		t.Fatal(found, err)
	}
	var held []Row
	if err := db.Lookup("leaf", "parent", xdm.Int(5), func(r Row) bool { held = append(held, r); return true }); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(held)
	if !strings.Contains(want, "held-string") {
		t.Fatalf("the held rows %s lack the string version", want)
	}
	// Appending to a stored version copies it: its slab is never written.
	for _, r := range held {
		if grown := append(r, xdm.Str(freshString("appended"))); &grown[0] == &r[0] {
			t.Fatal("appending to a stored version wrote into its slab")
		}
	}
	for round := 0; round < 4; round++ {
		td.compact()
		for _, r := range held {
			key := []xdm.Value{r[0]}
			set := setTag(freshString("round", fmt.Sprint(round)))
			if round%2 == 1 {
				set = func(r Row) Row { r[2], r[3] = xdm.Float(-1), xdm.Null; return r }
			}
			if found, err := db.UpdateByPK("leaf", key, set); err != nil || !found {
				t.Fatal(found, err)
			}
		}
		churnHeap()
		if got := fmt.Sprint(held); got != want {
			t.Fatalf("round %d: held rows changed\n got  %s\n want %s", round, got, want)
		}
	}
}

// TestRollbackAcrossCompaction rolls back a transaction during which the
// table compacted: every slot gets back the row it held at Begin.
func TestRollbackAcrossCompaction(t *testing.T) {
	db := leafRows(t, 100)
	td := db.tables["leaf"]
	if found, err := db.UpdateByPK("leaf", []xdm.Value{xdm.Int(3)}, setTag(freshString("before", "tx"))); err != nil || !found {
		t.Fatal(found, err)
	}
	begin := slotRows(td)
	want := fmt.Sprint(begin)
	free := fmt.Sprint(td.free)

	tx := db.Begin()
	if _, err := tx.Delete("leaf", func(r Row) bool { return r[1].AsInt() == 2 }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("leaf", Row{xdm.Int(1000), xdm.Int(1), xdm.Float(1), xdm.Str(freshString("new"))}); err != nil {
		t.Fatal(err)
	}
	// Rewrite every row until the store compacts, strings and numbers
	// alternating.
	for round := 0; td.compactions == 0; round++ {
		if round > 100 {
			t.Fatal("the table never compacted")
		}
		set := setTag(freshString("in", "tx", fmt.Sprint(round)))
		if round%2 == 1 {
			set = func(r Row) Row { r[2], r[3] = xdm.Float(float64(-round)), xdm.Null; return r }
		}
		if _, err := tx.Update("leaf", func(Row) bool { return true }, set); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.UpdateByPK("leaf", []xdm.Value{xdm.Int(3)}, setTag(freshString("after", "compaction"))); err != nil {
		t.Fatal(err)
	}
	churnHeap()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	churnHeap()
	if got := fmt.Sprint(slotRows(td)); got != want {
		t.Fatalf("after rollback the slots hold\n %s\nat Begin they held\n %s", got, want)
	}
	if got := fmt.Sprint(td.free); got != free {
		t.Fatalf("after rollback the free list is %s, at Begin %s", got, free)
	}
}

// TestDeadValuesStayBounded runs point updates, batched commits with inserts
// and deletes, and a rolled-back transaction over a loaded table, and checks
// after every statement that the dead values stay within the compaction
// bound and that slabs stay within their cap.
func TestDeadValuesStayBounded(t *testing.T) {
	const n = 5000
	db := leafRows(t, n)
	td := db.tables["leaf"]
	check := func(what string) {
		t.Helper()
		if live, dead := td.live(), td.dead(); dead > deadBound(live) {
			t.Fatalf("%s: %d dead values beside %d live, bound %d", what, dead, live, deadBound(live))
		}
		for _, sl := range td.store.list {
			if cap(sl.vals) > maxSlab {
				t.Fatalf("%s: a slab of %d values, cap %d", what, cap(sl.vals), maxSlab)
			}
		}
	}
	check("load")
	next := int64(n)
	for i := 0; i < 20000; i++ {
		id := xdm.Int(int64(i * 7919 % n))
		set := func(r Row) Row { r[2] = xdm.Float(float64(i)); return r }
		if i%3 == 0 {
			set = setTag(fmt.Sprint("t", i%5))
		}
		if _, err := db.UpdateByPK("leaf", []xdm.Value{id}, set); err != nil {
			t.Fatal(err)
		}
		check("point update")
		if i%50 == 0 {
			tx := db.Begin()
			next++
			if err := tx.Insert("leaf", Row{xdm.Int(next), xdm.Int(1), xdm.Float(0), xdm.Null}); err != nil {
				t.Fatal(err)
			}
			check("insert")
			if _, err := tx.DeleteByPK("leaf", xdm.Int(next-40)); err != nil {
				t.Fatal(err)
			}
			check("delete")
			if _, err := tx.UpdateByPK("leaf", []xdm.Value{id}, set); err != nil {
				t.Fatal(err)
			}
			end := tx.Commit
			if i%200 == 0 {
				end = tx.Rollback
			}
			if err := end(); err != nil {
				t.Fatal(err)
			}
			check("end of transaction")
		}
	}
	if td.compactions == 0 {
		t.Fatal("20,000 updates never compacted the table")
	}
	t.Logf("%d compactions, %d slabs", td.compactions, len(td.store.list))
}
