package reldb

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"quark/internal/schema"
	"quark/internal/xdm"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates, so heap and allocation figures mean nothing under -race.
var raceEnabled bool

// leafDB opens the benchmark workload's leaf schema (workload.BuildSchema at
// depth 2: int primary key, indexed int foreign key, float payload) and
// loads n leaves, 64 to a parent.
func leafDB(t *testing.T, n int) *DB {
	t.Helper()
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:       "product",
		Columns:    []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "name", Type: schema.TString}},
		PrimaryKey: []string{"id"},
	})
	s.MustAddTable(&schema.Table{
		Name: "vendor",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "parent", Type: schema.TInt}, {Name: "payload", Type: schema.TFloat},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"parent"}, RefTable: "product", RefColumns: []string{"id"}}},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("vendor", Row{xdm.Int(int64(i)), xdm.Int(int64(i / 64)), xdm.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// storageBytesPerRow caps what one stored leaf may cost in live heap, about
// 12 % above the measured 122: the three-cell version is 72 bytes carved
// from a slab (slabs double up to their cap, and this load fills them to
// within one version), its slot's vref 8, the key map's entry (a 16-byte
// NumKey and the slot number, 25 bytes of bucket at a load that swings
// between 7/16 and 7/8) about 35, and the 4-byte posting in the parent
// index's list, grown by append, about 8. As an 80-byte heap object per
// version behind a 24-byte slot the same row cost 147; with 48-byte cells
// and a 40-byte CompKey in the map 239; the string-keyed row map and
// nested-map indexes that layout replaced needed 586.
const storageBytesPerRow = 137

func TestStorageBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const n = 100_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	db := leafDB(t, n)
	perRow := float64(heap()-before) / n
	runtime.KeepAlive(db)
	t.Logf("live heap per stored row: %.0f B (budget %d)", perRow, storageBytesPerRow)
	if perRow > storageBytesPerRow {
		t.Errorf("a stored row costs %.0f B of live heap, budget is %d", perRow, storageBytesPerRow)
	}
}

// scanBytesPerRow caps how much a stored leaf adds to the heap the collector
// must scan. Its version sits in a pointer-free slab, its slot, key-map entry
// and posting in pointer-free memory; what is left is the parent index's
// map, whose CompKey keys can hold strings: about 1.5 B per row at 64 rows a
// parent. As a heap object per version behind a slot of Row headers a leaf
// cost about 100.
const scanBytesPerRow = 8

func TestStoredRowsLeaveTheScannedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const n = 100_000
	scan := func() float64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	before := scan()
	db := leafDB(t, n)
	perRow := (scan() - before) / n
	runtime.KeepAlive(db)
	t.Logf("scannable heap per stored row: %.1f B (budget %d)", perRow, scanBytesPerRow)
	if perRow > scanBytesPerRow {
		t.Errorf("a stored row adds %.1f B to the scanned heap, budget is %d", perRow, scanBytesPerRow)
	}
}

// TestUpdateByPKAllocs pins what a non-key point update allocates: nothing.
// The one-row transition tables handed to fire are the table's firing frame,
// set edits a scratch copy and the new version is carved from a slab, whose
// allocation a slab's worth of updates share; no key string is formatted and
// no index is touched.
func TestUpdateByPKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := leafDB(t, 4096)
	key := []xdm.Value{xdm.Int(777)}
	payload := 0.0
	set := func(r Row) Row { payload++; r[2] = xdm.Float(payload); return r }
	allocs := testing.AllocsPerRun(200, func() {
		if found, err := db.UpdateByPK("vendor", key, set); err != nil || !found {
			t.Fatal(found, err)
		}
	})
	if allocs > 0.1 { // a slab fills every few hundred updates
		t.Errorf("a non-key UpdateByPK allocates %.2f objects, want none", allocs)
	}
}

// TestTableScratchIsCapped: a 10,000-row commit grows the table scratch its
// net change is sorted in (keyBuf, keyed), but the table keeps at most
// maxScratchBytes of each, and neither it nor a firing frame holds a row
// once the commit is done.
func TestTableScratchIsCapped(t *testing.T) {
	db := leafDB(t, 10_000)
	fired := 0
	if err := db.CreateTrigger(&SQLTrigger{Name: "u", Table: "vendor", Event: EvUpdate, Body: func(ctx *FireContext) error {
		fired += len(ctx.Inserted)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{10_000, 100} {
		tx := db.Begin()
		for i := int64(0); i < n; i++ {
			if _, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Int(i)}, func(r Row) Row { r[2] = xdm.Float(-r[2].AsFloat() - 1); return r }); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		td := db.tables["vendor"]
		if b := cap(td.keyBuf); b > maxScratchBytes {
			t.Errorf("after a %d-row commit the table keeps %d bytes of sort keys, cap %d", n, b, maxScratchBytes)
		}
		if b := cap(td.keyed) * int(reflect.TypeFor[keyedRow]().Size()); b > maxScratchBytes {
			t.Errorf("after a %d-row commit the table keeps %d bytes of keyed rows, cap %d", n, b, maxScratchBytes)
		}
		for _, kr := range td.keyed[:cap(td.keyed)] {
			if kr.row != nil {
				t.Fatalf("after a %d-row commit the table's keyed scratch still holds a row", n)
			}
		}
		for d, fr := range td.frames {
			if fr.ctx.Inserted != nil || fr.ins[0] != nil || fr.del[0] != nil || fr.ctx.Batch != nil {
				t.Errorf("after a %d-row commit the firing frame of depth %d still holds the commit", n, d+1)
			}
		}
		if n == 100 && cap(td.keyBuf) == 0 {
			t.Error("a 100-row commit's sort keys were not kept for the next")
		}
	}
	if fired != 10_100 {
		t.Fatalf("the commits reported %d updated rows, want 10,100", fired)
	}
}
