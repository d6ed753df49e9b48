package reldb

import (
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

// TestUpdateByPKAllocs pins what a non-key point update allocates: the two
// one-row transition tables handed to fire. set edits a scratch copy and
// the new version is carved from a slab, whose allocation a slab's worth of
// updates share; no key string is formatted and no index is touched.
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
	if allocs > 2 {
		t.Errorf("a non-key UpdateByPK allocates %.0f objects, want at most 2 (the Δ/∇ tables)", allocs)
	}
}
