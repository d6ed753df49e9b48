package reldb

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"quark/internal/schema"
	"quark/internal/xdm"
)

func pvDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(schema.ProductVendor())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func loadPaperData(t *testing.T, db *DB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("product",
		Row{xdm.Str("P1"), xdm.Str("CRT 15"), xdm.Str("Samsung")},
		Row{xdm.Str("P2"), xdm.Str("LCD 19"), xdm.Str("Samsung")},
		Row{xdm.Str("P3"), xdm.Str("CRT 15"), xdm.Str("Viewsonic")},
	))
	must(db.Insert("vendor",
		Row{xdm.Str("Amazon"), xdm.Str("P1"), xdm.Float(100)},
		Row{xdm.Str("Bestbuy"), xdm.Str("P1"), xdm.Float(120)},
		Row{xdm.Str("Circuitcity"), xdm.Str("P1"), xdm.Float(150)},
		Row{xdm.Str("Buy.com"), xdm.Str("P2"), xdm.Float(200)},
		Row{xdm.Str("Bestbuy"), xdm.Str("P2"), xdm.Float(180)},
		Row{xdm.Str("Bestbuy"), xdm.Str("P3"), xdm.Float(120)},
		Row{xdm.Str("Circuitcity"), xdm.Str("P3"), xdm.Float(140)},
	))
}

func TestInsertAndCounts(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	if db.RowCount("product") != 3 {
		t.Errorf("product count = %d", db.RowCount("product"))
	}
	if db.RowCount("vendor") != 7 {
		t.Errorf("vendor count = %d", db.RowCount("vendor"))
	}
}

func TestPrimaryKeyEnforcement(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	err := db.Insert("product", Row{xdm.Str("P1"), xdm.Str("dup"), xdm.Str("X")})
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Errorf("expected duplicate PK error, got %v", err)
	}
	// All-or-nothing: a batch with an internal duplicate inserts nothing.
	err = db.Insert("product",
		Row{xdm.Str("P9"), xdm.Str("a"), xdm.Str("m")},
		Row{xdm.Str("P9"), xdm.Str("b"), xdm.Str("m")},
	)
	if err == nil {
		t.Fatal("expected batch duplicate error")
	}
	if _, ok, _ := db.GetByPK("product", xdm.Str("P9")); ok {
		t.Error("partial insert leaked after failed statement")
	}
	// Null PK rejected.
	if err := db.Insert("product", Row{xdm.Null, xdm.Str("x"), xdm.Str("y")}); err == nil {
		t.Error("expected NULL primary key rejection")
	}
}

// TestFloatKeysBeyondInt64: int64() of every float outside [-2^63, 2^63) is
// one and the same value, so keying an integral float as "the int it equals"
// without a range check filed 1e19, 2e19, -3e30 and +Inf under one key.
func TestFloatKeysBeyondInt64(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:       "m",
		Columns:    []schema.Column{{Name: "x", Type: schema.TFloat}, {Name: "tag", Type: schema.TString}},
		PrimaryKey: []string{"x"},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{
		{xdm.Float(1e19), xdm.Str("1e19")},
		{xdm.Float(2e19), xdm.Str("2e19")},
		{xdm.Float(math.Inf(1)), xdm.Str("+Inf")},
	} {
		if err := db.Insert("m", r); err != nil {
			t.Errorf("insert %v: %v", r, err)
		}
	}
	if r, ok, _ := db.GetByPK("m", xdm.Float(-3e30)); ok {
		t.Errorf("GetByPK(-3e30) finds %v", r)
	}
	if r, ok, _ := db.GetByPK("m", xdm.Float(1e19)); !ok || r[1].AsString() != "1e19" {
		t.Errorf("GetByPK(1e19) = %v, %v", r, ok)
	}
}

func TestTypeChecking(t *testing.T) {
	db := pvDB(t)
	err := db.Insert("vendor", Row{xdm.Str("V"), xdm.Str("P1"), xdm.Str("not-a-price")})
	if err == nil {
		t.Error("expected type error for string price")
	}
	// Ints are acceptable in DECIMAL columns.
	if err := db.Insert("product", Row{xdm.Str("P1"), xdm.Str("n"), xdm.Str("m")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("vendor", Row{xdm.Str("V"), xdm.Str("P1"), xdm.Int(10)}); err != nil {
		t.Errorf("int into DECIMAL should work: %v", err)
	}
	if err := db.Insert("vendor", Row{xdm.Str("W"), xdm.Str("P1"), xdm.Float(1), xdm.Int(2)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	db := pvDB(t)
	db.SetEnforceFKs(true)
	if err := db.Insert("vendor", Row{xdm.Str("V"), xdm.Str("PX"), xdm.Float(1)}); err == nil {
		t.Error("expected FK violation for orphan vendor")
	}
	if err := db.Insert("product", Row{xdm.Str("PX"), xdm.Str("n"), xdm.Str("m")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("vendor", Row{xdm.Str("V"), xdm.Str("PX"), xdm.Float(1)}); err != nil {
		t.Errorf("FK satisfied but rejected: %v", err)
	}
	// NULL FK is vacuous (needs an FK column outside the PK).
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:       "parent",
		Columns:    []schema.Column{{Name: "id", Type: schema.TInt}},
		PrimaryKey: []string{"id"},
	})
	s.MustAddTable(&schema.Table{
		Name: "child",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "pid", Type: schema.TInt},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"pid"}, RefTable: "parent", RefColumns: []string{"id"}}},
	})
	db2, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	db2.SetEnforceFKs(true)
	if err := db2.Insert("child", Row{xdm.Int(1), xdm.Null}); err != nil {
		t.Errorf("NULL FK should pass: %v", err)
	}
	if err := db2.Insert("child", Row{xdm.Int(2), xdm.Int(42)}); err == nil {
		t.Error("orphan child accepted")
	}
}

func TestGetUpdateDeleteByPK(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	r, ok, err := db.GetByPK("vendor", xdm.Str("Amazon"), xdm.Str("P1"))
	if err != nil || !ok {
		t.Fatalf("GetByPK: %v %v", ok, err)
	}
	if !xdm.Equal(r[2], xdm.Float(100)) {
		t.Errorf("price = %v", r[2])
	}
	ok, err = db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
		r[2] = xdm.Float(75)
		return r
	})
	if err != nil || !ok {
		t.Fatalf("UpdateByPK: %v %v", ok, err)
	}
	r, _, _ = db.GetByPK("vendor", xdm.Str("Amazon"), xdm.Str("P1"))
	if !xdm.Equal(r[2], xdm.Float(75)) {
		t.Errorf("price after update = %v", r[2])
	}
	ok, err = db.DeleteByPK("vendor", xdm.Str("Amazon"), xdm.Str("P1"))
	if err != nil || !ok {
		t.Fatalf("DeleteByPK: %v %v", ok, err)
	}
	if _, ok, _ := db.GetByPK("vendor", xdm.Str("Amazon"), xdm.Str("P1")); ok {
		t.Error("row survived delete")
	}
	// Missing-row paths.
	if ok, _ := db.DeleteByPK("vendor", xdm.Str("Nobody"), xdm.Str("P1")); ok {
		t.Error("delete of missing row reported true")
	}
	if ok, _ := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Nobody"), xdm.Str("P1")}, func(r Row) Row { return r }); ok {
		t.Error("update of missing row reported true")
	}
}

func TestPredicateUpdateDelete(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	n, err := db.Update("vendor",
		func(r Row) bool { return r[1].AsString() == "P1" },
		func(r Row) Row { r[2], _ = xdm.Arith("*", r[2], xdm.Float(2)); return r })
	if err != nil || n != 3 {
		t.Fatalf("Update n=%d err=%v", n, err)
	}
	n, err = db.Delete("vendor", func(r Row) bool { return r[2].AsFloat() >= 200 })
	if err != nil {
		t.Fatal(err)
	}
	// Doubled P1 prices: 200, 240, 300 plus Buy.com 200 → 4 rows ≥ 200.
	if n != 4 {
		t.Errorf("Delete removed %d, want 4", n)
	}
	if db.RowCount("vendor") != 3 {
		t.Errorf("vendor count = %d, want 3", db.RowCount("vendor"))
	}
}

func TestUpdatePKChange(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	// Moving a vendor row to a new key works.
	ok, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
		r[0] = xdm.Str("AmazonDE")
		return r
	})
	if err != nil || !ok {
		t.Fatalf("%v %v", ok, err)
	}
	if _, ok, _ := db.GetByPK("vendor", xdm.Str("AmazonDE"), xdm.Str("P1")); !ok {
		t.Error("moved row not found at new key")
	}
	// Colliding PK change is rejected.
	_, err = db.UpdateByPK("vendor", []xdm.Value{xdm.Str("AmazonDE"), xdm.Str("P1")}, func(r Row) Row {
		r[0] = xdm.Str("Bestbuy")
		return r
	})
	if err == nil {
		t.Error("expected PK collision error")
	}
}

func TestIndexMaintenance(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	count := func(pid string) int {
		n := 0
		if err := db.Lookup("vendor", "pid", xdm.Str(pid), func(Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if count("P1") != 3 || count("P2") != 2 || count("P3") != 2 {
		t.Fatalf("index counts: P1=%d P2=%d P3=%d", count("P1"), count("P2"), count("P3"))
	}
	// Move one vendor from P1 to P2; index must follow.
	if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
		r[1] = xdm.Str("P2")
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if count("P1") != 2 || count("P2") != 3 {
		t.Errorf("after move: P1=%d P2=%d", count("P1"), count("P2"))
	}
	if _, err := db.DeleteByPK("vendor", xdm.Str("Amazon"), xdm.Str("P2")); err != nil {
		t.Fatal(err)
	}
	if count("P2") != 2 {
		t.Errorf("after delete: P2=%d", count("P2"))
	}
}

func TestLookupUsesIndexStats(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	db.ResetStats()
	_ = db.Lookup("vendor", "pid", xdm.Str("P1"), func(Row) bool { return true })
	st := db.Stats()
	if st.IndexLookups != 1 || st.FullScans != 0 {
		t.Errorf("expected index path, got %+v", st)
	}
	// price is unindexed → scan path.
	_ = db.Lookup("vendor", "price", xdm.Float(120), func(Row) bool { return true })
	st = db.Stats()
	if st.FullScans != 1 {
		t.Errorf("expected scan path for unindexed column, got %+v", st)
	}
	if err := db.CreateIndex("vendor", "price"); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	n := 0
	_ = db.Lookup("vendor", "price", xdm.Float(120), func(Row) bool { n++; return true })
	if n != 2 {
		t.Errorf("price=120 rows = %d, want 2", n)
	}
	if db.Stats().IndexLookups != 1 {
		t.Error("late-built index not used")
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	n := 0
	_ = db.Scan("vendor", func(Row) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestTriggerTransitionTables(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	var got []*FireContext
	err := db.CreateTrigger(&SQLTrigger{
		Name: "t1", Table: "vendor", Event: EvUpdate,
		// A copy: reldb reuses the FireContext and a point update's
		// transition tables once the statement's bodies are done.
		Body: func(ctx *FireContext) error {
			c := *ctx
			c.Inserted, c.Deleted = slices.Clone(ctx.Inserted), slices.Clone(ctx.Deleted)
			got = append(got, &c)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper's example: Amazon's P1 price drops to 75.
	if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
		r[2] = xdm.Float(75)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("trigger fired %d times, want 1", len(got))
	}
	ctx := got[0]
	if ctx.Event != EvUpdate || ctx.Table != "vendor" {
		t.Errorf("ctx = %v %v", ctx.Event, ctx.Table)
	}
	if len(ctx.Deleted) != 1 || len(ctx.Inserted) != 1 {
		t.Fatalf("transition sizes: del=%d ins=%d", len(ctx.Deleted), len(ctx.Inserted))
	}
	if !xdm.Equal(ctx.Deleted[0][2], xdm.Float(100)) || !xdm.Equal(ctx.Inserted[0][2], xdm.Float(75)) {
		t.Errorf("∇=%v Δ=%v", ctx.Deleted[0][2], ctx.Inserted[0][2])
	}
	// Statement-level: one multi-row update fires once.
	got = nil
	if _, err := db.Update("vendor",
		func(r Row) bool { return r[1].AsString() == "P3" },
		func(r Row) Row { r[2] = xdm.Float(99); return r }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Inserted) != 2 {
		t.Fatalf("statement-level UPDATE: fires=%d rows=%d", len(got), len(got[0].Inserted))
	}
	// Insert/delete events don't reach the UPDATE trigger.
	got = nil
	if err := db.Insert("vendor", Row{xdm.Str("New"), xdm.Str("P1"), xdm.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteByPK("vendor", xdm.Str("New"), xdm.Str("P1")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("UPDATE trigger fired for INSERT/DELETE")
	}
}

func TestTriggerEventRouting(t *testing.T) {
	db := pvDB(t)
	fired := map[string]int{}
	for _, ev := range []Event{EvInsert, EvUpdate, EvDelete} {
		ev := ev
		if err := db.CreateTrigger(&SQLTrigger{
			Name: "t_" + ev.String(), Table: "product", Event: ev,
			Body: func(ctx *FireContext) error { fired[ev.String()]++; return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("product", Row{xdm.Str("P1"), xdm.Str("n"), xdm.Str("m")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.UpdateByPK("product", []xdm.Value{xdm.Str("P1")}, func(r Row) Row { r[1] = xdm.Str("n2"); return r }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteByPK("product", xdm.Str("P1")); err != nil {
		t.Fatal(err)
	}
	if fired["INSERT"] != 1 || fired["UPDATE"] != 1 || fired["DELETE"] != 1 {
		t.Errorf("routing = %v", fired)
	}
	// Empty statements do not fire.
	if _, err := db.Delete("product", func(Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if fired["DELETE"] != 1 {
		t.Error("empty DELETE statement fired trigger")
	}
}

func TestTriggerCascadeAndDepthLimit(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:       "a",
		Columns:    []schema.Column{{Name: "id", Type: schema.TInt}},
		PrimaryKey: []string{"id"},
	})
	s.MustAddTable(&schema.Table{
		Name:       "log",
		Columns:    []schema.Column{{Name: "id", Type: schema.TInt}},
		PrimaryKey: []string{"id"},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	// Cascade: insert into a writes into log.
	if err := db.CreateTrigger(&SQLTrigger{
		Name: "cascade", Table: "a", Event: EvInsert,
		Body: func(ctx *FireContext) error {
			return ctx.DB.Insert("log", Row{ctx.Inserted[0][0]})
		},
	}); err != nil {
		t.Fatal(err)
	}
	var depths []int
	if err := db.CreateTrigger(&SQLTrigger{
		Name: "onlog", Table: "log", Event: EvInsert,
		Body: func(ctx *FireContext) error {
			depths = append(depths, ctx.Depth)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("a", Row{xdm.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if len(depths) != 1 || db.RowCount("log") != 1 {
		t.Fatalf("cascade: fires=%d rows=%d", len(depths), db.RowCount("log"))
	}
	if depths[0] != 2 {
		t.Errorf("cascaded depth = %d, want 2", depths[0])
	}
	// Runaway recursion is stopped at the depth limit.
	next := int64(100)
	if err := db.CreateTrigger(&SQLTrigger{
		Name: "recursive", Table: "log", Event: EvInsert,
		Body: func(ctx *FireContext) error {
			next++
			return ctx.DB.Insert("log", Row{xdm.Int(next)})
		},
	}); err != nil {
		t.Fatal(err)
	}
	err = db.Insert("a", Row{xdm.Int(2)})
	if err == nil || !strings.Contains(err.Error(), "cascade exceeds depth") {
		t.Errorf("expected depth-limit error, got %v", err)
	}
}

func TestTriggerLifecycle(t *testing.T) {
	db := pvDB(t)
	tr := &SQLTrigger{Name: "x", Table: "product", Event: EvInsert, Body: func(*FireContext) error { return nil }}
	if err := db.CreateTrigger(tr); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTrigger(tr); err == nil {
		t.Error("duplicate trigger name accepted")
	}
	if db.TriggerCount() != 1 {
		t.Error("TriggerCount")
	}
	if err := db.DropTrigger("x"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTrigger("x"); err == nil {
		t.Error("double drop accepted")
	}
	if err := db.CreateTrigger(&SQLTrigger{Name: "y", Table: "nope", Event: EvInsert, Body: func(*FireContext) error { return nil }}); err == nil {
		t.Error("trigger on unknown table accepted")
	}
	if err := db.CreateTrigger(&SQLTrigger{Name: "z", Table: "product", Event: EvInsert}); err == nil {
		t.Error("trigger without body accepted")
	}
	if err := db.CreateTrigger(&SQLTrigger{Table: "product", Event: EvInsert, Body: func(*FireContext) error { return nil }}); err == nil {
		t.Error("unnamed trigger accepted")
	}
}

func TestUnknownTableErrors(t *testing.T) {
	db := pvDB(t)
	if err := db.Insert("nope", Row{}); err == nil {
		t.Error("Insert unknown table")
	}
	if _, err := db.Delete("nope", func(Row) bool { return true }); err == nil {
		t.Error("Delete unknown table")
	}
	if _, err := db.Update("nope", func(Row) bool { return true }, func(r Row) Row { return r }); err == nil {
		t.Error("Update unknown table")
	}
	if err := db.Scan("nope", func(Row) bool { return true }); err == nil {
		t.Error("Scan unknown table")
	}
	if err := db.CreateIndex("nope", "x"); err == nil {
		t.Error("CreateIndex unknown table")
	}
	if err := db.CreateIndex("product", "nope"); err == nil {
		t.Error("CreateIndex unknown column")
	}
}

// TestIndexConsistencyQuick drives a random sequence of inserts, updates,
// and deletes, then verifies that index lookups agree with full scans for
// every key — the core index-maintenance invariant.
func TestIndexConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, err := Open(schema.ProductVendor())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			_ = db.Insert("product", Row{xdm.Str(string(rune('A' + i))), xdm.Str("n"), xdm.Str("m")})
		}
		nextVID := 0
		for op := 0; op < 200; op++ {
			switch r.Intn(3) {
			case 0:
				nextVID++
				pid := string(rune('A' + r.Intn(10)))
				_ = db.Insert("vendor", Row{xdm.Int(int64(nextVID)), xdm.Str(pid), xdm.Float(float64(r.Intn(100)))})
			case 1:
				pid := string(rune('A' + r.Intn(10)))
				_, _ = db.Update("vendor",
					func(row Row) bool { return row[1].AsString() == pid },
					func(row Row) Row {
						row[1] = xdm.Str(string(rune('A' + r.Intn(10))))
						return row
					})
			case 2:
				v := int64(r.Intn(nextVID + 1))
				_, _ = db.Delete("vendor", func(row Row) bool { return row[0].AsInt() == v })
			}
		}
		// Invariant: for every pid, index lookup set == scan-filter set.
		for i := 0; i < 10; i++ {
			pid := xdm.Str(string(rune('A' + i)))
			var viaIndex, viaScan int
			_ = db.Lookup("vendor", "pid", pid, func(Row) bool { viaIndex++; return true })
			_ = db.Scan("vendor", func(row Row) bool {
				if xdm.Equal(row[1], pid) {
					viaScan++
				}
				return true
			})
			if viaIndex != viaScan {
				t.Logf("seed %d pid %s: index=%d scan=%d", seed, pid, viaIndex, viaScan)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSchemaValidation(t *testing.T) {
	s := schema.New()
	if err := s.AddTable(&schema.Table{Name: ""}); err == nil {
		t.Error("empty table name accepted")
	}
	if err := s.AddTable(&schema.Table{Name: "t", Columns: []schema.Column{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := s.AddTable(&schema.Table{Name: "t", Columns: []schema.Column{{Name: "a"}}, PrimaryKey: []string{"b"}}); err == nil {
		t.Error("bad PK accepted")
	}
	if err := s.AddTable(&schema.Table{Name: "t", Columns: []schema.Column{{Name: "a"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(&schema.Table{Name: "t", Columns: []schema.Column{{Name: "a"}}}); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := s.AddTable(&schema.Table{
		Name: "u", Columns: []schema.Column{{Name: "a"}},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"a"}, RefTable: "zzz", RefColumns: []string{"x"}}},
	}); err == nil {
		t.Error("FK to unknown table accepted")
	}
	ddl := schema.ProductVendor().String()
	for _, want := range []string{"CREATE TABLE product", "PRIMARY KEY (vid, pid)", "FOREIGN KEY (pid) REFERENCES product"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}

// Posting lists are ordered by xdm.Compare, which promotes an int beside a
// float: two ints above 2^53 that round to one float both tie with it while
// differing from each other, so the three need not sit in one sorted run.
// Unfiling must still find its slot.
func TestPostingListSurvivesCompareTies(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:       "t",
		Columns:    []schema.Column{{Name: "k", Type: schema.TFloat}, {Name: "g", Type: schema.TInt}},
		PrimaryKey: []string{"k"},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "g"); err != nil {
		t.Fatal(err)
	}
	const big = int64(1) << 54 // floats here are 4 apart: big+1 and big+2 both round to big
	a, b, c := xdm.Int(big+1), xdm.Int(big+2), xdm.Float(float64(big))
	for _, k := range []xdm.Value{b, c, a} {
		if err := db.Insert("t", Row{k, xdm.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if found, err := db.DeleteByPK("t", a); err != nil || !found {
		t.Fatal(found, err)
	}
	var got []xdm.Value
	if err := db.Lookup("t", "g", xdm.Int(1), func(r Row) bool { got = append(got, r[0]); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !xdm.Equal(got[0], b) || !xdm.Equal(got[1], c) {
		t.Fatalf("after deleting %v the index holds %v, want [%v %v]", a, got, b, c)
	}
}
