package reldb

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"quark/internal/schema"
	"quark/internal/xdm"
)

// countingTrigger installs one counter trigger per event on the table and
// returns the counters indexed by event.
func countingTriggers(t *testing.T, db *DB, table string) map[Event]*int {
	t.Helper()
	counts := map[Event]*int{}
	for _, ev := range []Event{EvInsert, EvUpdate, EvDelete} {
		ev := ev
		n := new(int)
		counts[ev] = n
		err := db.CreateTrigger(&SQLTrigger{
			Name:  fmt.Sprintf("count_%s_%s", table, ev),
			Table: table,
			Event: ev,
			Body:  func(*FireContext) error { *n++; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return counts
}

// TestZeroRowStatementsFireNothing: statements whose transition tables
// would be empty fire no triggers — Insert included, which used to fire
// every INSERT trigger with an empty Δ on `Insert("t")`.
func TestZeroRowStatementsFireNothing(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	counts := countingTriggers(t, db, "vendor")

	none := func(Row) bool { return false }
	if err := db.Insert("vendor"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("vendor", none, func(r Row) Row { return r }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("vendor", none); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Nobody"), xdm.Str("P9")}, func(r Row) Row { return r }); err != nil || ok {
		t.Fatalf("UpdateByPK on missing row: ok=%v err=%v", ok, err)
	}
	if ok, err := db.DeleteByPK("vendor", xdm.Str("Nobody"), xdm.Str("P9")); err != nil || ok {
		t.Fatalf("DeleteByPK on missing row: ok=%v err=%v", ok, err)
	}
	for ev, n := range counts {
		if *n != 0 {
			t.Errorf("%s trigger fired %d times on zero-row statements, want 0", ev, *n)
		}
	}
}

// TestZeroRowTxFiresNothing: a transaction whose net effect is empty —
// zero-row statements, or changes that cancel out — commits without
// firing.
func TestZeroRowTxFiresNothing(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	counts := countingTriggers(t, db, "vendor")

	tx := db.Begin()
	if err := tx.Insert("vendor"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update("vendor", func(Row) bool { return false }, func(r Row) Row { return r }); err != nil {
		t.Fatal(err)
	}
	// Insert then delete the same row: net nothing.
	if err := tx.Insert("vendor", Row{xdm.Str("Temp"), xdm.Str("P1"), xdm.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if ok, err := tx.DeleteByPK("vendor", xdm.Str("Temp"), xdm.Str("P1")); err != nil || !ok {
		t.Fatalf("delete of in-tx insert: ok=%v err=%v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for ev, n := range counts {
		if *n != 0 {
			t.Errorf("%s trigger fired %d times on a net-empty transaction, want 0", ev, *n)
		}
	}
}

// TestBodiesShareTheStatementsFireContext: every body that fires for one
// statement receives the same FireContext — what one leaves in EngineState
// the next finds — and a statement a body executes gets a FireContext of its
// own, shared by its bodies in turn.
func TestBodiesShareTheStatementsFireContext(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	got := map[string]*FireContext{}
	state := map[string]any{}        // EngineState as each body found it
	seen := map[string]FireContext{} // the fields as each body found them: reldb reuses a FireContext once its bodies are done
	body := func(name string, then func(*FireContext) error) func(*FireContext) error {
		return func(ctx *FireContext) error {
			got[name], state[name], seen[name] = ctx, ctx.EngineState, *ctx
			ctx.EngineState = name
			if then != nil {
				return then(ctx)
			}
			return nil
		}
	}
	nested := func(*FireContext) error {
		return db.Insert("product", Row{xdm.Str("P9"), xdm.Str("Tablet"), xdm.Str("Acme")})
	}
	for _, tr := range []*SQLTrigger{
		{Name: "A", Table: "vendor", Event: EvUpdate, Body: body("A", nested)},
		{Name: "N1", Table: "product", Event: EvInsert, Body: body("N1", nil)},
		{Name: "B", Table: "vendor", Event: EvUpdate, Body: body("B", nil)},
		{Name: "N2", Table: "product", Event: EvInsert, Body: body("N2", nil)},
	} {
		if err := db.CreateTrigger(tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
		r[2] = xdm.Float(75)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("bodies run: %v, want A, B, N1, N2", got)
	}
	if got["A"] != got["B"] || got["N1"] != got["N2"] {
		t.Errorf("bodies of one statement got different FireContexts: A %p B %p, N1 %p N2 %p", got["A"], got["B"], got["N1"], got["N2"])
	}
	if got["A"] == got["N1"] || seen["N1"].Depth != 2 || seen["N1"].Table != "product" {
		t.Errorf("the nested statement's FireContext: %p (outer %p), depth %d, table %s", got["N1"], got["A"], seen["N1"].Depth, seen["N1"].Table)
	}
	want := map[string]any{"A": nil, "N1": nil, "N2": "N1", "B": "A"}
	for name, w := range want {
		if state[name] != w {
			t.Errorf("%s found EngineState %v, want %v", name, state[name], w)
		}
	}
}

// TestNestedPointUpdateHasItsOwnFrame: a point update a body executes on its
// own table fires one cascade depth down, in a firing frame of its own, so
// the outer statement's FireContext and one-row transition tables are as
// they were when the nested statement returns, and cleared once the outer
// statement's bodies are done.
func TestNestedPointUpdateHasItsOwnFrame(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	var outer *FireContext
	var nestedSeen FireContext
	price := func(p float64) func(Row) Row { return func(r Row) Row { r[2] = xdm.Float(p); return r } }
	if err := db.CreateTrigger(&SQLTrigger{Name: "nest", Table: "vendor", Event: EvUpdate, Body: func(ctx *FireContext) error {
		if ctx.Depth > 1 {
			nestedSeen = *ctx
			nestedSeen.Inserted = slices.Clone(ctx.Inserted) // the frame's, cleared on return
			return nil
		}
		outer = ctx
		before := *ctx
		if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Bestbuy"), xdm.Str("P1")}, price(121)); err != nil {
			return err
		}
		if ctx.Depth != 1 || ctx.Table != "vendor" || len(ctx.Inserted) != 1 || &ctx.Inserted[0] != &before.Inserted[0] ||
			!xdm.Equal(ctx.Inserted[0][2], xdm.Float(75)) || !xdm.Equal(ctx.Deleted[0][2], xdm.Float(100)) {
			t.Errorf("after the nested statement the outer FireContext reads depth %d, Δ %v, ∇ %v", ctx.Depth, ctx.Inserted, ctx.Deleted)
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, price(75)); err != nil {
		t.Fatal(err)
	}
	if nestedSeen.Depth != 2 || len(nestedSeen.Inserted) != 1 || !xdm.Equal(nestedSeen.Inserted[0][2], xdm.Float(121)) {
		t.Errorf("the nested statement's FireContext read depth %d, Δ %v", nestedSeen.Depth, nestedSeen.Inserted)
	}
	if outer == nil || outer.Inserted != nil || outer.Batch != nil {
		t.Errorf("the outer FireContext is not cleared after its statement: %+v", outer)
	}
}

// TestTriggerBodyMutatingTriggers: a body that drops a later trigger and
// creates a new one must not make the firing wave skip or double-fire
// neighbors — the wave runs the statement-time snapshot exactly once
// each, and the new trigger joins from the next statement on.
func TestTriggerBodyMutatingTriggers(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	var fired []string
	record := func(name string) func(*FireContext) error {
		return func(*FireContext) error {
			fired = append(fired, name)
			return nil
		}
	}
	addLate := func(name string) error {
		return db.CreateTrigger(&SQLTrigger{Name: name, Table: "vendor", Event: EvUpdate, Body: record(name)})
	}
	mutator := func(*FireContext) error {
		fired = append(fired, "A")
		if err := db.DropTrigger("C"); err != nil {
			return err
		}
		return addLate("D")
	}
	if err := db.CreateTrigger(&SQLTrigger{Name: "A", Table: "vendor", Event: EvUpdate, Body: mutator}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"B", "C"} {
		if err := addLate(n); err != nil {
			t.Fatal(err)
		}
	}

	bump := func() {
		t.Helper()
		if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
			r[2] = xdm.Float(r[2].AsFloat() + 1)
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}
	bump()
	if got := strings.Join(fired, ","); got != "A,B,C" {
		t.Fatalf("first wave fired %q, want \"A,B,C\" (snapshot: C still fires, D not yet)", got)
	}
	// Drop the mutator (its body would fail dropping the now-gone C) and
	// check the steady state: C stays gone, D fires from this wave on.
	fired = nil
	if err := db.DropTrigger("A"); err != nil {
		t.Fatal(err)
	}
	bump()
	if got := strings.Join(fired, ","); got != "B,D" {
		t.Fatalf("second wave fired %q, want \"B,D\"", got)
	}
}

// TestTriggerBodyCreatesTriggerNoSkip: creating a trigger mid-wave (which
// grows the registered set) must not re-fire or skip the remaining
// statement-time triggers, however many appends happen.
func TestTriggerBodyCreatesTriggerNoSkip(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	var fired []string
	seq := 0
	spawner := func(*FireContext) error {
		fired = append(fired, "S")
		seq++
		name := fmt.Sprintf("spawn%d", seq)
		return db.CreateTrigger(&SQLTrigger{
			Name: name, Table: "vendor", Event: EvDelete,
			Body: func(*FireContext) error { fired = append(fired, name); return nil },
		})
	}
	if err := db.CreateTrigger(&SQLTrigger{Name: "S", Table: "vendor", Event: EvDelete, Body: spawner}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"T1", "T2"} {
		n := n
		if err := db.CreateTrigger(&SQLTrigger{Name: n, Table: "vendor", Event: EvDelete,
			Body: func(*FireContext) error { fired = append(fired, n); return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Delete("vendor", func(r Row) bool { return r[0].AsString() == "Buy.com" }); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fired, ","); got != "S,T1,T2" {
		t.Fatalf("wave fired %q, want \"S,T1,T2\"", got)
	}
	fired = nil
	if _, err := db.Delete("vendor", func(r Row) bool { return r[0].AsString() == "Bestbuy" && r[1].AsString() == "P3" }); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fired, ","); got != "S,T1,T2,spawn1" {
		t.Fatalf("second wave fired %q, want \"S,T1,T2,spawn1\"", got)
	}
}

// transitionKeys renders a transition table's rows compactly.
func transitionKeys(rows []Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = r[0].AsString() + "/" + r[1].AsString()
	}
	return strings.Join(parts, ",")
}

// TestTransitionOrderDeterministic: multi-row UPDATE and DELETE must
// present Δ/∇ in a stable (storage-key-sorted) order on every run, not in
// Go map iteration order.
func TestTransitionOrderDeterministic(t *testing.T) {
	const rounds = 25
	var updOrder, delOrder string
	for round := 0; round < rounds; round++ {
		db := pvDB(t)
		loadPaperData(t, db)
		var gotUpd, gotDel string
		err := db.CreateTrigger(&SQLTrigger{Name: "u", Table: "vendor", Event: EvUpdate,
			Body: func(ctx *FireContext) error {
				gotUpd = transitionKeys(ctx.Inserted) + "|" + transitionKeys(ctx.Deleted)
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		err = db.CreateTrigger(&SQLTrigger{Name: "d", Table: "vendor", Event: EvDelete,
			Body: func(ctx *FireContext) error {
				gotDel = transitionKeys(ctx.Deleted)
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Update("vendor", func(Row) bool { return true }, func(r Row) Row {
			r[2] = xdm.Float(r[2].AsFloat() + 5)
			return r
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Delete("vendor", func(Row) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			updOrder, delOrder = gotUpd, gotDel
			if updOrder == "" || delOrder == "" {
				t.Fatal("triggers did not fire")
			}
			continue
		}
		if gotUpd != updOrder {
			t.Fatalf("round %d: UPDATE transition order %q != round 0 %q", round, gotUpd, updOrder)
		}
		if gotDel != delOrder {
			t.Fatalf("round %d: DELETE transition order %q != round 0 %q", round, gotDel, delOrder)
		}
	}
	// The stable order is also the UPDATE pairs' alignment contract:
	// Deleted[i] must be the old version of Inserted[i].
	parts := strings.SplitN(updOrder, "|", 2)
	if parts[0] != parts[1] {
		t.Fatalf("UPDATE pairs misaligned: Δ %q vs ∇ %q", parts[0], parts[1])
	}
}

// TestReportOrderIsTupleKeyOrder pins what ordering the transition tables by
// their keys' xdm.TupleKey strings guaranteed, now that the keys are bytes
// in one buffer: the rows an UPDATE or DELETE statement matched and a commit's
// net change come in ascending TupleKey order of the primary key.
// That order is not numeric — a key's length prefix leads, so 9 sorts before
// -1 and 10, and 100 after both — and it must hold for int, string and float
// keys, composite ones, single statements and a commit's net change.
func TestReportOrderIsTupleKeyOrder(t *testing.T) {
	ints := []xdm.Value{xdm.Int(100), xdm.Int(-1), xdm.Int(10), xdm.Int(9), xdm.Int(0), xdm.Int(-10), xdm.Int(1234567890123)}
	strs := []xdm.Value{xdm.Str("b"), xdm.Str("a"), xdm.Str("ab"), xdm.Str(""), xdm.Str("aaaaaaaaaa"), xdm.Str("Z")}
	floats := []xdm.Value{xdm.Float(2.5), xdm.Float(-0.5), xdm.Float(10), xdm.Float(9.75), xdm.Float(1e20), xdm.Float(-3)}
	for _, tc := range []struct {
		name string
		typ  schema.ColType
		keys []xdm.Value
		pair bool // a second key column, the same for every row but one
	}{
		{"int", schema.TInt, ints, false},
		{"string", schema.TString, strs, false},
		{"float", schema.TFloat, floats, false},
		{"int+int", schema.TInt, ints, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols := []schema.Column{{Name: "k", Type: tc.typ}, {Name: "k2", Type: schema.TInt}, {Name: "v", Type: schema.TInt}}
			pk := []string{"k"}
			if tc.pair {
				pk = []string{"k2", "k"}
			}
			s := schema.New()
			s.MustAddTable(&schema.Table{Name: "t", Columns: cols, PrimaryKey: pk})
			db, err := Open(s)
			if err != nil {
				t.Fatal(err)
			}
			row := func(i int, v int64) Row {
				k2 := int64(7)
				if tc.pair && i == 0 {
					k2 = 70
				}
				return Row{tc.keys[i], xdm.Int(k2), xdm.Int(v)}
			}
			want := func(rows []Row) string {
				keys := keysOf(rows, tc.pair)
				slices.Sort(keys)
				return fmt.Sprintf("%q", keys)
			}
			got := map[Event][2]string{}
			for _, ev := range []Event{EvInsert, EvUpdate, EvDelete} {
				if err := db.CreateTrigger(&SQLTrigger{Name: ev.String(), Table: "t", Event: ev, Body: func(ctx *FireContext) error {
					got[ctx.Event] = [2]string{fmt.Sprintf("%q", keysOf(ctx.Inserted, tc.pair)), fmt.Sprintf("%q", keysOf(ctx.Deleted, tc.pair))}
					return nil
				}}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(what string, ev Event, ins, del []Row) {
				t.Helper()
				if g := got[ev]; g[0] != want(ins) || g[1] != want(del) {
					t.Errorf("%s: Δ %q ∇ %q\nwant Δ %q ∇ %q", what, g[0], g[1], want(ins), want(del))
				}
				delete(got, ev)
			}
			var rows []Row
			for i := range tc.keys {
				rows = append(rows, row(i, 1))
			}
			if err := db.Insert("t", rows...); err != nil {
				t.Fatal(err)
			}
			delete(got, EvInsert) // a statement's INSERT reports its rows as given
			if _, err := db.Update("t", func(Row) bool { return true }, func(r Row) Row { r[2] = xdm.Int(2); return r }); err != nil {
				t.Fatal(err)
			}
			check("UPDATE", EvUpdate, rows, rows)
			// A commit touching the keys in reverse: one update, one delete
			// and one re-insert per key, netting to updates.
			tx := db.Begin()
			for i := len(rows) - 1; i >= 0; i-- {
				key := []xdm.Value{rows[i][0]}
				if tc.pair {
					key = []xdm.Value{rows[i][1], rows[i][0]}
				}
				if _, err := tx.UpdateByPK("t", key, func(r Row) Row { r[2] = xdm.Int(3); return r }); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.DeleteByPK("t", key...); err != nil {
					t.Fatal(err)
				}
				if err := tx.Insert("t", row(i, 4)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			check("commit", EvUpdate, rows, rows)
			if _, err := db.Delete("t", func(Row) bool { return true }); err != nil {
				t.Fatal(err)
			}
			check("DELETE", EvDelete, nil, rows)
		})
	}
}

// keysOf returns the TupleKeys of rows' primary keys, in report order: the
// column k, or the columns (k2, k) when pair is set.
func keysOf(rows []Row, pair bool) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		if pair {
			keys[i] = xdm.TupleKey([]xdm.Value{r[1], r[0]})
		} else {
			keys[i] = xdm.TupleKey(r[:1])
		}
	}
	return keys
}

// noPKSchema builds one table without a primary key (synthetic rowids).
func noPKSchema(t *testing.T) *DB {
	t.Helper()
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "events",
		Columns: []schema.Column{
			{Name: "kind", Type: schema.TString},
			{Name: "val", Type: schema.TInt},
		},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRollbackRestoresAutoID: a rolled-back transaction must return a
// no-PK table's rowid counter to its pre-transaction value, so re-running
// the same inserts allocates the same storage keys as the first attempt.
func TestRollbackRestoresAutoID(t *testing.T) {
	db := noPKSchema(t)
	if err := db.Insert("events", Row{xdm.Str("boot"), xdm.Int(1)}); err != nil {
		t.Fatal(err)
	}
	before := db.tables["events"].autoID

	tx := db.Begin()
	if err := tx.Insert("events",
		Row{xdm.Str("a"), xdm.Int(2)},
		Row{xdm.Str("b"), xdm.Int(3)},
	); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.tables["events"].autoID; got != before {
		t.Fatalf("autoID after rollback = %d, want %d", got, before)
	}
	if db.RowCount("events") != 1 {
		t.Fatalf("row count after rollback = %d, want 1", db.RowCount("events"))
	}

	// The re-run allocates the same keys: committing the same two inserts
	// after the rollback must leave the table with contiguous rowids
	// (observable as the re-insert landing in the rolled-back keys).
	tx2 := db.Begin()
	if err := tx2.Insert("events",
		Row{xdm.Str("a"), xdm.Int(2)},
		Row{xdm.Str("b"), xdm.Int(3)},
	); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.tables["events"].autoID; got != before+2 {
		t.Fatalf("autoID after re-run = %d, want %d", got, before+2)
	}
}

// TestCheckFKNonPKFallbackCountsScan: foreign keys referencing non-PK
// columns validate via a whole-table scan of the referenced table, which
// must be visible in Stats.FullScans.
func TestCheckFKNonPKFallbackCountsScan(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "parent",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "code", Type: schema.TString},
		},
		PrimaryKey: []string{"id"},
	})
	s.MustAddTable(&schema.Table{
		Name: "child",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "pcode", Type: schema.TString},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []schema.ForeignKey{
			{Columns: []string{"pcode"}, RefTable: "parent", RefColumns: []string{"code"}},
		},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	db.SetEnforceFKs(true)
	if err := db.Insert("parent", Row{xdm.Int(1), xdm.Str("X")}); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if err := db.Insert("child", Row{xdm.Int(10), xdm.Str("X")}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().FullScans; got != 1 {
		t.Errorf("FullScans after non-PK FK check = %d, want 1", got)
	}
	if err := db.Insert("child", Row{xdm.Int(11), xdm.Str("nope")}); err == nil {
		t.Error("child with no parent code accepted")
	}
	if got := db.Stats().FullScans; got != 2 {
		t.Errorf("FullScans after a violating non-PK FK check = %d, want 2", got)
	}
	// The full-PK fast path stays scan-free.
	db.ResetStats()
	if err := db.Insert("parent", Row{xdm.Int(2), xdm.Str("Y")}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().FullScans; got != 0 {
		t.Errorf("FullScans on PK-referencing insert = %d, want 0", got)
	}
}

// TestCheckFKOnPrimaryKeyIsFinal: when a foreign key names the referenced
// table's whole primary key, the key map decides a miss as well as a hit; a
// violating insert must not scan the parent table to confirm it.
func TestCheckFKOnPrimaryKeyIsFinal(t *testing.T) {
	db := leafDB(t, 0)
	for i := 0; i < 1000; i++ {
		if err := db.Insert("product", Row{xdm.Int(int64(i)), xdm.Str("p")}); err != nil {
			t.Fatal(err)
		}
	}
	db.SetEnforceFKs(true)
	db.ResetStats()
	err := db.Insert("vendor", Row{xdm.Int(1), xdm.Int(5000), xdm.Float(0)})
	if err == nil || !strings.Contains(err.Error(), "foreign key violation") {
		t.Fatalf("vendor of a missing product: err = %v, want a foreign key violation", err)
	}
	if err := db.Insert("vendor", Row{xdm.Int(1), xdm.Int(999), xdm.Float(0)}); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.FullScans != 0 {
		t.Errorf("FullScans = %d after a violating and a valid insert against the parent's primary key, want 0", st.FullScans)
	}
}
