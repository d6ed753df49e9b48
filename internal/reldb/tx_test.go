package reldb

import (
	"testing"

	"quark/internal/schema"
	"quark/internal/xdm"
)

func txTestDB(t *testing.T) *DB {
	t.Helper()
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "item",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "qty", Type: schema.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	s.MustAddTable(&schema.Table{
		Name: "tag",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "label", Type: schema.TString},
		},
		PrimaryKey: []string{"id"},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

type firing struct {
	table    string
	event    Event
	inserted [][]int64
	deleted  [][]int64
	batch    bool
}

func recordFirings(t *testing.T, db *DB, table string, log *[]firing) {
	t.Helper()
	for _, ev := range []Event{EvInsert, EvUpdate, EvDelete} {
		ev := ev
		err := db.CreateTrigger(&SQLTrigger{
			Name: table + "_" + ev.String(), Table: table, Event: ev,
			Body: func(ctx *FireContext) error {
				f := firing{table: ctx.Table, event: ctx.Event, batch: ctx.Batch != nil}
				for _, r := range ctx.Inserted {
					f.inserted = append(f.inserted, []int64{r[0].AsInt(), r[1].AsInt()})
				}
				for _, r := range ctx.Deleted {
					f.deleted = append(f.deleted, []int64{r[0].AsInt(), r[1].AsInt()})
				}
				*log = append(*log, f)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTxCoalescesUpdates(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	tx := db.Begin()
	set := func(q int64) func(Row) Row {
		return func(r Row) Row { r[1] = xdm.Int(q); return r }
	}
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, set(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, set(30)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 {
		t.Fatalf("expected 1 firing, got %d: %+v", len(log), log)
	}
	f := log[0]
	if f.event != EvUpdate || !f.batch {
		t.Fatalf("expected batched UPDATE firing, got %+v", f)
	}
	if len(f.deleted) != 1 || f.deleted[0][1] != 10 || f.inserted[0][1] != 30 {
		t.Fatalf("expected coalesced pair (10 -> 30), got %+v", f)
	}
}

func TestTxInsertThenUpdateFiresSingleInsert(t *testing.T) {
	db := txTestDB(t)
	var log []firing
	recordFirings(t, db, "item", &log)

	tx := db.Begin()
	if err := tx.Insert("item", Row{xdm.Int(1), xdm.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, func(r Row) Row {
		r[1] = xdm.Int(7)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].event != EvInsert {
		t.Fatalf("expected a single INSERT firing, got %+v", log)
	}
	if log[0].inserted[0][1] != 7 {
		t.Fatalf("expected Δ to carry the final version (qty=7), got %+v", log[0])
	}
}

func TestTxInsertThenDeleteFiresNothing(t *testing.T) {
	db := txTestDB(t)
	var log []firing
	recordFirings(t, db, "item", &log)

	tx := db.Begin()
	if err := tx.Insert("item", Row{xdm.Int(1), xdm.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteByPK("item", xdm.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("expected no firings, got %+v", log)
	}
	if db.RowCount("item") != 0 {
		t.Fatalf("expected empty table")
	}
}

func TestTxDeleteThenReinsertBecomesUpdate(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	tx := db.Begin()
	if _, err := tx.DeleteByPK("item", xdm.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("item", Row{xdm.Int(1), xdm.Int(42)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].event != EvUpdate {
		t.Fatalf("expected a single UPDATE firing, got %+v", log)
	}
	if log[0].deleted[0][1] != 10 || log[0].inserted[0][1] != 42 {
		t.Fatalf("expected pair (10 -> 42), got %+v", log[0])
	}
}

func TestTxNoOpNetChangeFiresNothing(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	tx := db.Begin()
	set := func(q int64) func(Row) Row {
		return func(r Row) Row { r[1] = xdm.Int(q); return r }
	}
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, set(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, set(10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("expected no firings for a net no-op, got %+v", log)
	}
}

func TestTxMultiTableCommitOrderAndBatchDeltas(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("tag", Row{xdm.Int(1), xdm.Str("old")}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)
	var tagEvents []Event
	var sawDeltas int
	err := db.CreateTrigger(&SQLTrigger{
		Name: "tag_upd", Table: "tag", Event: EvUpdate,
		Body: func(ctx *FireContext) error {
			tagEvents = append(tagEvents, ctx.Event)
			if ctx.Batch != nil {
				sawDeltas = len(ctx.Batch.Deltas)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := tx.UpdateByPK("tag", []xdm.Value{xdm.Int(1)}, func(r Row) Row {
		r[1] = xdm.Str("new")
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("item", Row{xdm.Int(1), xdm.Int(1)}, Row{xdm.Int(2), xdm.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteByPK("item", xdm.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// item fires before tag (table-name order); only the surviving insert.
	if len(log) != 1 || log[0].event != EvInsert || len(log[0].inserted) != 1 {
		t.Fatalf("expected one INSERT firing with one row on item, got %+v", log)
	}
	if len(tagEvents) != 1 {
		t.Fatalf("expected one tag firing, got %v", tagEvents)
	}
	if sawDeltas != 2 {
		t.Fatalf("expected batch deltas for 2 tables, got %d", sawDeltas)
	}
}

func TestTxRollback(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}, Row{xdm.Int(2), xdm.Int(20)}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("item", "qty"); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	tx := db.Begin()
	if err := tx.Insert("item", Row{xdm.Int(3), xdm.Int(30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, func(r Row) Row {
		r[1] = xdm.Int(99)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteByPK("item", xdm.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("rollback must not fire triggers, got %+v", log)
	}
	if db.RowCount("item") != 2 {
		t.Fatalf("expected 2 rows after rollback, got %d", db.RowCount("item"))
	}
	r, ok, _ := db.GetByPK("item", xdm.Int(1))
	if !ok || r[1].AsInt() != 10 {
		t.Fatalf("expected row 1 restored to qty=10, got %v", r)
	}
	// Secondary index must be restored too.
	n := 0
	if err := db.Lookup("item", "qty", xdm.Int(10), func(Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("expected qty index to find restored row, got %d hits", n)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("expected error committing a finished transaction")
	}
}

func TestTxPKSwapKeepsBothPreImages(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}, Row{xdm.Int(2), xdm.Int(20)}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	// One statement swapping the two primary keys: both rows' old
	// versions must survive into the net transition tables.
	tx := db.Begin()
	if _, err := tx.Update("item", func(Row) bool { return true }, func(r Row) Row {
		if r[0].AsInt() == 1 {
			r[0] = xdm.Int(2)
		} else {
			r[0] = xdm.Int(1)
		}
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].event != EvUpdate {
		t.Fatalf("expected one UPDATE firing with both pairs, got %+v", log)
	}
	if len(log[0].inserted) != 2 || len(log[0].deleted) != 2 {
		t.Fatalf("expected 2 aligned update pairs, got %+v", log[0])
	}
	// Pairs follow row identity across the swap: each row keeps its qty
	// and receives the other key.
	for i := range log[0].deleted {
		o, n := log[0].deleted[i], log[0].inserted[i]
		if o[1] != n[1] {
			t.Errorf("pair %d is not identity-aligned: %v -> %v", i, o, n)
		}
		if o[0] == n[0] {
			t.Errorf("pair %d: key did not swap: %v -> %v", i, o, n)
		}
	}
}

func TestTxUpdateWithoutPrimaryKeyFiresUpdate(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:    "nopk",
		Columns: []schema.Column{{Name: "v", Type: schema.TInt}},
	})
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("nopk", Row{xdm.Int(1)}); err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, ev := range []Event{EvInsert, EvUpdate, EvDelete} {
		ev := ev
		if err := db.CreateTrigger(&SQLTrigger{
			Name: "nopk_" + ev.String(), Table: "nopk", Event: ev,
			Body: func(ctx *FireContext) error {
				events = append(events, ctx.Event)
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	if _, err := tx.Update("nopk", func(Row) bool { return true }, func(r Row) Row {
		r[0] = xdm.Int(2)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The synthetic rowid is stable across updates, so the batched change
	// coalesces to one UPDATE — not an INSERT+DELETE pair.
	if len(events) != 1 || events[0] != EvUpdate {
		t.Fatalf("expected a single UPDATE firing, got %v", events)
	}
}

func TestTxPKMoveStaysUpdate(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	// A PK-changing update fires AFTER UPDATE in the single-statement
	// path, so the batched path must report it as an update pair too — a
	// listener installed only on (item, UPDATE) must not miss it.
	tx := db.Begin()
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, func(r Row) Row {
		r[0] = xdm.Int(5)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].event != EvUpdate {
		t.Fatalf("expected a single UPDATE firing, got %+v", log)
	}
	if log[0].deleted[0][0] != 1 || log[0].inserted[0][0] != 5 {
		t.Fatalf("expected pair key 1 -> 5, got %+v", log[0])
	}
}

func TestTxPKMoveThenInsertIntoVacatedKey(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	// Move row 1 -> 2, then insert a fresh row at the vacated key 1: the
	// moved row's pre-image belongs to the UPDATE pair, and the fresh row
	// is a plain INSERT — it must not adopt key 1's pre-image.
	tx := db.Begin()
	if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, func(r Row) Row {
		r[0] = xdm.Int(2)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("item", Row{xdm.Int(1), xdm.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].event != EvInsert || log[1].event != EvUpdate {
		t.Fatalf("expected INSERT then UPDATE firings, got %+v", log)
	}
	if len(log[0].inserted) != 1 || log[0].inserted[0][1] != 99 {
		t.Fatalf("expected INSERT of the fresh row (qty=99), got %+v", log[0])
	}
	if len(log[1].deleted) != 1 || log[1].deleted[0][0] != 1 || log[1].inserted[0][0] != 2 {
		t.Fatalf("expected UPDATE pair 1 -> 2, got %+v", log[1])
	}
}

func TestTxChainedPKMoveCoalesces(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}); err != nil {
		t.Fatal(err)
	}
	var log []firing
	recordFirings(t, db, "item", &log)

	// Move 1 -> 5 -> 9 across two statements: one UPDATE pair 1 -> 9.
	tx := db.Begin()
	move := func(from, to int64) {
		t.Helper()
		if _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(from)}, func(r Row) Row {
			r[0] = xdm.Int(to)
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}
	move(1, 5)
	move(5, 9)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].event != EvUpdate {
		t.Fatalf("expected a single UPDATE firing, got %+v", log)
	}
	if log[0].deleted[0][0] != 1 || log[0].inserted[0][0] != 9 {
		t.Fatalf("expected coalesced pair 1 -> 9, got %+v", log[0])
	}
}

// The write sequence grows with every applied statement, commit and
// rollback, and with nothing else: the bodies of one statement, and the
// firing waves of one prepared transaction, all see the value it had when
// they started, and reads leave it alone.
func TestWriteSeq(t *testing.T) {
	db := txTestDB(t)
	var seen []uint64 // what each body saw
	for _, name := range []string{"a", "b"} {
		for _, ev := range []Event{EvInsert, EvUpdate, EvDelete} {
			if err := db.CreateTrigger(&SQLTrigger{Name: name + ev.String(), Table: "item", Event: ev,
				Body: func(*FireContext) error { seen = append(seen, db.WriteSeq()); return nil }}); err != nil {
				t.Fatal(err)
			}
		}
	}
	qty := func(n int64) func(Row) Row {
		return func(r Row) Row { r[1] = xdm.Int(n); return r }
	}
	all := func(Row) bool { return true }
	last := db.WriteSeq()
	step := func(what string, write func() error, bodies int) {
		t.Helper()
		seen = seen[:0]
		if err := write(); err != nil {
			t.Fatal(err)
		}
		now := db.WriteSeq()
		if now <= last {
			t.Errorf("%s: write sequence %d, was %d", what, now, last)
		}
		if len(seen) != bodies {
			t.Errorf("%s: %d bodies ran, want %d", what, len(seen), bodies)
		}
		for _, s := range seen {
			if s != seen[0] {
				t.Errorf("%s: the bodies saw %v, want one value", what, seen)
				break
			}
		}
		last = now
	}
	step("Insert", func() error { return db.Insert("item", Row{xdm.Int(1), xdm.Int(1)}, Row{xdm.Int(2), xdm.Int(2)}) }, 2)
	step("UpdateByPK", func() error { _, err := db.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, qty(3)); return err }, 2)
	step("Update", func() error { _, err := db.Update("item", all, qty(4)); return err }, 2)
	step("DeleteByPK", func() error { _, err := db.DeleteByPK("item", xdm.Int(2)); return err }, 2)
	step("Delete", func() error { _, err := db.Delete("item", all); return err }, 2)

	_ = db.Scan("item", all)
	_, _, _ = db.GetByPK("item", xdm.Int(1))
	if db.WriteSeq() != last {
		t.Error("a read moved the write sequence")
	}

	tx := db.Begin()
	step("Tx.Insert", func() error { return tx.Insert("item", Row{xdm.Int(5), xdm.Int(5)}, Row{xdm.Int(6), xdm.Int(6)}) }, 0)
	step("Tx.Prepare, Tx.Commit", func() error {
		if err := tx.Prepare(); err != nil {
			return err
		}
		if db.WriteSeq() != last {
			t.Error("Tx.Prepare moved the write sequence")
		}
		return tx.Commit()
	}, 2)
	tx = db.Begin()
	step("Tx.UpdateByPK", func() error { _, err := tx.UpdateByPK("item", []xdm.Value{xdm.Int(5)}, qty(7)); return err }, 0)
	step("Tx.Rollback", tx.Rollback, 0)
}
