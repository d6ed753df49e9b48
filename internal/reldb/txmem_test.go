package reldb

import (
	"fmt"
	"strings"
	"testing"

	"quark/internal/xdm"
)

// A Tx kept after Commit, after Rollback, or after a prepared rollback
// holds none of the bookkeeping it borrowed, refuses every mutation and
// finish, and so cannot write into the next transaction's bookkeeping,
// which reuses that memory: the next transaction fires exactly its own
// changes and rolls back exactly them.
func TestFinishedTxLeavesTheNextOneAlone(t *testing.T) {
	db := txTestDB(t)
	var log []firing
	recordFirings(t, db, "item", &log)
	if err := db.Insert("item", Row{xdm.Int(1), xdm.Int(10)}, Row{xdm.Int(2), xdm.Int(20)}); err != nil {
		t.Fatal(err)
	}
	log = nil
	set := func(q int64) func(Row) Row { return func(r Row) Row { r[1] = xdm.Int(q); return r } }

	committed := db.Begin()
	if _, err := committed.UpdateByPK("item", []xdm.Value{xdm.Int(1)}, set(11)); err != nil {
		t.Fatal(err)
	}
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	rolled := db.Begin()
	if err := rolled.Insert("item", Row{xdm.Int(3), xdm.Int(30)}); err != nil {
		t.Fatal(err)
	}
	if err := rolled.Rollback(); err != nil {
		t.Fatal(err)
	}
	prepared := db.Begin()
	if _, err := prepared.DeleteByPK("item", xdm.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := prepared.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := prepared.Rollback(); err != nil {
		t.Fatal(err)
	}
	log = nil

	// The next transactions take the memory the finished ones gave back.
	for round, commit := range []bool{true, false} {
		next := db.Begin()
		if _, err := next.UpdateByPK("item", []xdm.Value{xdm.Int(2)}, set(int64(21+round))); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name string
			tx   *Tx
		}{{"committed", committed}, {"rolled back", rolled}, {"prepared and rolled back", prepared}} {
			tx := f.tx
			if tx.mem != nil || tx.Staged() != nil {
				t.Errorf("round %d: the %s transaction still holds its bookkeeping", round, f.name)
			}
			for _, op := range []struct {
				name string
				err  error
			}{
				{"Insert", tx.Insert("item", Row{xdm.Int(9), xdm.Int(90)})},
				{"Update", second(tx.Update("item", func(Row) bool { return true }, set(0)))},
				{"UpdateByPK", second(tx.UpdateByPK("item", []xdm.Value{xdm.Int(2)}, set(0)))},
				{"Delete", second(tx.Delete("item", func(Row) bool { return true }))},
				{"DeleteByPK", second(tx.DeleteByPK("item", xdm.Int(1)))},
				{"Prepare", tx.Prepare()},
				{"Commit", tx.Commit()},
				{"Rollback", tx.Rollback()},
			} {
				if op.err == nil || !strings.Contains(op.err.Error(), "already finished") {
					t.Errorf("round %d: %s on the %s transaction = %v, want it refused", round, op.name, f.name, op.err)
				}
			}
		}
		if commit {
			if err := next.Commit(); err != nil {
				t.Fatal(err)
			}
		} else if err := next.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(log), fmt.Sprint([]firing{{table: "item", event: EvUpdate, inserted: [][]int64{{2, 21}}, deleted: [][]int64{{2, 20}}, batch: true}}); got != want {
		t.Errorf("the next transactions fired %s, want %s", got, want)
	}
	var rows []string
	for _, id := range []int64{1, 2, 3, 9} {
		if r, ok, err := db.GetByPK("item", xdm.Int(id)); err != nil {
			t.Fatal(err)
		} else if ok {
			rows = append(rows, fmt.Sprint(r[0].AsInt(), ":", r[1].AsInt()))
		}
	}
	if got, want := strings.Join(rows, " "), "1:11 2:21"; got != want {
		t.Errorf("items = %s, want %s", got, want)
	}
}

func second[T any](_ T, err error) error { return err }

// A 10,000-row commit grows the bookkeeping it borrowed, and gives it back
// with every map and slice that grew past maxScratchBytes dropped; after a
// one-row commit, the free list holds at most maxIdleTxs transactions'
// worth, no row and no staged delivery, and at most maxScratchBytes each.
func TestTxFreeListIsCapped(t *testing.T) {
	db := leafDB(t, 10_000)
	fired := 0
	if err := db.CreateTrigger(&SQLTrigger{Name: "u", Table: "vendor", Event: EvUpdate, Body: func(ctx *FireContext) error {
		fired += len(ctx.Inserted)
		ctx.Stage(func() error { return nil })
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{10_000, 1} {
		tx := db.Begin()
		for i := int64(0); i < n; i++ {
			if _, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Int(i)}, func(r Row) Row { r[2] = xdm.Float(-r[2].AsFloat() - 1); return r }); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 10_001 {
		t.Fatalf("the commits reported %d updated rows, want 10,001", fired)
	}
	free := db.txs.free
	if len(free) == 0 || len(free) > maxIdleTxs {
		t.Fatalf("the free list holds %d transactions' bookkeeping, want 1 to %d", len(free), maxIdleTxs)
	}
	for i, m := range free {
		if b := m.bytes(); b > maxScratchBytes {
			t.Errorf("free[%d] keeps %d bytes, cap %d", i, b, maxScratchBytes)
		}
		for _, r := range m.rows[:cap(m.rows)] {
			if r != nil {
				t.Fatalf("free[%d] still holds a net-delta row", i)
			}
		}
		for _, f := range m.staged[:cap(m.staged)] {
			if f != nil {
				t.Fatalf("free[%d] still holds a staged delivery", i)
			}
		}
		for _, tt := range m.tabs[:cap(m.tabs)] {
			if len(tt.touched) != 0 || len(tt.moved) != 0 || tt.name != "" {
				t.Fatalf("free[%d] still holds table %q's keys", i, tt.name)
			}
		}
		if len(m.deltas) != 0 || m.batch.Deltas != nil || m.batch.EngineState != nil {
			t.Fatalf("free[%d] still holds a BatchInfo", i)
		}
	}
	if free[len(free)-1].tabs[:1][0].touched == nil {
		t.Error("a one-row commit's maps were not kept for the next transaction")
	}
}

// bytes reports what m keeps for the next transaction.
func (m *txMem) bytes() int {
	n := 0
	for _, tt := range m.tabs[:cap(m.tabs)] {
		n += tt.grown * touchedEntryBytes
	}
	return n + scratchBytes(m.tabs) + scratchBytes(m.autoIDs) + scratchBytes(m.nets) +
		scratchBytes(m.rows) + scratchBytes(m.nds) + scratchBytes(m.staged)
}
