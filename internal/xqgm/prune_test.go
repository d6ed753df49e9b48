package xqgm_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// prunedRef is Definition 8's pruning as first written: the rows of a less
// those that also appear in b, keyed by their whole-row xdm.RowKey strings,
// one row of b cancelling one equal row of a.
func prunedRef(a, b []reldb.Row) []reldb.Row {
	drop := map[xdm.CompKey]int{}
	for _, r := range b {
		drop[xdm.RowKey(r)]++
	}
	var out []reldb.Row
	for _, r := range a {
		if k := xdm.RowKey(r); drop[k] > 0 {
			drop[k]--
			continue
		}
		out = append(out, r)
	}
	return out
}

// pruneDB has a keyed table and a keyless one over the same columns.
func pruneDB(t *testing.T) *reldb.DB {
	t.Helper()
	s := schema.New()
	cols := []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "name", Type: schema.TString}, {Name: "price", Type: schema.TFloat}}
	s.MustAddTable(&schema.Table{Name: "keyed", Columns: cols, PrimaryKey: []string{"id"}})
	s.MustAddTable(&schema.Table{Name: "bag", Columns: cols})
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// pruned evaluates both pruned transition tables of table over tr, each in a
// context rebound to it (whose indexes are kept and reused) and in a fresh
// one.
func pruned(t *testing.T, ctx *xqgm.EvalContext, table string, tr *xqgm.Transition) (delta, nabla string) {
	t.Helper()
	def, _ := ctx.DB.Schema().Table(table)
	deltas := map[string]*xqgm.Transition{table: tr}
	ctx.Rebind(deltas)
	var got [2]string
	for i, src := range []xqgm.TableSource{xqgm.SrcDeltaPruned, xqgm.SrcNablaPruned} {
		op := xqgm.NewTable(def, src)
		out, err := ctx.Eval(op)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = fmt.Sprint(out)
		if fresh := fmt.Sprint(evalRoot(t, ctx.DB, op, deltas)); fresh != got[i] {
			t.Fatalf("%s %s: a rebound context prunes to %s, a fresh one to %s", table, src, got[i], fresh)
		}
	}
	return got[0], got[1]
}

// Definition 8's pruned transition tables keep what whole-row keys kept:
// a keyless table's Δ and ∇ are bags, so a duplicated row is cancelled once
// per equal row on the other side; NULL cells match NULL cells and NaN
// cells NaN cells (CompKey equality, which is not xdm.Equal's); an integral
// float matches the int it equals; and a row a statement wrote back to its
// pre-image is in neither pruned table. A keyed table's rows are found by
// primary key and then compared in full.
func TestPrunedTablesKeepRowKeySemantics(t *testing.T) {
	db := pruneDB(t)
	nan := xdm.Float(math.NaN())
	row := func(id int64, name xdm.Value, price xdm.Value) reldb.Row {
		return reldb.Row{xdm.Int(id), name, price}
	}
	a, b := xdm.Str("a"), xdm.Str("b")
	cases := []struct {
		name         string
		table        string
		tr           xqgm.Transition
		delta, nabla string // as the reference prunes, checked against it too
	}{
		{"duplicates keep their multiplicity", "bag", xqgm.Transition{
			Inserted: []reldb.Row{row(1, a, xdm.Float(1)), row(1, a, xdm.Float(1)), row(1, a, xdm.Float(1)), row(2, b, xdm.Float(2))},
			Deleted:  []reldb.Row{row(1, a, xdm.Float(1)), row(2, b, xdm.Float(3)), row(2, b, xdm.Float(3))},
		}, `[[1 "a" 1.00] [1 "a" 1.00] [2 "b" 2.00]]`, `[[2 "b" 3.00] [2 "b" 3.00]]`},
		{"NULL and NaN cells", "bag", xqgm.Transition{
			Inserted: []reldb.Row{row(1, xdm.Null, nan), row(2, xdm.Null, xdm.Null), row(3, a, nan)},
			Deleted:  []reldb.Row{row(1, xdm.Null, nan), row(2, xdm.Null, xdm.Float(0)), row(3, a, nan), row(3, a, nan)},
		}, `[[2 NULL NULL]]`, `[[2 NULL 0.00] [3 "a" NaN]]`},
		{"an integral float is the int it equals", "bag", xqgm.Transition{
			Inserted: []reldb.Row{{xdm.Float(4), a, xdm.Int(7)}, {xdm.Int(5), a, xdm.Float(-0.0)}},
			Deleted:  []reldb.Row{{xdm.Int(4), a, xdm.Float(7)}, {xdm.Int(5), a, xdm.Float(0)}},
		}, `[]`, `[]`},
		{"a row written back to its pre-image", "keyed", xqgm.Transition{
			Inserted: []reldb.Row{row(1, a, xdm.Float(10)), row(2, b, xdm.Float(21)), row(3, a, nan)},
			Deleted:  []reldb.Row{row(1, a, xdm.Float(10)), row(2, b, xdm.Float(20)), row(3, a, nan)},
		}, `[[2 "b" 21.00]]`, `[[2 "b" 20.00]]`},
		{"a key that moved", "keyed", xqgm.Transition{
			Inserted: []reldb.Row{row(9, a, xdm.Float(10)), row(1, b, xdm.Float(10))},
			Deleted:  []reldb.Row{row(1, a, xdm.Float(10)), row(9, b, xdm.Float(10))},
		}, `[[9 "a" 10.00] [1 "b" 10.00]]`, `[[1 "a" 10.00] [9 "b" 10.00]]`},
	}
	ctx := &xqgm.EvalContext{DB: db}
	for _, c := range cases {
		delta, nabla := pruned(t, ctx, c.table, &c.tr)
		refD, refN := fmt.Sprint(prunedRef(c.tr.Inserted, c.tr.Deleted)), fmt.Sprint(prunedRef(c.tr.Deleted, c.tr.Inserted))
		if delta != c.delta || nabla != c.nabla || delta != refD || nabla != refN {
			t.Errorf("%s: Δ pruned %s, ∇ pruned %s\nwant Δ %s, ∇ %s (the reference: %s, %s)", c.name, delta, nabla, c.delta, c.nabla, refD, refN)
		}
	}
}

// A commit's net change through reldb, pruned: an update written back to its
// pre-image nets to nothing, and what is left prunes as the reference does,
// for the keyed table and the keyless one alike.
func TestPrunedNetChangeOfACommit(t *testing.T) {
	db := pruneDB(t)
	for _, table := range []string{"keyed", "bag"} {
		var rows []reldb.Row
		for i := int64(0); i < 6; i++ {
			rows = append(rows, reldb.Row{xdm.Int(i), xdm.Str("n"), xdm.Float(float64(i))})
		}
		rows = append(rows, reldb.Row{xdm.Int(6), xdm.Null, xdm.Float(math.NaN())})
		if err := db.Insert(table, rows...); err != nil {
			t.Fatal(err)
		}
	}
	var got map[string]*reldb.NetDelta
	for _, table := range []string{"keyed", "bag"} {
		for _, ev := range []reldb.Event{reldb.EvInsert, reldb.EvUpdate, reldb.EvDelete} {
			if err := db.CreateTrigger(&reldb.SQLTrigger{Name: table + ev.String(), Table: table, Event: ev, Body: func(ctx *reldb.FireContext) error {
				got = ctx.Batch.Deltas
				return nil
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	set := func(p float64) func(reldb.Row) reldb.Row {
		return func(r reldb.Row) reldb.Row { r[2] = xdm.Float(p); return r }
	}
	idIs := func(id int64) func(reldb.Row) bool { return func(r reldb.Row) bool { return r[0].AsInt() == id } }
	tx := db.Begin()
	for _, table := range []string{"keyed", "bag"} {
		for _, step := range []struct {
			id    int64
			price float64
		}{{1, 100}, {1, 1}, {2, 200}, {3, 300}, {3, 301}} { // 1 goes back to its pre-image
			if _, err := tx.Update(table, idIs(step.id), set(step.price)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Delete(table, idIs(4)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(table, reldb.Row{xdm.Int(4), xdm.Str("n"), xdm.Float(4)}, reldb.Row{xdm.Int(9), xdm.Null, xdm.Null}); err != nil {
			t.Fatal(err)
		}
		if table == "bag" { // the keyless table takes a duplicate of a row it holds
			if err := tx.Insert(table, reldb.Row{xdm.Int(5), xdm.Str("n"), xdm.Float(5)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ctx := &xqgm.EvalContext{DB: db}
	for _, table := range []string{"keyed", "bag"} {
		nd := got[table]
		for _, r := range append(append([]reldb.Row(nil), nd.Inserted...), nd.Deleted...) {
			if r[0].AsInt() == 1 {
				t.Errorf("%s: row 1, written back to its pre-image, is in the net change: Δ %v ∇ %v", table, nd.Inserted, nd.Deleted)
			}
		}
		tr := &xqgm.Transition{Inserted: nd.Inserted, Deleted: nd.Deleted}
		delta, nabla := pruned(t, ctx, table, tr)
		if refD, refN := fmt.Sprint(prunedRef(tr.Inserted, tr.Deleted)), fmt.Sprint(prunedRef(tr.Deleted, tr.Inserted)); delta != refD || nabla != refN {
			t.Errorf("%s: Δ pruned %s, ∇ pruned %s; the reference prunes to %s, %s", table, delta, nabla, refD, refN)
		}
	}
}

// Random transitions over a few values, duplicates and NULL and NaN cells
// included, prune as the reference does in both tables.
func TestPrunedMatchesTheReference(t *testing.T) {
	db := pruneDB(t)
	ctx := &xqgm.EvalContext{DB: db}
	vals := []xdm.Value{xdm.Null, xdm.Float(math.NaN()), xdm.Float(1), xdm.Int(1), xdm.Float(0.5), xdm.Float(-0.0)}
	names := []xdm.Value{xdm.Null, xdm.Str("a"), xdm.Str("b")}
	rng := rand.New(rand.NewSource(1))
	rows := func(n int) []reldb.Row {
		out := make([]reldb.Row, n)
		for i := range out {
			out[i] = reldb.Row{xdm.Int(int64(rng.Intn(4))), names[rng.Intn(len(names))], vals[rng.Intn(len(vals))]}
		}
		return out
	}
	for round := 0; round < 300; round++ {
		table := []string{"keyed", "bag"}[round%2]
		tr := &xqgm.Transition{Inserted: rows(rng.Intn(12)), Deleted: rows(rng.Intn(12))}
		delta, nabla := pruned(t, ctx, table, tr)
		if refD, refN := fmt.Sprint(prunedRef(tr.Inserted, tr.Deleted)), fmt.Sprint(prunedRef(tr.Deleted, tr.Inserted)); delta != refD || nabla != refN {
			t.Fatalf("round %d, %s over Δ %v ∇ %v: pruned to %s, %s; the reference to %s, %s", round, table, tr.Inserted, tr.Deleted, delta, nabla, refD, refN)
		}
	}
}
