package affected

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"quark/internal/fixtures"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// captureStatement runs fn and captures the transition tables of the single
// statement it performs on the given table.
func captureStatement(t *testing.T, db *reldb.DB, table string, fn func() error) map[string]*xqgm.Transition {
	t.Helper()
	tr := &xqgm.Transition{}
	for i, ev := range []reldb.Event{reldb.EvInsert, reldb.EvUpdate, reldb.EvDelete} {
		name := fmt.Sprintf("capture_%s_%d", table, i)
		err := db.CreateTrigger(&reldb.SQLTrigger{
			Name: name, Table: table, Event: ev,
			Body: func(ctx *reldb.FireContext) error {
				tr.Inserted = append(tr.Inserted, ctx.Inserted...)
				tr.Deleted = append(tr.Deleted, ctx.Deleted...)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = db.DropTrigger(name) }()
	}
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return map[string]*xqgm.Transition{table: tr}
}

// snapshotProducts evaluates the product-level path graph (Figure 5A) and
// returns key -> serialized product node.
func snapshotProducts(t *testing.T, db *reldb.DB) map[string]string {
	t.Helper()
	v := fixtures.BuildCatalogView(db.Schema(), 2)
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(v.ProductProj)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r[v.ProdNameCol].AsString()] = r[v.ProdNodeCol].AsNode().Serialize(false)
	}
	return out
}

type oracleDiff struct {
	updated  map[string][2]string // key -> (old, new)
	inserted map[string]string
	deleted  map[string]string
}

func diffSnapshots(before, after map[string]string) oracleDiff {
	d := oracleDiff{updated: map[string][2]string{}, inserted: map[string]string{}, deleted: map[string]string{}}
	for k, o := range before {
		if n, ok := after[k]; ok {
			if o != n {
				d.updated[k] = [2]string{o, n}
			}
		} else {
			d.deleted[k] = o
		}
	}
	for k, n := range after {
		if _, ok := before[k]; !ok {
			d.inserted[k] = n
		}
	}
	return d
}

// anGraphs builds the three event graphs for the product path over a table.
func anGraphs(t *testing.T, s *schema.Schema, table string) map[reldb.Event]*ANGraph {
	t.Helper()
	out := map[reldb.Event]*ANGraph{}
	for _, ev := range []reldb.Event{reldb.EvUpdate, reldb.EvInsert, reldb.EvDelete} {
		v := fixtures.BuildCatalogView(s, 2)
		g, err := CreateANGraph(s, ev, v.ProductProj, table, Options{Prune: true, CompareCols: []int{v.ProdNodeCol}})
		if err != nil {
			t.Fatalf("CreateANGraph(%v, %s): %v", ev, table, err)
		}
		out[ev] = g
	}
	return out
}

// checkAgainstOracle applies a statement, captures transitions, runs all
// three ANGraphs, and compares against the recompute-and-diff oracle.
func checkAgainstOracle(t *testing.T, db *reldb.DB, table, label string, fn func() error) {
	t.Helper()
	before := snapshotProducts(t, db)
	deltas := captureStatement(t, db, table, fn)
	checkDeltasAgainstOracle(t, db, label, before, deltas)
}

// checkCommitAgainstOracle does the same for a transaction of several
// statements, possibly over both tables: the graphs of every touched table
// are evaluated under the commit's net deltas, as a batched firing does.
func checkCommitAgainstOracle(t *testing.T, db *reldb.DB, label string, fn func(tx *reldb.Tx) error) {
	t.Helper()
	before := snapshotProducts(t, db)
	tx := db.Begin()
	if err := fn(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	deltas := map[string]*xqgm.Transition{}
	for table, nd := range tx.Staged().Deltas {
		deltas[table] = &xqgm.Transition{Inserted: nd.Inserted, Deleted: nd.Deleted}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	checkDeltasAgainstOracle(t, db, label, before, deltas)
}

// rowsReused sums EvalStats.RowsReused over every OLD-side check of the
// test binary, so a test can tell the comparison below was not vacuous.
var rowsReused int

// checkOldSide compares the OLD side of an affected-node graph — the view
// over B_old joined to the affected keys — evaluated beside the NEW side,
// which is how the graph evaluates it, with the same operator evaluated
// alone. A plan that holds no NEW side has no twins, so the second
// evaluation computes every tuple from scratch: the reference is reached by
// construction, not by a switch.
func checkOldSide(t *testing.T, db *reldb.DB, label string, g *ANGraph, deltas map[string]*xqgm.Transition) {
	t.Helper()
	top := g.Root
	if top.Type == xqgm.OpSelect {
		top = top.Inputs[0]
	}
	oNew, oOld := top.Inputs[0], top.Inputs[1]
	beside := xqgm.NewEvalContext(db, deltas)
	rows, err := beside.Eval(xqgm.NewJoin(xqgm.JoinLeftOuter, oOld, oNew, top.On, nil))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	alone := xqgm.NewEvalContext(db, deltas)
	want, err := alone.Eval(oOld)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if alone.Stats.RowsReused != 0 {
		t.Fatalf("%s: the OLD side alone reused %d rows", label, alone.Stats.RowsReused)
	}
	rowsReused += beside.Stats.RowsReused
	w := oOld.OutWidth()
	var got []string
	for i, r := range rows { // the join is on the canonical key: one row per OLD tuple
		if k := xdm.TupleKey(r[:w]); i == 0 || k != got[len(got)-1] {
			got = append(got, k)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s (%v on %s): OLD side beside the NEW side has %d tuples, alone %d", label, g.Event, g.Table, len(got), len(want))
	}
	for i := range want {
		if k := xdm.TupleKey(want[i]); got[i] != k {
			t.Errorf("%s (%v on %s): OLD tuple %d beside the NEW side = %s\nalone = %s", label, g.Event, g.Table, i, got[i], k)
		}
	}
}

// checkDeltasAgainstOracle runs all three ANGraphs of every touched table
// under the given transition tables and compares the union of what they
// report with the recompute-and-diff oracle.
func checkDeltasAgainstOracle(t *testing.T, db *reldb.DB, label string, before map[string]string, deltas map[string]*xqgm.Transition) {
	t.Helper()
	want := diffSnapshots(before, snapshotProducts(t, db))

	v := fixtures.BuildCatalogView(db.Schema(), 2)
	nodeCol, nameCol := v.ProdNodeCol, v.ProdNameCol
	serialize := func(v xdm.Value) string { return v.AsNode().Serialize(false) }

	gotUpd := map[string][2]string{}
	gotIns, gotDel := map[string]string{}, map[string]string{}
	tables := make([]string, 0, len(deltas))
	for table := range deltas {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		graphs := anGraphs(t, db.Schema(), table)
		for _, ev := range []reldb.Event{reldb.EvUpdate, reldb.EvInsert, reldb.EvDelete} {
			checkOldSide(t, db, label, graphs[ev], deltas)
			pairs, err := graphs[ev].Eval(db, deltas)
			if err != nil {
				t.Fatalf("%s: %v eval on %s: %v", label, ev, table, err)
			}
			for _, p := range pairs {
				switch ev {
				case reldb.EvUpdate:
					gotUpd[p.New[nameCol].AsString()] = [2]string{serialize(p.Old[nodeCol]), serialize(p.New[nodeCol])}
				case reldb.EvInsert: // OLD side must be null
					if !p.Old[nodeCol].IsNull() {
						t.Errorf("%s: INSERT pair has non-null OLD_NODE", label)
					}
					gotIns[p.New[nameCol].AsString()] = serialize(p.New[nodeCol])
				case reldb.EvDelete: // NEW side must be null
					if !p.New[nodeCol].IsNull() {
						t.Errorf("%s: DELETE pair has non-null NEW_NODE", label)
					}
					gotDel[p.Old[nameCol].AsString()] = serialize(p.Old[nodeCol])
				}
			}
		}
	}

	if len(gotUpd) != len(want.updated) {
		t.Errorf("%s: UPDATE events = %v, want %v", label, keys(gotUpd), keysP(want.updated))
	}
	for k, w := range want.updated {
		g, ok := gotUpd[k]
		if !ok {
			t.Errorf("%s: missing UPDATE for %q", label, k)
			continue
		}
		if g[0] != w[0] {
			t.Errorf("%s: OLD_NODE(%q) = %s, want %s", label, k, g[0], w[0])
		}
		if g[1] != w[1] {
			t.Errorf("%s: NEW_NODE(%q) = %s, want %s", label, k, g[1], w[1])
		}
	}
	if fmt.Sprint(gotIns) != fmt.Sprint(want.inserted) {
		t.Errorf("%s: INSERT events = %v, want %v", label, gotIns, want.inserted)
	}
	if fmt.Sprint(gotDel) != fmt.Sprint(want.deleted) {
		t.Errorf("%s: DELETE events = %v, want %v", label, gotDel, want.deleted)
	}
}

func keys(m map[string][2]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func keysP(m map[string][2]string) []string { return keys(m) }

// TestNestedPredicateInsert reproduces the Section 4.1 example: inserting
// vendor (Amazon, P2, 500) updates the "LCD 19" product. The naive
// delta-substitution approach misses this because count(Δ)=1 < 2; our
// CreateAKGraph joins back with the full table and must catch it.
func TestNestedPredicateInsert(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, db, "vendor", "§4.1 insert", func() error {
		return db.Insert("vendor", reldb.Row{xdm.Str("Amazon"), xdm.Str("P2"), xdm.Float(500)})
	})
}

// TestAffectedKeysDirect checks the raw CreateAKGraph output for the §4.1
// insert: exactly {"LCD 19"}.
func TestAffectedKeysDirect(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	v := fixtures.BuildCatalogView(db.Schema(), 2)
	g := xqgm.Clone(v.ProductProj)
	xqgm.DeriveKeys(g)
	ak, kcols, err := CreateAKGraph(db.Schema(), g, "vendor", xqgm.SrcDelta)
	if err != nil {
		t.Fatal(err)
	}
	if ak == nil {
		t.Fatal("nil AK graph")
	}
	if len(kcols) != 1 {
		t.Fatalf("key cols = %v, want one (pname)", kcols)
	}
	deltas := captureStatement(t, db, "vendor", func() error {
		return db.Insert("vendor", reldb.Row{xdm.Str("Amazon"), xdm.Str("P2"), xdm.Float(500)})
	})
	ctx := xqgm.NewEvalContext(db, deltas)
	rows, err := ctx.Eval(ak)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsString() != "LCD 19" {
		t.Errorf("affected keys = %v, want [LCD 19]", rows)
	}
}

// TestPaperPriceUpdate reproduces the Section 2.3 example: Amazon's P1
// price drops to 75, updating the "CRT 15" product node.
func TestPaperPriceUpdate(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, db, "vendor", "price drop", func() error {
		_, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(75)
			return r
		})
		return err
	})
}

// TestViewInsertAndDeleteEvents drives count crossings in both directions:
// P4 gains a second vendor (XML INSERT) then loses it (XML DELETE).
func TestViewInsertAndDeleteEvents(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("product", reldb.Row{xdm.Str("P4"), xdm.Str("OLED 27"), xdm.Str("LG")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("vendor", reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(900)}); err != nil {
		t.Fatal(err)
	}
	// count 1 -> 2: OLED 27 appears in the view.
	checkAgainstOracle(t, db, "vendor", "insert crossing", func() error {
		return db.Insert("vendor", reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P4"), xdm.Float(950)})
	})
	// count 2 -> 1: OLED 27 disappears.
	checkAgainstOracle(t, db, "vendor", "delete crossing", func() error {
		_, err := db.DeleteByPK("vendor", xdm.Str("Bestbuy"), xdm.Str("P4"))
		return err
	})
}

// buildCountView constructs a catalog-like path graph whose only aggregates
// are count(*) and sum: <product name={pname} cnt={count} total={sum}/> for
// products with at least minVendors vendors; node in column 0, pname in 1.
func buildCountView(s *schema.Schema, minVendors int64) *xqgm.Operator {
	prodDef, _ := s.Table("product")
	vendDef, _ := s.Table("vendor")
	prod := xqgm.NewTable(prodDef, xqgm.SrcBase)
	vend := xqgm.NewTable(vendDef, xqgm.SrcBase)
	join := xqgm.NewJoin(xqgm.JoinInner, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil)
	g := xqgm.NewGroupBy(join, []int{1},
		xqgm.Agg{Name: "cnt", Func: xqgm.AggCount},
		xqgm.Agg{Name: "total", Func: xqgm.AggSum, Arg: xqgm.Col(5)},
	)
	sel := xqgm.NewSelect(g, &xqgm.Cmp{Op: ">=", L: xqgm.Col(1), R: xqgm.LitOf(xdm.Int(minVendors))})
	elem := &xqgm.ElemCtor{Name: "product", Attrs: []xqgm.AttrSpec{
		{Name: "name", E: xqgm.Col(0)},
		{Name: "cnt", E: xqgm.Col(1)},
		{Name: "total", E: xqgm.Col(2)},
	}}
	top := xqgm.NewProject(sel,
		xqgm.Proj{Name: "product", E: elem},
		xqgm.Proj{Name: "pname", E: xqgm.Col(0)},
	)
	xqgm.DeriveKeys(top)
	return top
}

// TestOldCountCrossingWithAggOpt: a view whose only aggregates are count(*)
// and sum decides a count crossing on the exact old count alone, with
// product.pname indexed so the group-key probe runs through the index. P4
// gains a second vendor (XML INSERT of OLED 27, no OLD node) then loses it
// (XML DELETE, no NEW node). The name is kept from when the case also ran
// under the old-aggregate rewrite; it now checks the plain graph.
func TestOldCountCrossingWithAggOpt(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	if err := db.CreateIndex("product", "pname"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("product", reldb.Row{xdm.Str("P4"), xdm.Str("OLED 27"), xdm.Str("LG")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("vendor", reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(900)}); err != nil {
		t.Fatal(err)
	}
	eval := func(ev reldb.Event, fn func() error) []Pair {
		t.Helper()
		an, err := CreateANGraph(s, ev, buildCountView(s, 2), "vendor", Options{Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := an.Eval(db, captureStatement(t, db, "vendor", fn))
		if err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	pairs := eval(reldb.EvInsert, func() error {
		return db.Insert("vendor", reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P4"), xdm.Float(950)})
	})
	if len(pairs) != 1 || pairs[0].New[1].AsString() != "OLED 27" || !pairs[0].Old[0].IsNull() {
		t.Errorf("INSERT pairs = %v, want OLED 27 alone (count 1 -> 2)", pairs)
	}
	pairs = eval(reldb.EvDelete, func() error {
		_, err := db.DeleteByPK("vendor", xdm.Str("Bestbuy"), xdm.Str("P4"))
		return err
	})
	if len(pairs) != 1 || pairs[0].Old[1].AsString() != "OLED 27" || !pairs[0].New[0].IsNull() {
		t.Errorf("DELETE pairs = %v, want OLED 27 alone (count 2 -> 1)", pairs)
	}
}

// TestProductRename: updating pname moves vendors between groups, which can
// insert one node, delete another, or update both.
func TestProductRename(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	// Rename P3 from "CRT 15" to "LCD 19": CRT 15 loses two vendors (down
	// to 3, still in view => UPDATE) and LCD 19 gains two (UPDATE).
	checkAgainstOracle(t, db, "product", "rename P3", func() error {
		_, err := db.UpdateByPK("product", []xdm.Value{xdm.Str("P3")}, func(r reldb.Row) reldb.Row {
			r[1] = xdm.Str("LCD 19")
			return r
		})
		return err
	})
}

// TestNoOpUpdateProducesNoEvents: a SET price = price statement yields full
// transition tables but empty pruned ones; no trigger events must fire.
func TestNoOpUpdateProducesNoEvents(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, db, "vendor", "no-op update", func() error {
		_, err := db.Update("vendor", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row { return r })
		return err
	})
}

// TestMultiRowStatement: one statement touching many rows fires one set of
// events covering all affected nodes.
func TestMultiRowStatement(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, db, "vendor", "global price hike", func() error {
		_, err := db.Update("vendor", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
			nv, _ := xdm.Arith("*", r[2], xdm.Float(1.1))
			r[2] = nv
			return r
		})
		return err
	})
}

// TestRandomizedOracle drives random statements and commits through the
// pipeline and checks every one against the recompute oracle (Theorem 2 in
// anger) — and, for every delta, the OLD side of each graph evaluated as an
// edit of the NEW side against the same operator evaluated alone.
func TestRandomizedOracle(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			db, err := fixtures.OpenPaperDB()
			if err != nil {
				t.Fatal(err)
			}
			// The index the engine builds for the affected-key join back
			// into product; without it that join hashes, and a hash join
			// takes nothing from its twin.
			if err := db.CreateIndex("product", "pname"); err != nil {
				t.Fatal(err)
			}
			names := []string{"CRT 15", "LCD 19", "OLED 27", "Plasma 42"}
			vids := []string{"Amazon", "Bestbuy", "Buy.com", "Circuitcity", "Newegg", "Walmart"}
			pids := []string{"P1", "P2", "P3"}
			nextP := 4
			freeVendor := func(pid string) (string, bool) {
				for _, i := range r.Perm(len(vids)) {
					if _, taken, _ := db.GetByPK("vendor", xdm.Str(vids[i]), xdm.Str(pid)); !taken {
						return vids[i], true
					}
				}
				return "", false
			}
			reusedBefore := rowsReused
			for step := 0; step < 60; step++ {
				switch r.Intn(11) {
				case 0: // insert product
					pid := fmt.Sprintf("P%d", nextP)
					nextP++
					pids = append(pids, pid)
					name := names[r.Intn(len(names))]
					checkAgainstOracle(t, db, "product", "rand insert product", func() error {
						return db.Insert("product", reldb.Row{xdm.Str(pid), xdm.Str(name), xdm.Str("m")})
					})
				case 1: // insert vendor (may collide; ignore errors by pre-check)
					vid := vids[r.Intn(len(vids))]
					pid := pids[r.Intn(len(pids))]
					if _, ok, _ := db.GetByPK("vendor", xdm.Str(vid), xdm.Str(pid)); ok {
						continue
					}
					price := float64(50 + r.Intn(300))
					checkAgainstOracle(t, db, "vendor", "rand insert vendor", func() error {
						return db.Insert("vendor", reldb.Row{xdm.Str(vid), xdm.Str(pid), xdm.Float(price)})
					})
				case 2: // update vendor price
					pid := pids[r.Intn(len(pids))]
					price := float64(50 + r.Intn(300))
					checkAgainstOracle(t, db, "vendor", "rand price update", func() error {
						_, err := db.Update("vendor",
							func(row reldb.Row) bool { return row[1].AsString() == pid },
							func(row reldb.Row) reldb.Row { row[2] = xdm.Float(price); return row })
						return err
					})
				case 3: // delete a vendor
					vid := vids[r.Intn(len(vids))]
					checkAgainstOracle(t, db, "vendor", "rand delete vendor", func() error {
						_, err := db.Delete("vendor", func(row reldb.Row) bool { return row[0].AsString() == vid })
						return err
					})
				case 4: // rename product
					pid := pids[r.Intn(len(pids))]
					name := names[r.Intn(len(names))]
					checkAgainstOracle(t, db, "product", "rand rename", func() error {
						_, err := db.Update("product",
							func(row reldb.Row) bool { return row[0].AsString() == pid },
							func(row reldb.Row) reldb.Row { row[1] = xdm.Str(name); return row })
						return err
					})
				case 5: // no-op vendor update
					checkAgainstOracle(t, db, "vendor", "rand noop", func() error {
						_, err := db.Update("vendor", func(reldb.Row) bool { return true },
							func(row reldb.Row) reldb.Row { return row })
						return err
					})
				case 6: // move one vendor offer (a leaf) to another product (parent)
					rows := db.AllRows("vendor")
					if len(rows) == 0 {
						continue
					}
					row := rows[r.Intn(len(rows))]
					vid, from, to := row[0].AsString(), row[1].AsString(), pids[r.Intn(len(pids))]
					if _, taken, _ := db.GetByPK("vendor", xdm.Str(vid), xdm.Str(to)); taken || to == from {
						continue
					}
					checkAgainstOracle(t, db, "vendor", "rand move vendor", func() error {
						_, err := db.Update("vendor",
							func(row reldb.Row) bool { return row[0].AsString() == vid && row[1].AsString() == from },
							func(row reldb.Row) reldb.Row { row[1] = xdm.Str(to); return row })
						return err
					})
				case 7: // delete every vendor of one product: the count(...) >= 2 predicate may flip
					pid := pids[r.Intn(len(pids))]
					checkAgainstOracle(t, db, "vendor", "rand delete group", func() error {
						_, err := db.Delete("vendor", func(row reldb.Row) bool { return row[1].AsString() == pid })
						return err
					})
				case 8: // one commit: a vendor joins a product and another one leaves it
					pid := pids[r.Intn(len(pids))]
					vid, ok := freeVendor(pid)
					if !ok {
						continue
					}
					price := float64(50 + r.Intn(300))
					checkCommitAgainstOracle(t, db, "rand insert+delete under one parent", func(tx *reldb.Tx) error {
						if err := tx.Insert("vendor", reldb.Row{xdm.Str(vid), xdm.Str(pid), xdm.Float(price)}); err != nil {
							return err
						}
						gone := false // the first other vendor of the product
						_, err := tx.Delete("vendor", func(row reldb.Row) bool {
							if gone || row[1].AsString() != pid || row[0].AsString() == vid {
								return false
							}
							gone = true
							return true
						})
						return err
					})
				case 9: // one commit over both tables: a rename, a price change, a new offer
					pid, other := pids[r.Intn(len(pids))], pids[r.Intn(len(pids))]
					name := names[r.Intn(len(names))]
					price := float64(50 + r.Intn(300))
					vid, ok := freeVendor(other)
					checkCommitAgainstOracle(t, db, "rand product+vendor commit", func(tx *reldb.Tx) error {
						if _, err := tx.UpdateByPK("product", []xdm.Value{xdm.Str(pid)}, func(row reldb.Row) reldb.Row {
							row[1] = xdm.Str(name)
							return row
						}); err != nil {
							return err
						}
						if _, err := tx.Update("vendor",
							func(row reldb.Row) bool { return row[1].AsString() == other },
							func(row reldb.Row) reldb.Row { row[2] = xdm.Float(price); return row }); err != nil {
							return err
						}
						if !ok {
							return nil
						}
						return tx.Insert("vendor", reldb.Row{xdm.Str(vid), xdm.Str(other), xdm.Float(price + 1)})
					})
				case 10: // one commit: a product, its first two vendors, and an update that nets out
					pid := fmt.Sprintf("P%d", nextP)
					nextP++
					pids = append(pids, pid)
					name := names[r.Intn(len(names))]
					checkCommitAgainstOracle(t, db, "rand new product with vendors", func(tx *reldb.Tx) error {
						if err := tx.Insert("product", reldb.Row{xdm.Str(pid), xdm.Str(name), xdm.Str("m")}); err != nil {
							return err
						}
						if err := tx.Insert("vendor",
							reldb.Row{xdm.Str(vids[0]), xdm.Str(pid), xdm.Float(100)},
							reldb.Row{xdm.Str(vids[1]), xdm.Str(pid), xdm.Float(110)}); err != nil {
							return err
						}
						for _, price := range []float64{120, 100} { // and back: nothing changed
							if _, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str(vids[0]), xdm.Str(pid)}, func(row reldb.Row) reldb.Row {
								row[2] = xdm.Float(price)
								return row
							}); err != nil {
								return err
							}
						}
						return nil
					})
				}
			}
			if rowsReused == reusedBefore {
				t.Error("no OLD side took a single row from its NEW side: the comparison checked nothing")
			}
		})
	}
}

// A view may nest a table that has no primary key — here product reviews,
// duplicates and all — as long as the trigger's own table has one. B_old of
// the keyless table is a bag, rebuilt by a scan that subtracts Δ with
// multiplicity, so the OLD side takes nothing from the NEW side there and
// gives the same answer; the product rows beside it are still shared.
func TestKeylessSideTable(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{Name: "product", PrimaryKey: []string{"pid"}, Columns: []schema.Column{
		{Name: "pid", Type: schema.TString}, {Name: "pname", Type: schema.TString}}})
	s.MustAddTable(&schema.Table{Name: "review", Columns: []schema.Column{
		{Name: "pid", Type: schema.TString}, {Name: "stars", Type: schema.TInt}}})
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	row := func(vs ...any) reldb.Row {
		r := make(reldb.Row, len(vs))
		for i, v := range vs {
			switch v := v.(type) {
			case string:
				r[i] = xdm.Str(v)
			case int:
				r[i] = xdm.Int(int64(v))
			}
		}
		return r
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("product", row("P1", "CRT 15"), row("P2", "LCD 19"), row("P3", "OLED 27")))
	must(db.Insert("review", row("P1", 5), row("P1", 5), row("P1", 3), row("P2", 4), row("P3", 1)))

	pdef, _ := s.Table("product")
	rdef, _ := s.Table("review")
	reviews := xqgm.NewGroupBy(xqgm.NewTable(rdef, xqgm.SrcBase), []int{0},
		xqgm.Agg{Name: "rs", Func: xqgm.AggXMLFrag, Arg: &xqgm.ElemCtor{Name: "r", Children: []xqgm.Expr{xqgm.Col(1)}}})
	join := xqgm.NewJoin(xqgm.JoinLeftOuter, xqgm.NewTable(pdef, xqgm.SrcBase), reviews, []xqgm.JoinEq{{L: 0, R: 0}}, nil)
	view := xqgm.NewProject(join, // pid, pname | pid, rs
		xqgm.Proj{Name: "p", E: &xqgm.ElemCtor{Name: "p",
			Attrs: []xqgm.AttrSpec{{Name: "name", E: xqgm.Col(1)}}, Children: []xqgm.Expr{xqgm.Col(3)}}},
		xqgm.Proj{Name: "pid", E: xqgm.Col(0)})
	snapshot := func() map[string]string {
		rows, err := xqgm.NewEvalContext(db, nil).Eval(view)
		must(err)
		out := map[string]string{}
		for _, r := range rows {
			out[r[1].AsString()] = r[0].AsNode().Serialize(false)
		}
		return out
	}

	// One commit: P1 and P2 are renamed, and P1 loses one of its two 5-star
	// reviews and gains a 2-star one.
	before := snapshot()
	deltas := map[string]*xqgm.Transition{
		"product": {
			Inserted: []reldb.Row{row("P1", "CRT 17"), row("P2", "LCD 21")},
			Deleted:  []reldb.Row{row("P1", "CRT 15"), row("P2", "LCD 19")},
		},
		"review": {
			Inserted: []reldb.Row{row("P1", 2)},
			Deleted:  []reldb.Row{row("P1", 5)},
		},
	}
	for _, r := range deltas["product"].Inserted {
		name := r[1]
		_, err := db.UpdateByPK("product", []xdm.Value{r[0]}, func(r reldb.Row) reldb.Row { r[1] = name; return r })
		must(err)
	}
	gone := false
	_, err = db.Delete("review", func(r reldb.Row) bool {
		if gone || r[0].AsString() != "P1" || r[1].AsInt() != 5 {
			return false
		}
		gone = true
		return true
	})
	must(err)
	must(db.Insert("review", deltas["review"].Inserted...))
	want := diffSnapshots(before, snapshot())
	if len(want.updated) != 2 {
		t.Fatalf("oracle: %d updated products, want P1 and P2", len(want.updated))
	}

	reusedBefore := rowsReused
	g, err := CreateANGraph(s, reldb.EvUpdate, view, "product", Options{Prune: true, CompareCols: []int{0}})
	must(err)
	checkOldSide(t, db, "keyless side table", g, deltas)
	if rowsReused != reusedBefore {
		t.Errorf("the OLD side took %d rows from the NEW side; every product row changed and review has no key", rowsReused-reusedBefore)
	}
	pairs, err := g.Eval(db, deltas)
	must(err)
	if len(pairs) != 2 {
		t.Fatalf("UPDATE pairs = %d, want 2", len(pairs))
	}
	for _, p := range pairs {
		w := want.updated[p.New[1].AsString()]
		if o, n := p.Old[0].AsNode().Serialize(false), p.New[0].AsNode().Serialize(false); o != w[0] || n != w[1] {
			t.Errorf("%s: OLD %s NEW %s, want %s and %s", p.New[1].AsString(), o, n, w[0], w[1])
		}
	}
}

// buildMinPriceView constructs the Figure 21 view: products with their
// minimum price. Returns (path graph top, node col, name col, min col).
func buildMinPriceView(s *schema.Schema) (*xqgm.Operator, int, int, int) {
	prodDef, _ := s.Table("product")
	vendDef, _ := s.Table("vendor")
	prod := xqgm.NewTable(prodDef, xqgm.SrcBase)
	vend := xqgm.NewTable(vendDef, xqgm.SrcBase)
	join := xqgm.NewJoin(xqgm.JoinInner, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil)
	g := xqgm.NewGroupBy(join, []int{1},
		xqgm.Agg{Name: "minprice", Func: xqgm.AggMin, Arg: xqgm.Col(5)})
	elem := &xqgm.ElemCtor{
		Name:  "product",
		Attrs: []xqgm.AttrSpec{{Name: "name", E: xqgm.Col(0)}},
		Children: []xqgm.Expr{
			&xqgm.ElemCtor{Name: "min", Children: []xqgm.Expr{xqgm.Col(1)}},
		},
	}
	top := xqgm.NewProject(g,
		xqgm.Proj{Name: "product", E: elem},
		xqgm.Proj{Name: "pname", E: xqgm.Col(0)},
		xqgm.Proj{Name: "minprice", E: xqgm.Col(1)},
	)
	xqgm.DeriveKeys(top)
	return top, 0, 1, 2
}

// TestSpuriousUpdateSuppression reproduces Appendix E.1: a price update
// that does not change the minimum must not produce an UPDATE event — but
// only because of the final value comparison (or its F.4 aggregate-column
// pushdown). Without either, a spurious update appears.
func TestSpuriousUpdateSuppression(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	run := func(opts Options) []Pair {
		g, _, _, _ := buildMinPriceView(s)
		an, err := CreateANGraph(s, reldb.EvUpdate, g, "vendor", opts)
		if err != nil {
			t.Fatal(err)
		}
		// Amazon P1: 100 -> 75. P1 is "CRT 15" whose min over P1+P3 vendors
		// is 100? vendors for CRT 15: P1(100,120,150), P3(120,140): min 100.
		// So dropping Amazon to 75 DOES change min. Use Bestbuy P1 120->110
		// instead: min stays 100.
		deltas := map[string]*xqgm.Transition{"vendor": {
			Inserted: []reldb.Row{{xdm.Str("Bestbuy"), xdm.Str("P1"), xdm.Float(110)}},
			Deleted:  []reldb.Row{{xdm.Str("Bestbuy"), xdm.Str("P1"), xdm.Float(120)}},
		}}
		// Apply the actual update to keep DB state consistent with deltas.
		if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Bestbuy"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(110)
			return r
		}); err != nil {
			t.Fatal(err)
		}
		pairs, err := an.Eval(db, deltas)
		if err != nil {
			t.Fatal(err)
		}
		// Restore.
		if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Bestbuy"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(120)
			return r
		}); err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	// Default: full node comparison suppresses the spurious update.
	if pairs := run(Options{Prune: true}); len(pairs) != 0 {
		t.Errorf("node-compare: spurious updates = %d, want 0", len(pairs))
	}
	// F.4: comparing just the aggregate column also suppresses it.
	if pairs := run(Options{Prune: true, CompareCols: []int{2}}); len(pairs) != 0 {
		t.Errorf("agg-compare: spurious updates = %d, want 0", len(pairs))
	}
	// Without any comparison the spurious update appears (the view is not
	// injective, so SkipValueCompare is unsound here — by design).
	if pairs := run(Options{Prune: true, SkipValueCompare: true}); len(pairs) != 1 {
		t.Errorf("no-compare: updates = %d, want 1 spurious", len(pairs))
	}
}

// TestInjectiveAnalysis checks InjectiveFor against F.2.
func TestInjectiveAnalysis(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	v := fixtures.BuildCatalogView(s, 2)
	// The catalog view embeds all vendor columns (pid, vid, price) in the
	// vendor element: injective w.r.t. vendor.
	if !InjectiveFor(v.ProductProj, "vendor") {
		t.Error("catalog view should be injective w.r.t. vendor")
	}
	// It drops product.mfr: not injective w.r.t. product.
	if InjectiveFor(v.ProductProj, "product") {
		t.Error("catalog view should NOT be injective w.r.t. product (mfr dropped)")
	}
	// The min-price view aggregates price with min: not injective w.r.t.
	// vendor.
	mp, _, _, _ := buildMinPriceView(s)
	if InjectiveFor(mp, "vendor") {
		t.Error("min-price view should NOT be injective w.r.t. vendor")
	}
}

// TestInjectiveFastPath: for an injective view with pruned transition
// tables, SkipValueCompare is sound (Theorem 3): no-op updates produce no
// events, real updates still do.
func TestInjectiveFastPath(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	// Injective product view: every product column embedded in the node.
	prodDef, _ := s.Table("product")
	prod := xqgm.NewTable(prodDef, xqgm.SrcBase)
	elem := &xqgm.ElemCtor{Name: "product", Attrs: []xqgm.AttrSpec{
		{Name: "pid", E: xqgm.Col(0)},
		{Name: "name", E: xqgm.Col(1)},
		{Name: "mfr", E: xqgm.Col(2)},
	}}
	top := xqgm.NewProject(prod,
		xqgm.Proj{Name: "product", E: elem},
		xqgm.Proj{Name: "pid", E: xqgm.Col(0)},
	)
	xqgm.DeriveKeys(top)
	if !InjectiveFor(top, "product") {
		t.Fatal("fully-embedding view should be injective")
	}
	an, err := CreateANGraph(s, reldb.EvUpdate, top, "product", Options{Prune: true, SkipValueCompare: true})
	if err != nil {
		t.Fatal(err)
	}
	// No-op statement: pruned tables empty, no events.
	deltas := captureStatement(t, db, "product", func() error {
		_, err := db.Update("product", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row { return r })
		return err
	})
	pairs, err := an.Eval(db, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("no-op update: %d events, want 0 (injective fast path)", len(pairs))
	}
	// Real update: exactly one event.
	deltas = captureStatement(t, db, "product", func() error {
		_, err := db.UpdateByPK("product", []xdm.Value{xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Str("Sony")
			return r
		})
		return err
	})
	pairs, err = an.Eval(db, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("mfr update: %d events, want 1", len(pairs))
	}
	oldN, newN := pairs[0].Old[0].AsNode(), pairs[0].New[0].AsNode()
	if m, _ := oldN.Attribute("mfr"); m != "Samsung" {
		t.Errorf("old mfr = %q", m)
	}
	if m, _ := newN.Attribute("mfr"); m != "Sony" {
		t.Errorf("new mfr = %q", m)
	}
}

// TestErrorPaths covers validation errors.
func TestErrorPaths(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	v := fixtures.BuildCatalogView(s, 2)
	// Table not in the graph.
	if _, err := CreateANGraph(s, reldb.EvUpdate, v.ProductProj, "nosuch", Options{}); err == nil {
		t.Error("expected error for unknown table")
	}
	// Keyless table.
	s2 := schema.New()
	s2.MustAddTable(&schema.Table{Name: "nokey", Columns: []schema.Column{{Name: "a", Type: schema.TInt}}})
	def, _ := s2.Table("nokey")
	g := xqgm.NewTable(def, xqgm.SrcBase)
	xqgm.DeriveKeys(g)
	if _, _, err := CreateAKGraph(s2, g, "nokey", xqgm.SrcDelta); err == nil {
		t.Error("expected error for keyless table")
	}
	// Unnest in the path graph.
	pdef, _ := s.Table("product")
	pt := xqgm.NewTable(pdef, xqgm.SrcBase)
	gb := xqgm.NewGroupBy(pt, []int{1}, xqgm.Agg{Name: "x", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(0)})
	un := xqgm.NewUnnest(gb, 1)
	if _, _, err := CreateAKGraph(s, un, "product", xqgm.SrcDelta); err == nil {
		t.Error("expected error for Unnest in path graph")
	}
}

// TestUnionViewAffectedKeys exercises the Union case of CreateAKGraph with
// a view that unions two selections of products.
func TestUnionViewAffectedKeys(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	pdef, _ := s.Table("product")
	p1 := xqgm.NewTable(pdef, xqgm.SrcBase)
	samsung := xqgm.NewSelect(p1, &xqgm.Cmp{Op: "=", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Str("Samsung"))})
	crt := xqgm.NewSelect(p1, &xqgm.Cmp{Op: "=", L: xqgm.Col(1), R: xqgm.LitOf(xdm.Str("CRT 15"))})
	u := xqgm.NewUnion(true, samsung, crt)
	xqgm.DeriveKeys(u)
	an, err := CreateANGraph(s, reldb.EvUpdate, u, "product", Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	// Update P1's mfr: P1 is in both branches (Samsung + CRT 15); changing
	// mfr to Sony removes it from the first branch but keeps it via CRT 15,
	// and its visible tuple changes.
	deltas := captureStatement(t, db, "product", func() error {
		_, err := db.UpdateByPK("product", []xdm.Value{xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Str("Sony")
			return r
		})
		return err
	})
	pairs, err := an.Eval(db, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("union view updates = %d, want 1", len(pairs))
	}
	if pairs[0].Old[2].AsString() != "Samsung" || pairs[0].New[2].AsString() != "Sony" {
		t.Errorf("pair = %v -> %v", pairs[0].Old, pairs[0].New)
	}
}

// TestBothJoinSidesAffected exercises the union-of-cross-products branch: a
// self-ish scenario where one statement's table appears on both sides of a
// join. We join vendor with vendor (same table twice) on pid to find
// co-vendors, then check affected keys after a price update.
func TestBothJoinSidesAffected(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	vdef, _ := s.Table("vendor")
	va := xqgm.NewTable(vdef, xqgm.SrcBase)
	vb := xqgm.NewTable(vdef, xqgm.SrcBase)
	join := xqgm.NewJoin(xqgm.JoinInner, va, vb, []xqgm.JoinEq{{L: 1, R: 1}}, nil)
	top := xqgm.NewProject(join,
		xqgm.Proj{Name: "a_vid", E: xqgm.Col(0)},
		xqgm.Proj{Name: "a_pid", E: xqgm.Col(1)},
		xqgm.Proj{Name: "b_vid", E: xqgm.Col(3)},
		xqgm.Proj{Name: "b_pid", E: xqgm.Col(4)},
		xqgm.Proj{Name: "pair", E: &xqgm.ElemCtor{Name: "pair", Attrs: []xqgm.AttrSpec{
			{Name: "a", E: xqgm.Col(0)},
			{Name: "b", E: xqgm.Col(3)},
			{Name: "pa", E: xqgm.Col(2)},
			{Name: "pb", E: xqgm.Col(5)},
		}}},
	)
	xqgm.DeriveKeys(top)
	if top.Key == nil {
		t.Fatal("self-join view must have a key")
	}
	an, err := CreateANGraph(s, reldb.EvUpdate, top, "vendor", Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	deltas := captureStatement(t, db, "vendor", func() error {
		_, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(75)
			return r
		})
		return err
	})
	pairs, err := an.Eval(db, deltas)
	if err != nil {
		t.Fatal(err)
	}
	// P1 has 3 vendors; pairs involving Amazon on either side change:
	// (Amazon, X) 3 + (X, Amazon) 3 - (Amazon, Amazon) counted twice = 5.
	if len(pairs) != 5 {
		t.Errorf("affected self-join pairs = %d, want 5", len(pairs))
	}
}
