package xqgm_test

import (
	"fmt"
	"strings"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// twinFixture builds the shape of an affected-node graph by hand: one
// subgraph — index join, Select, Project with an element constructor,
// GroupBy — once over the current vendor table and once over B_old, both
// restricted to the same four product keys, and a statement's transition
// tables that leave each product in a different state:
//
//	P1 gained a vendor           (the old group is a strict part of the new)
//	P2 lost a vendor             (the old group has a row of its own)
//	P3 had a vendor's price cut  (one row replaced; the new image fails the Select)
//	P4 untouched
//
// The OLD side is the left input of the root, so evaluation reaches it first.
func twinFixture(t *testing.T) (db *reldb.DB, root, oldSide *xqgm.Operator, deltas map[string]*xqgm.Transition) {
	t.Helper()
	db = paperDB(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("product", reldb.Row{xdm.Str("P4"), xdm.Str("OLED 27"), xdm.Str("LG")}))
	must(db.Insert("vendor",
		reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(300)},
		reldb.Row{xdm.Str("Walmart"), xdm.Str("P4"), xdm.Float(310)}))

	tr := &xqgm.Transition{
		Inserted: []reldb.Row{
			{xdm.Str("Newegg"), xdm.Str("P1"), xdm.Float(190)},
			{xdm.Str("Circuitcity"), xdm.Str("P3"), xdm.Float(99)},
		},
		Deleted: []reldb.Row{
			{xdm.Str("Bestbuy"), xdm.Str("P2"), xdm.Float(180)},
			{xdm.Str("Circuitcity"), xdm.Str("P3"), xdm.Float(140)},
		},
	}
	must(db.Insert("vendor", tr.Inserted[0]))
	_, err := db.DeleteByPK("vendor", xdm.Str("Bestbuy"), xdm.Str("P2"))
	must(err)
	_, err = db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Circuitcity"), xdm.Str("P3")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(99)
		return r
	})
	must(err)

	vdef, _ := db.Schema().Table("vendor")
	var keyRows []xqgm.Tuple
	for _, pid := range []string{"P1", "P2", "P3", "P4"} {
		keyRows = append(keyRows, xqgm.Tuple{xdm.Str(pid)})
	}
	keys := xqgm.NewConstants([]string{"pid"}, keyRows)
	side := func(src xqgm.TableSource) *xqgm.Operator {
		// pid | vid, pid, price
		join := xqgm.NewJoin(xqgm.JoinInner, keys, xqgm.NewTable(vdef, src), []xqgm.JoinEq{{L: 0, R: 1}}, nil)
		sel := xqgm.NewSelect(join, &xqgm.Cmp{Op: ">=", L: xqgm.Col(3), R: xqgm.LitOf(xdm.Float(100))})
		proj := xqgm.NewProject(sel,
			xqgm.Proj{Name: "pid", E: xqgm.Col(0)},
			xqgm.Proj{Name: "vid", E: xqgm.Col(1)},
			xqgm.Proj{Name: "v", E: &xqgm.ElemCtor{Name: "v",
				Attrs:    []xqgm.AttrSpec{{Name: "id", E: xqgm.Col(1)}},
				Children: []xqgm.Expr{xqgm.Col(3)}}})
		return xqgm.NewGroupBy(proj, []int{0},
			xqgm.Agg{Name: "n", Func: xqgm.AggCount},
			xqgm.Agg{Name: "vs", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(2)})
	}
	oldSide = side(xqgm.SrcOld)
	root = xqgm.NewJoin(xqgm.JoinLeftOuter, oldSide, side(xqgm.SrcBase), []xqgm.JoinEq{{L: 0, R: 0}}, nil)
	return db, root, oldSide, map[string]*xqgm.Transition{"vendor": tr}
}

func renderTuples(rows []xqgm.Tuple, width int) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r[:width])
	}
	return out
}

// The OLD side of a pair computes what it computes alone — a plan that holds
// no NEW side has no twins, so that evaluation is the reference — while
// taking from the NEW side every row the statement left alone.
func TestOldSideIsAnEditOfItsTwin(t *testing.T) {
	for _, prepared := range []bool{true, false} {
		db, root, oldSide, deltas := twinFixture(t)
		if prepared {
			if err := xqgm.Prepare(root); err != nil {
				t.Fatal(err)
			}
		}
		ctx := xqgm.NewEvalContext(db, deltas)
		rows, err := ctx.Eval(root)
		if err != nil {
			t.Fatal(err)
		}
		alone := xqgm.NewEvalContext(db, deltas)
		want, err := alone.Eval(oldSide)
		if err != nil {
			t.Fatal(err)
		}
		if alone.Stats.RowsReused != 0 {
			t.Fatalf("prepared=%t: the OLD side alone reused %d rows: it has no twin", prepared, alone.Stats.RowsReused)
		}
		if g, w := fmt.Sprint(renderTuples(rows, 3)), fmt.Sprint(renderTuples(want, 3)); g != w {
			t.Errorf("prepared=%t: OLD side beside its twin = %s\nalone = %s", prepared, g, w)
		}
		// Index join 7 (P1: 3, P2: 1, P3: 1, P4: 2; the ∇ rows of P2 and P3 are
		// probed), Select 7, Project 7, and of the groups only P4: P1's rows
		// all come from the twin's group, which has Newegg besides.
		if ctx.Stats.RowsReused != 22 {
			t.Errorf("prepared=%t: RowsReused = %d, want 22", prepared, ctx.Stats.RowsReused)
		}
		// pid, n, vs | pid, n, vs
		for _, r := range rows {
			oldVs, newVs := r[2].AsSeq(), r[5].AsSeq()
			switch pid := r[0].AsString(); pid {
			case "P1": // the three old vendors are the first three new ones
				if len(oldVs) != 3 || len(newVs) != 4 {
					t.Fatalf("P1: %d old, %d new vendors, want 3 and 4", len(oldVs), len(newVs))
				}
				for i := range oldVs {
					if oldVs[i].AsNode() != newVs[i].AsNode() {
						t.Errorf("prepared=%t: P1 vendor %d was built twice", prepared, i)
					}
				}
			case "P3": // Bestbuy shared; Circuitcity's old image only on the old side
				if len(oldVs) != 2 || len(newVs) != 1 || oldVs[0].AsNode() != newVs[0].AsNode() {
					t.Errorf("prepared=%t: P3 old %v new %v", prepared, oldVs, newVs)
				}
			case "P4": // the whole group is the twin's
				if &oldVs[0] != &newVs[0] {
					t.Errorf("prepared=%t: P4's unchanged group was aggregated twice", prepared)
				}
			}
		}
	}
}

// One context evaluates the roots of separately prepared plans one after
// another — a plan with twins, a smaller one, the first again, a larger one
// with more twins — and answers each as a fresh context does: the memo and
// trails of one plan never serve another. After Reset it reads the database
// afresh.
func TestContextEvaluatesSeveralPlans(t *testing.T) {
	db, twins, _, deltas := twinFixture(t)
	vdef, _ := db.Schema().Table("vendor")
	cheap := func(src xqgm.TableSource) *xqgm.Operator {
		return xqgm.NewSelect(xqgm.NewTable(vdef, src), &xqgm.Cmp{Op: "<", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Float(150))})
	}
	counts := func(src xqgm.TableSource) *xqgm.Operator {
		return xqgm.NewGroupBy(cheap(src), []int{1}, xqgm.Agg{Name: "n", Func: xqgm.AggCount})
	}
	on := []xqgm.JoinEq{{L: 0, R: 0}}
	small := cheap(xqgm.SrcOld)
	large := xqgm.NewJoin(xqgm.JoinInner, twins, xqgm.NewJoin(xqgm.JoinLeftOuter, counts(xqgm.SrcOld), counts(xqgm.SrcBase), on, nil), on, nil)
	for _, o := range []*xqgm.Operator{twins, small, large} {
		if err := xqgm.Prepare(o); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func(o *xqgm.Operator) string {
		ctx := xqgm.NewEvalContext(db, deltas)
		out, err := ctx.Eval(o)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(ctx.Stats.RowsReused, out)
	}
	shared := xqgm.NewEvalContext(db, deltas)
	for i, o := range []*xqgm.Operator{twins, small, twins, large, small} {
		reused := shared.Stats.RowsReused
		out, err := shared.Eval(o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(shared.Stats.RowsReused-reused, out), fresh(o); got != want {
			t.Errorf("evaluation %d in a shared context = %s\nfresh = %s", i, got, want)
		}
	}
	if shared.Stats.RowsReused == 0 {
		t.Fatal("nothing was reused: the plans have no twins")
	}

	// The same plan again is served from the memo until Reset.
	evalShared := func() string {
		out, err := shared.Eval(small)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(shared.Stats.RowsReused, out)
	}
	before := evalShared()
	if err := db.Insert("vendor", reldb.Row{xdm.Str("Dell"), xdm.Str("P4"), xdm.Float(120)}); err != nil {
		t.Fatal(err)
	}
	if after := evalShared(); after != before {
		t.Errorf("memoized result changed without Reset: %s, was %s", after, before)
	}
	shared.Reset()
	if shared.Stats != (xqgm.EvalStats{}) {
		t.Errorf("Reset left stats %+v", shared.Stats)
	}
	if got, want := evalShared(), fresh(small); got != want || !strings.Contains(got, "Dell") {
		t.Errorf("after Reset = %s, fresh = %s, want Dell's row in both", got, want)
	}
}

// Without a primary key B_old is a bag — Δ is subtracted with multiplicity
// by a scan — so nothing is taken from the twin, and the answer is the same.
func TestKeylessOldSideFallsThrough(t *testing.T) {
	db, _, _, _ := twinFixture(t)
	vdef, _ := db.Schema().Table("vendor")
	keyless := *vdef
	keyless.PrimaryKey = nil
	side := func(src xqgm.TableSource) *xqgm.Operator {
		proj := xqgm.NewProject(xqgm.NewTable(&keyless, src),
			xqgm.Proj{Name: "pid", E: xqgm.Col(1)},
			xqgm.Proj{Name: "v", E: &xqgm.ElemCtor{Name: "v", Children: []xqgm.Expr{xqgm.Col(2)}}})
		return xqgm.NewGroupBy(proj, []int{0}, xqgm.Agg{Name: "vs", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(1)})
	}
	// The same row twice in ∇ and once in Δ: two copies were there before,
	// one is there now.
	dup := reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(300)}
	deltas := map[string]*xqgm.Transition{"vendor": {
		Inserted: []reldb.Row{dup},
		Deleted:  []reldb.Row{dup, dup},
	}}
	oldSide := side(xqgm.SrcOld)
	root := xqgm.NewJoin(xqgm.JoinLeftOuter, oldSide, side(xqgm.SrcBase), []xqgm.JoinEq{{L: 0, R: 0}}, nil)
	ctx := xqgm.NewEvalContext(db, deltas)
	rows, err := ctx.Eval(root)
	if err != nil {
		t.Fatal(err)
	}
	want := evalRoot(t, db, oldSide, deltas)
	if g, w := fmt.Sprint(renderTuples(rows, 2)), fmt.Sprint(renderTuples(want, 2)); g != w {
		t.Errorf("keyless OLD side beside its twin = %s\nalone = %s", g, w)
	}
	if ctx.Stats.RowsReused != 0 {
		t.Errorf("RowsReused = %d over a keyless table, want 0", ctx.Stats.RowsReused)
	}
	for _, r := range rows {
		if r[0].AsString() == "P4" && (len(r[1].AsSeq()) != 3 || len(r[3].AsSeq()) != 2) {
			t.Errorf("P4: %d old and %d new vendors, want 3 (two copies of Amazon) and 2", len(r[1].AsSeq()), len(r[3].AsSeq()))
		}
	}
}
