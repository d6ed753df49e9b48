package xqgm_test

import (
	"fmt"
	"sort"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// Two separately built but structurally identical subgraphs (the shape of
// the affected-node graphs' Joined_20/Projected_21 ≡ Joined_22/Projected_23)
// are one plan node: evaluated once, with or without an explicit Prepare.
func TestDuplicateSubgraphEvaluatedOnce(t *testing.T) {
	vdef, _ := paperDB(t).Schema().Table("vendor")
	perProduct := func() *xqgm.Operator {
		sel := xqgm.NewSelect(xqgm.NewTable(vdef, xqgm.SrcBase),
			&xqgm.Cmp{Op: "<", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Float(190))})
		return xqgm.NewGroupBy(sel, []int{1}, xqgm.Agg{Name: "n", Func: xqgm.AggCount})
	}
	for _, prepared := range []bool{false, true} {
		db := paperDB(t)
		u := xqgm.NewUnion(false, perProduct(), perProduct())
		if prepared {
			if err := xqgm.Prepare(u); err != nil {
				t.Fatal(err)
			}
		}
		ctx := xqgm.NewEvalContext(db, nil)
		out, err := ctx.Eval(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 6 {
			t.Errorf("prepared=%t: rows = %d, want 6 (3 products twice)", prepared, len(out))
		}
		// Table, Select, GroupBy once each, plus the Union.
		if ctx.Stats.OpsEvaluated != 4 {
			t.Errorf("prepared=%t: operators evaluated = %d, want 4", prepared, ctx.Stats.OpsEvaluated)
		}
		if fs := db.Stats().FullScans; fs != 1 {
			t.Errorf("prepared=%t: full scans = %d, want 1", prepared, fs)
		}
	}
	// A differing literal keeps the subgraphs apart.
	db := paperDB(t)
	a := perProduct()
	b := xqgm.NewGroupBy(xqgm.NewSelect(xqgm.NewTable(vdef, xqgm.SrcBase),
		&xqgm.Cmp{Op: "<", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Float(110))}),
		[]int{1}, xqgm.Agg{Name: "n", Func: xqgm.AggCount})
	ctx := xqgm.NewEvalContext(db, nil)
	out, err := ctx.Eval(xqgm.NewUnion(false, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || ctx.Stats.OpsEvaluated != 6 {
		t.Errorf("distinct subgraphs: rows = %d (want 4), operators evaluated = %d (want 6: one shared scan)", len(out), ctx.Stats.OpsEvaluated)
	}
}

// countingExpr counts its evaluations; the planner does not know the type,
// so it must assume it reads every input column.
type countingExpr struct{ n *int }

func (c countingExpr) Eval(*xqgm.Env) (xdm.Value, error) { *c.n++; return xdm.Str("x"), nil }
func (c countingExpr) String() string                    { return "counting()" }

// A projection column no consumer reads is left NULL: its element
// constructor never runs. The same column is built once somebody reads it.
func TestDeadProjectionConstructsNoNode(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	for _, read := range []bool{false, true} {
		built := 0
		inner := xqgm.NewProject(xqgm.NewTable(vdef, xqgm.SrcBase),
			xqgm.Proj{Name: "pid", E: xqgm.Col(1)},
			xqgm.Proj{Name: "node", E: &xqgm.ElemCtor{Name: "vendor",
				Attrs:    []xqgm.AttrSpec{{Name: "price", E: xqgm.Col(2)}},
				Children: []xqgm.Expr{countingExpr{&built}}}})
		projs := []xqgm.Proj{{Name: "pid", E: xqgm.Col(0)}}
		if read {
			projs = append(projs, xqgm.Proj{Name: "node", E: xqgm.Col(1)})
		}
		out := evalRoot(t, db, xqgm.NewProject(inner, projs...), nil)
		if len(out) != 7 {
			t.Fatalf("read=%t: rows = %d, want 7", read, len(out))
		}
		want := 0
		if read {
			want = 7
		}
		if built != want {
			t.Errorf("read=%t: element constructor ran %d times, want %d", read, built, want)
		}
		// The root's own columns are all live: evaluating inner directly
		// constructs the nodes.
		built = 0
		if rows := evalRoot(t, db, inner, nil); built != 7 || rows[0][1].AsNode() == nil {
			t.Errorf("read=%t: as a root the projection built %d nodes, want 7", read, built)
		}
	}
}

// An index probe into B_old must see exactly the rows evalOldTable's scan
// reconstructs, with Δ and ∇ both present: an updated row shows its old
// image, a deleted row is back, an inserted row is absent.
func TestOldTableProbeMatchesScan(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	tr := &xqgm.Transition{
		Inserted: []reldb.Row{
			{xdm.Str("Amazon"), xdm.Str("P1"), xdm.Float(75)}, // update, new image
			{xdm.Str("Newegg"), xdm.Str("P1"), xdm.Float(90)}, // insert
		},
		Deleted: []reldb.Row{
			{xdm.Str("Amazon"), xdm.Str("P1"), xdm.Float(100)},  // update, old image
			{xdm.Str("Bestbuy"), xdm.Str("P2"), xdm.Float(180)}, // delete
		},
	}
	if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(75)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("vendor", tr.Inserted[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteByPK("vendor", xdm.Str("Bestbuy"), xdm.Str("P2")); err != nil {
		t.Fatal(err)
	}
	deltas := map[string]*xqgm.Transition{"vendor": tr}

	render := func(rows []xqgm.Tuple, from int) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r[from:])
		}
		sort.Strings(out)
		return out
	}
	scanned := evalRoot(t, db, xqgm.NewTable(vdef, xqgm.SrcOld), deltas)
	if len(scanned) != 7 {
		t.Fatalf("B_old scan = %d rows, want the original 7", len(scanned))
	}
	for _, pid := range []string{"P1", "P2", "P3", "P9"} {
		var want []xqgm.Tuple
		for _, r := range scanned {
			if r[1].AsString() == pid {
				want = append(want, r)
			}
		}
		keys := xqgm.NewConstants([]string{"pid"}, [][]xqgm.Expr{{xqgm.LitOf(xdm.Str(pid))}})
		join := xqgm.NewJoin(xqgm.JoinInner, keys, xqgm.NewTable(vdef, xqgm.SrcOld), []xqgm.JoinEq{{L: 0, R: 1}}, nil)
		ctx := xqgm.NewEvalContext(db, deltas)
		got, err := ctx.Eval(join)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.Stats.IndexNLJoins != 1 {
			t.Fatalf("pid %s: B_old was not probed by index (stats %+v)", pid, ctx.Stats)
		}
		if g, w := render(got, 1), render(want, 0); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("pid %s: probed B_old = %v, scanned B_old = %v", pid, g, w)
		}
	}
}

// Operators are read-only once built: one graph — prepared, or planned per
// context on first Eval — is evaluated from several goroutines at once, the
// way concurrent EvalView calls and a firing share a view's operators. The
// graph goes through a Constants hash join, whose rows and build table the
// evaluator used to cache on the shared operator mid-evaluation. Run under
// -race.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	for _, prepared := range []bool{true, false} {
		watch := xqgm.NewConstants([]string{"pid", "who"}, [][]xqgm.Expr{
			{xqgm.LitOf(xdm.Str("P1")), xqgm.LitOf(xdm.Str("a"))},
			{xqgm.LitOf(xdm.Str("P1")), xqgm.LitOf(xdm.Str("b"))},
			{xqgm.LitOf(xdm.Str("P3")), xqgm.LitOf(xdm.Str("c"))},
		})
		counts := xqgm.NewGroupBy(xqgm.NewTable(vdef, xqgm.SrcBase), []int{1}, xqgm.Agg{Name: "n", Func: xqgm.AggCount})
		root := xqgm.NewJoin(xqgm.JoinLeftOuter, counts, watch, []xqgm.JoinEq{{L: 0, R: 0}}, nil)
		if prepared {
			if err := xqgm.Prepare(root); err != nil {
				t.Fatal(err)
			}
		}
		const workers = 4
		results := make(chan string, workers)
		for w := 0; w < workers; w++ {
			go func() {
				var last string
				for i := 0; i < 50; i++ {
					out, err := xqgm.NewEvalContext(db, nil).Eval(root)
					if err != nil {
						last = err.Error()
						break
					}
					last = fmt.Sprint(out)
				}
				results <- last
			}()
		}
		want := fmt.Sprint(evalRoot(t, db, root, nil))
		for w := 0; w < workers; w++ {
			if got := <-results; got != want {
				t.Errorf("prepared=%t: concurrent evaluation = %s, want %s", prepared, got, want)
			}
		}
	}
}
