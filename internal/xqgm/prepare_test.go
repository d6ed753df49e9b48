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

		// An aggregate nobody reads is not computed either: its argument's
		// constructor never runs, and the column stays NULL.
		built = 0
		ctor := &xqgm.ElemCtor{Name: "vendor", Children: []xqgm.Expr{countingExpr{&built}}}
		grouped := xqgm.NewGroupBy(xqgm.NewTable(vdef, xqgm.SrcBase), []int{1},
			xqgm.Agg{Name: "n", Func: xqgm.AggCount},
			xqgm.Agg{Name: "nodes", Func: xqgm.AggXMLFrag, Arg: ctor})
		projs = []xqgm.Proj{{Name: "pid", E: xqgm.Col(0)}, {Name: "n", E: xqgm.Col(1)}}
		if read {
			projs = append(projs, xqgm.Proj{Name: "nodes", E: xqgm.Col(2)})
		}
		out = evalRoot(t, db, xqgm.NewProject(grouped, projs...), nil)
		if len(out) != 3 || out[0][1].AsInt() != 3 {
			t.Fatalf("read=%t: groups = %v, want 3 with P1 counting 3", read, out)
		}
		if built != want {
			t.Errorf("read=%t: the aggregate's constructor ran %d times, want %d", read, built, want)
		}
	}
}

// The side of an anti join that comes out NULL is read for its join columns
// only, however many of the output's columns the consumer reads: the INSERT
// and DELETE affected-node graphs do not construct the nodes they discard.
func TestAntiJoinAbsentSideConstructsNoNode(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	for _, kind := range []xqgm.JoinKind{xqgm.JoinLeftAnti, xqgm.JoinRightAnti, xqgm.JoinInner} {
		var built [2]int
		side := func(i int, maxPrice float64) *xqgm.Operator {
			sel := xqgm.NewSelect(xqgm.NewTable(vdef, xqgm.SrcBase),
				&xqgm.Cmp{Op: "<", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Float(maxPrice))})
			return xqgm.NewProject(sel,
				xqgm.Proj{Name: "vid", E: xqgm.Col(0)},
				xqgm.Proj{Name: "pid", E: xqgm.Col(1)},
				xqgm.Proj{Name: "node", E: &xqgm.ElemCtor{Name: "vendor", Children: []xqgm.Expr{countingExpr{&built[i]}}}})
		}
		// Left: the 3 vendors under 125; right: the 5 under 160.
		join := xqgm.NewJoin(kind, side(0, 125), side(1, 160), []xqgm.JoinEq{{L: 0, R: 0}, {L: 1, R: 1}}, nil)
		out := evalRoot(t, db, join, nil)
		want := map[xqgm.JoinKind][3]int{ // rows, left nodes built, right nodes built
			xqgm.JoinLeftAnti:  {0, 3, 0},
			xqgm.JoinRightAnti: {2, 0, 5},
			xqgm.JoinInner:     {3, 3, 5},
		}[kind]
		if len(out) != want[0] || built[0] != want[1] || built[1] != want[2] {
			t.Errorf("%v: %d rows, %d left and %d right nodes built, want %v", kind, len(out), built[0], built[1], want)
		}
		for _, r := range out {
			if kind == xqgm.JoinRightAnti && (!r[2].IsNull() || r[5].AsNode() == nil) {
				t.Errorf("%v: row %v, want a NULL left side and a built right node", kind, r)
			}
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

// The same for a plan with twin pairs: what the OLD side takes from the NEW
// side, and the trails both leave for each other, live in the EvalContext —
// four goroutines evaluating one plan never meet. Run under -race.
func TestTwinPlanSharedAcrossGoroutines(t *testing.T) {
	for _, prepared := range []bool{true, false} {
		db, root, _, deltas := twinFixture(t)
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
					ctx := xqgm.NewEvalContext(db, deltas)
					out, err := ctx.Eval(root)
					if err != nil {
						last = err.Error()
						break
					}
					last = fmt.Sprint(ctx.Stats.RowsReused, out)
				}
				results <- last
			}()
		}
		ctx := xqgm.NewEvalContext(db, deltas)
		out, err := ctx.Eval(root)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.Stats.RowsReused == 0 {
			t.Fatal("the plan has no twins: nothing was reused")
		}
		want := fmt.Sprint(ctx.Stats.RowsReused, out)
		for w := 0; w < workers; w++ {
			if got := <-results; got != want {
				t.Errorf("prepared=%t: concurrent evaluation = %s, want %s", prepared, got, want)
			}
		}
	}
}
