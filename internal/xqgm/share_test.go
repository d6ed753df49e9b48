package xqgm_test

import (
	"fmt"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// otherTop builds, over the two sides of twinFixture's root, a second root
// that shares everything below their GroupBys and aggregates differently on
// top: the OLD side's GroupBy is its own and pairs with the NEW side's.
func otherTop(root, oldSide *xqgm.Operator) *xqgm.Operator {
	top := func(proj *xqgm.Operator) *xqgm.Operator {
		return xqgm.NewGroupBy(proj, []int{0},
			xqgm.Agg{Name: "vs", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(2)},
			xqgm.Agg{Name: "last", Func: xqgm.AggMax, Arg: xqgm.Col(1)})
	}
	newProj := root.Inputs[1].Inputs[0]
	return xqgm.NewJoin(xqgm.JoinLeftOuter, top(oldSide.Inputs[0]), top(newProj), []xqgm.JoinEq{{L: 0, R: 0}}, nil)
}

func prepareAll(t *testing.T, roots ...*xqgm.Operator) {
	t.Helper()
	for _, o := range roots {
		if err := xqgm.Prepare(o); err != nil {
			t.Fatal(err)
		}
	}
}

// Two separately prepared plans that share a subgraph, evaluated A, B, A in
// one context for two owners, answer as fresh contexts do, and B takes what A
// computed. (A again finds its own outputs only: B took them rather than
// computing them.) For one owner the plans share nothing.
func TestPlansOfOtherOwnersShareOutputs(t *testing.T) {
	db, a, oldSide, deltas := twinFixture(t)
	b := otherTop(a, oldSide)
	prepareAll(t, a, b)
	fresh := func(o *xqgm.Operator) string {
		return fmt.Sprint(evalRoot(t, db, o, deltas))
	}
	shared := xqgm.NewEvalContext(db, deltas)
	for i, step := range []struct {
		owner string
		root  *xqgm.Operator
	}{{"a", a}, {"b", b}, {"a", a}} {
		shared.Stats = xqgm.EvalStats{}
		out, err := shared.EvalFor(step.owner, step.root)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(out), fresh(step.root); got != want {
			t.Errorf("evaluation %d for %s in a shared context = %s\nfresh = %s", i, step.owner, got, want)
		}
		if i == 1 && shared.Stats.OpsShared == 0 {
			t.Errorf("b took nothing from a")
		}
	}

	one := xqgm.NewEvalContext(db, deltas)
	for _, o := range []*xqgm.Operator{a, b} {
		if _, err := one.EvalFor("a", o); err != nil {
			t.Fatal(err)
		}
	}
	if one.Stats.OpsShared != 0 {
		t.Errorf("plans of one owner shared %d outputs", one.Stats.OpsShared)
	}
}

// An output whose Project left a column NULL cannot serve a plan that reads
// the column: the second plan evaluates the Project again and gets its
// elements, while still taking what lies below it.
func TestNarrowOutputDoesNotServeWiderDemand(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	inner := xqgm.NewProject(xqgm.NewSelect(xqgm.NewTable(vdef, xqgm.SrcBase),
		&xqgm.Cmp{Op: "<", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Float(190))}),
		xqgm.Proj{Name: "pid", E: xqgm.Col(1)},
		xqgm.Proj{Name: "v", E: &xqgm.ElemCtor{Name: "v", Children: []xqgm.Expr{xqgm.Col(1)}}})
	narrow := xqgm.NewProject(inner, xqgm.Proj{Name: "pid", E: xqgm.Col(0)})
	wide := xqgm.NewProject(inner, xqgm.Proj{Name: "pid", E: xqgm.Col(0)}, xqgm.Proj{Name: "v", E: xqgm.Col(1)})
	prepareAll(t, narrow, wide)

	ctx := xqgm.NewEvalContext(db, nil)
	if _, err := ctx.EvalFor("narrow", narrow); err != nil {
		t.Fatal(err)
	}
	ctx.Stats = xqgm.EvalStats{}
	out, err := ctx.EvalFor("wide", wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no vendor under 190")
	}
	for _, r := range out {
		if r[1].AsNode() == nil {
			t.Fatalf("row %v: the element column is NULL, taken from a plan that never built it", r)
		}
	}
	if got, want := fmt.Sprint(out), fmt.Sprint(evalRoot(t, db, wide, nil)); got != want {
		t.Errorf("wide after narrow = %s\nfresh = %s", got, want)
	}
	if ctx.Stats.OpsShared == 0 || ctx.Stats.NodesBuilt < len(out) {
		t.Errorf("stats %+v: want the Select taken and the %d elements built", ctx.Stats, len(out))
	}
}

// A later plan whose OLD side has an operator of its own still builds it as
// an edit of its twin: the operators below it that it took from the earlier
// plan bring the trails they left there.
func TestTakenOutputsBringTheirTrails(t *testing.T) {
	db, a, oldSide, deltas := twinFixture(t)
	b := otherTop(a, oldSide)
	prepareAll(t, a, b)
	ctx := xqgm.NewEvalContext(db, deltas)
	if _, err := ctx.EvalFor("a", a); err != nil {
		t.Fatal(err)
	}
	ctx.Stats = xqgm.EvalStats{}
	out, err := ctx.EvalFor("b", b)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.OpsShared == 0 {
		t.Fatal("b took nothing from a")
	}
	// P4's group is untouched: the OLD side's GroupBy takes it from its twin.
	if ctx.Stats.RowsReused == 0 {
		t.Errorf("RowsReused = 0 on b's OLD side: the taken Project came without its trail (stats %+v)", ctx.Stats)
	}
	if got, want := fmt.Sprint(out), fmt.Sprint(evalRoot(t, db, b, deltas)); got != want {
		t.Errorf("b after a = %s\nfresh = %s", got, want)
	}
}

// Reset drops what earlier plans computed: after a write, a later plan reads
// the database as it is.
func TestResetDropsKeptOutputs(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	cheap := xqgm.NewSelect(xqgm.NewTable(vdef, xqgm.SrcBase), &xqgm.Cmp{Op: "<", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Float(150))})
	a := xqgm.NewGroupBy(cheap, []int{1}, xqgm.Agg{Name: "n", Func: xqgm.AggCount})
	b := xqgm.NewProject(cheap, xqgm.Proj{Name: "vid", E: xqgm.Col(0)})
	prepareAll(t, a, b)
	ctx := xqgm.NewEvalContext(db, nil)
	if _, err := ctx.EvalFor("a", a); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("vendor", reldb.Row{xdm.Str("Dell"), xdm.Str("P3"), xdm.Float(120)}); err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	out, err := ctx.EvalFor("b", b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(out), fmt.Sprint(evalRoot(t, db, b, nil)); got != want || ctx.Stats.OpsShared != 0 {
		t.Errorf("after Reset = %s (%d shared), fresh = %s", got, ctx.Stats.OpsShared, want)
	}
}
