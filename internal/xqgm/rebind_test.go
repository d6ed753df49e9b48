package xqgm_test

import (
	"fmt"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// One context rebound to statement A, then B, then A again — two owners'
// plans in each, so outputs are also kept and taken — answers every plan as
// a fresh context over that statement's transition tables does. B touches
// another product than A, so nothing A's evaluation built from its
// transition tables (Δ tuples, the Δ-key set that masks B_old, ∇ bucketed by
// product) may serve B.
func TestRebindAnswersAsFreshContexts(t *testing.T) {
	db, a, oldSide, stmtA := twinFixture(t)
	b := otherTop(a, oldSide)
	prepareAll(t, a, b)
	stmtB := map[string]*xqgm.Transition{"vendor": {
		Inserted: []reldb.Row{{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(300)}},
		Deleted:  []reldb.Row{{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(250)}},
	}}
	ctx := &xqgm.EvalContext{DB: db}
	for i, stmt := range []map[string]*xqgm.Transition{stmtA, stmtB, stmtA} {
		ctx.Rebind(stmt)
		for _, step := range []struct {
			owner string
			root  *xqgm.Operator
		}{{"a", a}, {"b", b}} {
			out, err := ctx.EvalFor(step.owner, step.root)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(out), fmt.Sprint(evalRoot(t, db, step.root, stmt)); got != want {
				t.Errorf("statement %d, plan %s after Rebind = %s\nfresh = %s", i, step.owner, got, want)
			}
		}
		if ctx.Stats.OpsShared == 0 || ctx.Stats.RowsReused == 0 {
			t.Errorf("statement %d: stats %+v, want b to take from a and the OLD sides to reuse their twins' rows", i, ctx.Stats)
		}
	}
	if ctx.KeptBytes() == 0 {
		t.Error("a rebound context keeps no memory for its outputs")
	}
}

// Rebind clears the cells of the outputs it forgets: a tuple EvalFor
// returned holds nothing once the next statement starts, so the nodes it
// held are garbage unless their consumer keeps them.
func TestRebindClearsOutputs(t *testing.T) {
	db, a, _, stmt := twinFixture(t)
	prepareAll(t, a)
	ctx := &xqgm.EvalContext{DB: db}
	ctx.Rebind(stmt)
	out, err := ctx.Eval(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || out[0][2].IsNull() {
		t.Fatalf("output %v, want vendor sequences", out)
	}
	first := out[0]
	ctx.Rebind(nil)
	for i, v := range first {
		if !v.IsNull() {
			t.Errorf("cell %d of a forgotten output still holds %s", i, v)
		}
	}
}
