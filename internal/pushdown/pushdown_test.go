package pushdown

import (
	"sort"
	"testing"

	"quark/internal/fixtures"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

func keysOp(vals ...string) *xqgm.Operator {
	rows := make([][]xqgm.Expr, len(vals))
	for i, v := range vals {
		rows[i] = []xqgm.Expr{xqgm.LitOf(xdm.Str(v))}
	}
	return xqgm.NewConstants([]string{"k"}, rows)
}

func evalSorted(t *testing.T, db *reldb.DB, op *xqgm.Operator) []string {
	t.Helper()
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		s := ""
		for i, v := range r {
			if i > 0 {
				s += "|"
			}
			s += v.Lexical()
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestPushEquivalence: for every shape, the pushed graph must produce the
// same rows as the unpushed semijoin.
func TestPushEquivalence(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	if err := db.CreateIndex("product", "pname"); err != nil {
		t.Fatal(err)
	}
	v := fixtures.BuildCatalogView(s, 2)
	keys := keysOp("CRT 15", "Nonexistent")

	// Reference: join at the top.
	ref := xqgm.NewJoin(xqgm.JoinInner, v.ProductProj, keys,
		[]xqgm.JoinEq{{L: v.ProdNameCol, R: 0}}, nil)
	refProj := xqgm.ProjectCols(ref, []int{0, 1, 2})
	want := evalSorted(t, db, refProj)

	pushed := PushSemiJoin(fixtures.BuildCatalogView(s, 2).ProductProj, keys, []int{1})
	got := evalSorted(t, db, pushed)
	if len(got) != len(want) {
		t.Fatalf("pushed rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: %q vs %q", i, got[i], want[i])
		}
	}
	// The aggregates must still be complete: CRT 15 keeps all 5 vendors
	// even though the semijoin restricted products.
	if len(got) != 1 {
		t.Fatalf("got %d rows", len(got))
	}
}

// TestPushReachesBaseTable: the semijoin must land on the product table
// (visible as a join against the Constants op below the GroupBy).
func TestPushReachesBaseTable(t *testing.T) {
	s := schema.ProductVendor()
	v := fixtures.BuildCatalogView(s, 2)
	keys := keysOp("CRT 15")
	pushed := PushSemiJoin(v.ProductProj, keys, []int{1})
	// Walk: there must be a Join whose right input is the Constants op and
	// whose left input is (a projection of) the product table.
	foundLow := false
	xqgm.Walk(pushed, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpJoin && len(o.Inputs) == 2 && o.Inputs[1] == keys {
			if o.Inputs[0].Type == xqgm.OpTable && o.Inputs[0].Table == "product" {
				foundLow = true
			}
		}
	})
	if !foundLow {
		t.Errorf("semijoin did not reach the product table:\n%s", pushed)
	}
	// The GroupBy in the pushed graph differs from the original (it was
	// rebuilt over the restricted input).
	var origGB, pushedGB *xqgm.Operator
	xqgm.Walk(v.ProductProj, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpGroupBy {
			origGB = o
		}
	})
	xqgm.Walk(pushed, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpGroupBy {
			pushedGB = o
		}
	})
	if origGB == pushedGB {
		t.Error("GroupBy was not rebuilt along the pushed path")
	}
}

// TestPushIndexAccess: with indexes present, evaluating the pushed graph
// performs no full scans of the large table.
func TestPushIndexAccess(t *testing.T) {
	s := schema.ProductVendor()
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("product", "pname"); err != nil {
		t.Fatal(err)
	}
	// 200 products x 8 vendors.
	var prows, vrows []reldb.Row
	for i := 0; i < 200; i++ {
		pid := xdm.Str(pidFor(i))
		prows = append(prows, reldb.Row{pid, xdm.Str(nameFor(i)), xdm.Str("m")})
		for j := 0; j < 8; j++ {
			vrows = append(vrows, reldb.Row{xdm.Int(int64(i*8 + j)), pid, xdm.Float(float64(50 + j))})
		}
	}
	s2 := schema.New()
	_ = s2
	if err := db.Insert("product", prows...); err != nil {
		t.Fatal(err)
	}
	// vendor vid is string in ProductVendor; rebuild rows with string vids.
	vrows = vrows[:0]
	for i := 0; i < 200; i++ {
		for j := 0; j < 8; j++ {
			vrows = append(vrows, reldb.Row{xdm.Str(vidFor(i, j)), xdm.Str(pidFor(i)), xdm.Float(float64(50 + j))})
		}
	}
	if err := db.Insert("vendor", vrows...); err != nil {
		t.Fatal(err)
	}
	v := fixtures.BuildCatalogView(s, 2)
	keys := keysOp(nameFor(42))
	pushed := PushSemiJoin(v.ProductProj, keys, []int{1})
	db.ResetStats()
	rows := evalSorted(t, db, pushed)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	st := db.Stats()
	if st.FullScans != 0 {
		t.Errorf("full scans = %d, want 0 (index-only access); stats %+v", st.FullScans, st)
	}
	if st.IndexLookups == 0 {
		t.Error("no index lookups recorded")
	}
	// Rows read should be tiny relative to the table sizes.
	if st.RowsRead > 64 {
		t.Errorf("rows read = %d, want far fewer than the 1800 stored", st.RowsRead)
	}
}

func pidFor(i int) string  { return "P" + itoa(i) }
func nameFor(i int) string { return "Product " + itoa(i) }
func vidFor(i, j int) string {
	return "V" + itoa(i) + "_" + itoa(j)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestPushCompositeKeyAcrossJoin: keys spanning both join sides are pushed
// as partial restrictions into each side.
func TestPushCompositeKeyAcrossJoin(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	pdef, _ := s.Table("product")
	vdef, _ := s.Table("vendor")
	prod := xqgm.NewTable(pdef, xqgm.SrcBase)
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	join := xqgm.NewJoin(xqgm.JoinInner, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil)
	xqgm.DeriveKeys(join)
	// Composite key: (p.pid, v.vid) spanning both sides.
	keys := xqgm.NewConstants([]string{"pid", "vid"}, [][]xqgm.Expr{
		{xqgm.LitOf(xdm.Str("P1")), xqgm.LitOf(xdm.Str("Amazon"))},
		{xqgm.LitOf(xdm.Str("P2")), xqgm.LitOf(xdm.Str("Bestbuy"))},
	})
	pushed := PushSemiJoin(join, keys, []int{0, 3})
	// A composite key spanning both sides is pushed as partial restrictions
	// whose join is a superset; the enclosing key join (as CreateANGraph
	// adds) re-filters exactly.
	enclosing := xqgm.NewJoin(xqgm.JoinInner, pushed, keys, []xqgm.JoinEq{{L: 0, R: 0}, {L: 3, R: 1}}, nil)
	idx0 := make([]int, join.OutWidth())
	for i := range idx0 {
		idx0[i] = i
	}
	got := evalSorted(t, db, xqgm.ProjectCols(enclosing, idx0))
	supersetRows := evalSorted(t, db, pushed)
	if len(supersetRows) < len(got) {
		t.Errorf("pushed superset (%d) smaller than filtered (%d)", len(supersetRows), len(got))
	}
	// Reference.
	ref := xqgm.NewJoin(xqgm.JoinInner, join, keys, []xqgm.JoinEq{{L: 0, R: 0}, {L: 3, R: 1}}, nil)
	idx := make([]int, join.OutWidth())
	for i := range idx {
		idx[i] = i
	}
	want := evalSorted(t, db, xqgm.ProjectCols(ref, idx))
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("got %d rows, want %d (=2)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestPushThroughUnion: restriction distributes into branches.
func TestPushThroughUnion(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema()
	pdef, _ := s.Table("product")
	p := xqgm.NewTable(pdef, xqgm.SrcBase)
	a := xqgm.NewSelect(p, &xqgm.Cmp{Op: "=", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Str("Samsung"))})
	b := xqgm.NewSelect(p, &xqgm.Cmp{Op: "=", L: xqgm.Col(1), R: xqgm.LitOf(xdm.Str("CRT 15"))})
	u := xqgm.NewUnion(true, a, b)
	keys := keysOp("P1", "P3")
	pushed := PushSemiJoin(u, keys, []int{0})
	got := evalSorted(t, db, pushed)
	if len(got) != 2 {
		t.Fatalf("rows = %d, want 2 (P1, P3)", len(got))
	}
}
