package xqgm_test

import (
	"math"
	"strings"
	"testing"

	"quark/internal/fixtures"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

func paperDB(t *testing.T) *reldb.DB {
	t.Helper()
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func evalRoot(t *testing.T, db *reldb.DB, op *xqgm.Operator, deltas map[string]*xqgm.Transition) []xqgm.Tuple {
	t.Helper()
	ctx := xqgm.NewEvalContext(db, deltas)
	out, err := ctx.Eval(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCatalogViewMatchesFigure4 materializes the paper's catalog view and
// checks the structure of Figure 4.
func TestCatalogViewMatchesFigure4(t *testing.T) {
	db := paperDB(t)
	v := fixtures.BuildCatalogView(db.Schema(), 2)
	out := evalRoot(t, db, v.Root, nil)
	if len(out) != 1 {
		t.Fatalf("catalog rows = %d, want 1", len(out))
	}
	cat := out[0][fixtures.CatalogNodeCol].AsNode()
	if cat == nil || cat.Name != "catalog" {
		t.Fatalf("root node = %v", cat)
	}
	prods := cat.ChildElements("product")
	if len(prods) != 2 {
		t.Fatalf("products = %d, want 2 (CRT 15, LCD 19)", len(prods))
	}
	crt, lcd := prods[0], prods[1]
	if n, _ := crt.Attribute("name"); n != "CRT 15" {
		t.Errorf("first product = %q, want CRT 15", n)
	}
	if n, _ := lcd.Attribute("name"); n != "LCD 19" {
		t.Errorf("second product = %q, want LCD 19", n)
	}
	// CRT 15 merges vendors of P1 and P3 (grouping is by product name).
	crtV := crt.ChildElements("vendor")
	if len(crtV) != 5 {
		t.Fatalf("CRT 15 vendors = %d, want 5", len(crtV))
	}
	// Intra-group document order is canonical-key order: (vid, pid).
	wantVids := []string{"Amazon", "Bestbuy", "Bestbuy", "Circuitcity", "Circuitcity"}
	for i, v := range crtV {
		if got := v.ChildElements("vid")[0].TextContent(); got != wantVids[i] {
			t.Errorf("CRT vendor[%d] vid = %q, want %q", i, got, wantVids[i])
		}
	}
	lcdV := lcd.ChildElements("vendor")
	if len(lcdV) != 2 {
		t.Fatalf("LCD 19 vendors = %d, want 2", len(lcdV))
	}
	if p := lcdV[0].ChildElements("price")[0].TextContent(); p != "180.00" {
		t.Errorf("LCD first vendor price = %q, want 180.00 (Bestbuy)", p)
	}
	// Serialization is deterministic.
	out2 := evalRoot(t, db, fixtures.BuildCatalogView(db.Schema(), 2).Root, nil)
	if cat.Serialize(false) != out2[0][0].AsNode().Serialize(false) {
		t.Error("catalog serialization not deterministic across evaluations")
	}
}

// TestCountPredicateFilters checks box 6: products with fewer than
// minVendors vendors are excluded.
func TestCountPredicateFilters(t *testing.T) {
	db := paperDB(t)
	// With threshold 3, only CRT 15 (5 vendors) qualifies.
	v := fixtures.BuildCatalogView(db.Schema(), 3)
	out := evalRoot(t, db, v.Root, nil)
	prods := out[0][0].AsNode().ChildElements("product")
	if len(prods) != 1 {
		t.Fatalf("products = %d, want 1", len(prods))
	}
	if n, _ := prods[0].Attribute("name"); n != "CRT 15" {
		t.Errorf("product = %q", n)
	}
	// Threshold 6: empty catalog, but the <catalog> element still exists.
	v6 := fixtures.BuildCatalogView(db.Schema(), 6)
	out6 := evalRoot(t, db, v6.Root, nil)
	if len(out6) != 1 {
		t.Fatalf("catalog rows = %d", len(out6))
	}
	if got := len(out6[0][0].AsNode().ChildElements("product")); got != 0 {
		t.Errorf("products = %d, want 0", got)
	}
}

// TestCanonicalKeys verifies Table 3 key derivation over the Figure 5
// graph.
func TestCanonicalKeys(t *testing.T) {
	db := paperDB(t)
	v := fixtures.BuildCatalogView(db.Schema(), 2)
	cases := []struct {
		name string
		op   *xqgm.Operator
		want []int
	}{
		{"Table(product)", v.ProductTable, []int{0}},
		{"Table(vendor)", v.VendorTable, []int{0, 1}},
		// The join key is reduced by the equi-join equivalence rule:
		// product.pid is implied by vendor.pid, leaving (vid, v.pid).
		{"Join", v.PVJoin, []int{3, 4}},
		{"Project(vendor)", v.VendorProj, []int{1, 2}},
		{"GroupBy(pname)", v.NameGroup, []int{0}},
		{"Select(count)", v.CountSelect, []int{0}},
		{"Project(product)", v.ProductProj, []int{1}},
		{"GroupBy(catalog)", v.CatalogGroup, []int{}},
		{"Project(root)", v.Root, []int{}},
	}
	for _, c := range cases {
		got := c.op.Key
		if len(got) != len(c.want) {
			t.Errorf("%s key = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s key = %v, want %v", c.name, got, c.want)
				break
			}
		}
		if got == nil {
			t.Errorf("%s key is nil", c.name)
		}
	}
	if !xqgm.TriggerSpecifiable(v.Root) {
		t.Error("catalog view must be trigger-specifiable (Theorem 1)")
	}
}

// TestTriggerSpecifiabilityRequiresKeys: a view over a keyless table is not
// trigger-specifiable (Definition 4 / Theorem 1 contrapositive).
func TestTriggerSpecifiabilityRequiresKeys(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:    "nokey",
		Columns: []schema.Column{{Name: "a", Type: schema.TInt}},
	})
	def, _ := s.Table("nokey")
	tbl := xqgm.NewTable(def, xqgm.SrcBase)
	sel := xqgm.NewSelect(tbl, &xqgm.Cmp{Op: ">", L: xqgm.Col(0), R: xqgm.LitOf(xdm.Int(0))})
	if xqgm.TriggerSpecifiable(sel) {
		t.Error("view over keyless table reported trigger-specifiable")
	}
	// A Project that drops the key also loses specifiability.
	db := paperDB(t)
	pdef, _ := db.Schema().Table("product")
	p := xqgm.NewTable(pdef, xqgm.SrcBase)
	proj := xqgm.NewProject(p, xqgm.Proj{Name: "pname", E: xqgm.Col(1)})
	if xqgm.TriggerSpecifiable(proj) {
		t.Error("key-dropping Project reported trigger-specifiable")
	}
	// Unnest has no canonical key (Appendix A).
	un := xqgm.NewUnnest(xqgm.NewProject(p, xqgm.Proj{Name: "x", E: xqgm.Col(0)}), 0)
	if xqgm.TriggerSpecifiable(un) {
		t.Error("Unnest reported trigger-specifiable")
	}
}

func TestJoinKinds(t *testing.T) {
	db := paperDB(t)
	pdef, _ := db.Schema().Table("product")
	vdef, _ := db.Schema().Table("vendor")
	prod := xqgm.NewTable(pdef, xqgm.SrcBase)
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	// Remove P2's vendors so P2 becomes unmatched.
	if _, err := db.Delete("vendor", func(r reldb.Row) bool { return r[1].AsString() == "P2" }); err != nil {
		t.Fatal(err)
	}

	inner := evalRoot(t, db, xqgm.NewJoin(xqgm.JoinInner, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil), nil)
	if len(inner) != 5 {
		t.Errorf("inner join rows = %d, want 5", len(inner))
	}
	louter := evalRoot(t, db, xqgm.NewJoin(xqgm.JoinLeftOuter, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil), nil)
	if len(louter) != 6 {
		t.Errorf("left outer rows = %d, want 6 (5 matches + null-extended P2)", len(louter))
	}
	nullRows := 0
	for _, r := range louter {
		if r[3].IsNull() {
			nullRows++
			if r[0].AsString() != "P2" {
				t.Errorf("null-extended row for %s, want P2", r[0].AsString())
			}
		}
	}
	if nullRows != 1 {
		t.Errorf("null-extended rows = %d, want 1", nullRows)
	}
	lanti := evalRoot(t, db, xqgm.NewJoin(xqgm.JoinLeftAnti, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil), nil)
	if len(lanti) != 1 || lanti[0][0].AsString() != "P2" {
		t.Errorf("left anti = %v, want one P2 row", lanti)
	}
	if !lanti[0][3].IsNull() {
		t.Error("left anti right side must be null")
	}
	// Right anti: vendors without products (none here).
	ranti := evalRoot(t, db, xqgm.NewJoin(xqgm.JoinRightAnti, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil), nil)
	if len(ranti) != 0 {
		t.Errorf("right anti rows = %d, want 0", len(ranti))
	}
	// Orphan a vendor, then right anti finds it.
	if err := db.Insert("vendor", reldb.Row{xdm.Str("X"), xdm.Str("P9"), xdm.Float(1)}); err != nil {
		t.Fatal(err)
	}
	ranti = evalRoot(t, db, xqgm.NewJoin(xqgm.JoinRightAnti, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil), nil)
	if len(ranti) != 1 || ranti[0][4].AsString() != "P9" {
		t.Errorf("right anti = %v, want one P9 row", ranti)
	}
	if !ranti[0][0].IsNull() {
		t.Error("right anti left side must be null")
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	db := paperDB(t)
	pdef, _ := db.Schema().Table("product")
	vdef, _ := db.Schema().Table("vendor")
	prod := xqgm.NewTable(pdef, xqgm.SrcBase)
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	// product ⋈ vendor on pid with price > 140.
	pred := &xqgm.Cmp{Op: ">", L: xqgm.Col2(2), R: xqgm.LitOf(xdm.Float(140))}
	rows := evalRoot(t, db, xqgm.NewJoin(xqgm.JoinInner, prod, vend, []xqgm.JoinEq{{L: 0, R: 1}}, pred), nil)
	if len(rows) != 3 { // 150 (P1), 200 (P2), 180 (P2)
		t.Errorf("rows = %d, want 3", len(rows))
	}
	// Cross product (no equi-keys) with a residual predicate.
	cross := evalRoot(t, db, xqgm.NewJoin(xqgm.JoinInner, prod, vend, nil,
		&xqgm.Cmp{Op: "=", L: xqgm.Col(0), R: xqgm.Col2(1)}), nil)
	if len(cross) != 7 {
		t.Errorf("cross-with-pred rows = %d, want 7", len(cross))
	}
}

func TestIndexNestedLoopJoinIsUsed(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	// Small driving side: a one-row constants table with pid P2.
	keys := xqgm.NewConstants([]string{"pid"}, []xqgm.Tuple{{xdm.Str("P2")}})
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	join := xqgm.NewJoin(xqgm.JoinInner, keys, vend, []xqgm.JoinEq{{L: 0, R: 1}}, nil)
	ctx := xqgm.NewEvalContext(db, nil)
	out, err := ctx.Eval(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("rows = %d, want 2 (P2 vendors)", len(out))
	}
	if ctx.Stats.IndexNLJoins != 1 {
		t.Errorf("index NL joins = %d, want 1 (stats: %+v)", ctx.Stats.IndexNLJoins, ctx.Stats)
	}
	st := db.Stats()
	if st.IndexLookups == 0 {
		t.Error("no index lookups recorded on the database")
	}
}

// TestHashJoinTellsHugeFloatsApart: a hash join buckets by CompKey, and the
// key of an integral float was int64(f) with no range check — one value for
// every float beyond int64 — so 1e19 joined 2e19, -3e30 and +Inf.
func TestHashJoinTellsHugeFloatsApart(t *testing.T) {
	consts := func(fs ...float64) *xqgm.Operator {
		rows := make([]xqgm.Tuple, len(fs))
		for i, f := range fs {
			rows[i] = xqgm.Tuple{xdm.Float(f)}
		}
		return xqgm.NewConstants([]string{"x"}, rows)
	}
	join := xqgm.NewJoin(xqgm.JoinInner, consts(1e19), consts(2e19, math.Inf(1), -3e30, 1e19),
		[]xqgm.JoinEq{{L: 0, R: 0}}, nil)
	ctx := xqgm.NewEvalContext(paperDB(t), nil)
	out, err := ctx.Eval(join)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.HashJoins != 1 {
		t.Fatalf("not a hash join: %+v", ctx.Stats)
	}
	if len(out) != 1 || !xdm.Equal(out[0][1], xdm.Float(1e19)) {
		t.Errorf("1e19 joins %v, want itself alone", out)
	}
}

// TestEmptyLeftSkipsRight: an inner, left-outer or left-anti join with an
// empty left input returns empty without evaluating its right input; a
// right-anti join returns its right input's rows and has to evaluate it.
func TestEmptyLeftSkipsRight(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	// Neither input is a base-table path, so every kind takes the hash path.
	none := xqgm.NewProject(xqgm.NewSelect(vend, xqgm.LitOf(xdm.False)),
		xqgm.Proj{Name: "pid", E: xqgm.Col(1)},
		xqgm.Proj{Name: "twice", E: &xqgm.Arith{Op: "*", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Int(2))}})
	right := xqgm.NewGroupBy(vend, []int{1}) // the pids
	on := []xqgm.JoinEq{{L: 0, R: 0}}
	for _, kind := range []xqgm.JoinKind{xqgm.JoinInner, xqgm.JoinLeftOuter, xqgm.JoinLeftAnti, xqgm.JoinRightAnti} {
		ctx := xqgm.NewEvalContext(db, nil)
		out, err := ctx.Eval(xqgm.NewJoin(kind, none, right, on, nil))
		if err != nil {
			t.Fatal(err)
		}
		if kind == xqgm.JoinRightAnti {
			if len(out) != 3 || ctx.Stats.JoinsSkipped != 0 {
				t.Errorf("%v: %d rows, %d joins skipped; want the 3 pids and no skip", kind, len(out), ctx.Stats.JoinsSkipped)
			}
			continue
		}
		// The vendor scan, the empty left side's two operators and the join:
		// the GroupBy on the right is not evaluated.
		if len(out) != 0 || ctx.Stats.JoinsSkipped != 1 || ctx.Stats.OpsEvaluated != 4 {
			t.Errorf("%v: %d rows, %d joins skipped, %d operators evaluated; want 0, 1 and 4", kind, len(out), ctx.Stats.JoinsSkipped, ctx.Stats.OpsEvaluated)
		}
	}
}

func TestIndexJoinThroughSelectAndProject(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	keys := xqgm.NewConstants([]string{"pid"}, []xqgm.Tuple{{xdm.Str("P1")}})
	// vendor restricted to price < 130, projected to (pid, price).
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	sel := xqgm.NewSelect(vend, &xqgm.Cmp{Op: "<", L: xqgm.Col(2), R: xqgm.LitOf(xdm.Float(130))})
	proj := xqgm.NewProject(sel,
		xqgm.Proj{Name: "pid", E: xqgm.Col(1)},
		xqgm.Proj{Name: "price", E: xqgm.Col(2)})
	join := xqgm.NewJoin(xqgm.JoinInner, keys, proj, []xqgm.JoinEq{{L: 0, R: 0}}, nil)
	ctx := xqgm.NewEvalContext(db, nil)
	out, err := ctx.Eval(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 { // Amazon 100, Bestbuy 120
		t.Errorf("rows = %d, want 2", len(out))
	}
	if ctx.Stats.IndexNLJoins != 1 {
		t.Errorf("expected index NL join through Select+Project, stats %+v", ctx.Stats)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	g := xqgm.NewGroupBy(vend, []int{1},
		xqgm.Agg{Name: "n", Func: xqgm.AggCount},
		xqgm.Agg{Name: "total", Func: xqgm.AggSum, Arg: xqgm.Col(2)},
		xqgm.Agg{Name: "lo", Func: xqgm.AggMin, Arg: xqgm.Col(2)},
		xqgm.Agg{Name: "hi", Func: xqgm.AggMax, Arg: xqgm.Col(2)},
		xqgm.Agg{Name: "mean", Func: xqgm.AggAvg, Arg: xqgm.Col(2)},
	)
	rows := evalRoot(t, db, g, nil)
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
	byPid := map[string]xqgm.Tuple{}
	for _, r := range rows {
		byPid[r[0].AsString()] = r
	}
	p1 := byPid["P1"]
	if p1[1].AsInt() != 3 || p1[2].AsFloat() != 370 || p1[3].AsFloat() != 100 || p1[4].AsFloat() != 150 {
		t.Errorf("P1 aggs = %v", p1)
	}
	if diff := p1[5].AsFloat() - 370.0/3.0; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("P1 avg = %v", p1[5])
	}
	// Global aggregate over empty input produces one row with count 0.
	empty := xqgm.NewSelect(vend, xqgm.LitOf(xdm.False))
	gg := xqgm.NewGroupBy(empty, nil,
		xqgm.Agg{Name: "n", Func: xqgm.AggCount},
		xqgm.Agg{Name: "lo", Func: xqgm.AggMin, Arg: xqgm.Col(2)},
	)
	grows := evalRoot(t, db, gg, nil)
	if len(grows) != 1 || grows[0][0].AsInt() != 0 || !grows[0][1].IsNull() {
		t.Errorf("global agg over empty = %v", grows)
	}
	// Grouped aggregate over empty input produces no rows.
	ge := xqgm.NewGroupBy(empty, []int{1}, xqgm.Agg{Name: "n", Func: xqgm.AggCount})
	if rows := evalRoot(t, db, ge, nil); len(rows) != 0 {
		t.Errorf("grouped agg over empty = %v", rows)
	}
}

func TestUnionSemantics(t *testing.T) {
	db := paperDB(t)
	pdef, _ := db.Schema().Table("product")
	prod := xqgm.NewTable(pdef, xqgm.SrcBase)
	names := xqgm.NewProject(prod, xqgm.Proj{Name: "pname", E: xqgm.Col(1)})
	// pname has a duplicate (CRT 15 twice).
	all := evalRoot(t, db, xqgm.NewUnion(false, names, names), nil)
	if len(all) != 6 {
		t.Errorf("UNION ALL rows = %d, want 6", len(all))
	}
	dist := evalRoot(t, db, xqgm.NewUnion(true, names, names), nil)
	if len(dist) != 2 {
		t.Errorf("UNION DISTINCT rows = %d, want 2", len(dist))
	}
}

func TestOrderBy(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	asc := evalRoot(t, db, xqgm.NewOrderBy(vend, xqgm.OrderCol{Col: 2}), nil)
	for i := 1; i < len(asc); i++ {
		if xdm.Compare(asc[i-1][2], asc[i][2]) > 0 {
			t.Fatalf("not ascending at %d: %v > %v", i, asc[i-1][2], asc[i][2])
		}
	}
	desc := evalRoot(t, db, xqgm.NewOrderBy(vend, xqgm.OrderCol{Col: 2, Desc: true}, xqgm.OrderCol{Col: 0}), nil)
	if desc[0][2].AsFloat() != 200 {
		t.Errorf("desc first = %v", desc[0])
	}
}

func TestUnnest(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	g := xqgm.NewGroupBy(vend, []int{1}, xqgm.Agg{Name: "prices", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(2)})
	un := xqgm.NewUnnest(g, 1)
	rows := evalRoot(t, db, un, nil)
	if len(rows) != 7 {
		t.Errorf("unnested rows = %d, want 7", len(rows))
	}
}

func TestTableSources(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	tr := &xqgm.Transition{
		Inserted: []reldb.Row{{xdm.Str("Amazon"), xdm.Str("P1"), xdm.Float(75)}},
		Deleted:  []reldb.Row{{xdm.Str("Amazon"), xdm.Str("P1"), xdm.Float(100)}},
	}
	// Apply the update the transition describes.
	if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(75)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	deltas := map[string]*xqgm.Transition{"vendor": tr}

	srcRows := func(src xqgm.TableSource) []xqgm.Tuple {
		return evalRoot(t, db, xqgm.NewTable(vdef, src), deltas)
	}
	if n := len(srcRows(xqgm.SrcBase)); n != 7 {
		t.Errorf("base rows = %d", n)
	}
	if n := len(srcRows(xqgm.SrcDelta)); n != 1 {
		t.Errorf("Δ rows = %d", n)
	}
	if n := len(srcRows(xqgm.SrcNabla)); n != 1 {
		t.Errorf("∇ rows = %d", n)
	}
	// B_old: 7 rows, with Amazon/P1 back at price 100.
	old := srcRows(xqgm.SrcOld)
	if len(old) != 7 {
		t.Fatalf("B_old rows = %d, want 7", len(old))
	}
	found := false
	for _, r := range old {
		if r[0].AsString() == "Amazon" {
			found = true
			if r[2].AsFloat() != 100 {
				t.Errorf("B_old Amazon price = %v, want 100", r[2])
			}
		}
	}
	if !found {
		t.Error("Amazon missing from B_old")
	}
}

func TestPrunedTransitionTables(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	// A no-op update (SET price = price): Δ == ∇, pruned tables are empty
	// (Definition 8; avoids spurious updates, Appendix F.1).
	same := reldb.Row{xdm.Str("Amazon"), xdm.Str("P1"), xdm.Float(100)}
	changed := reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P1"), xdm.Float(110)}
	orig := reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P1"), xdm.Float(120)}
	deltas := map[string]*xqgm.Transition{"vendor": {
		Inserted: []reldb.Row{same, changed},
		Deleted:  []reldb.Row{same, orig},
	}}
	dp := evalRoot(t, db, xqgm.NewTable(vdef, xqgm.SrcDeltaPruned), deltas)
	np := evalRoot(t, db, xqgm.NewTable(vdef, xqgm.SrcNablaPruned), deltas)
	if len(dp) != 1 || dp[0][2].AsFloat() != 110 {
		t.Errorf("Δ' = %v, want only the changed row", dp)
	}
	if len(np) != 1 || np[0][2].AsFloat() != 120 {
		t.Errorf("∇' = %v, want only the original changed row", np)
	}
}

func TestCloneAndWithOldTable(t *testing.T) {
	db := paperDB(t)
	v := fixtures.BuildCatalogView(db.Schema(), 2)
	c := xqgm.Clone(v.Root)
	if c == v.Root {
		t.Fatal("clone returned original")
	}
	// Structure is preserved.
	if c.String() != v.Root.String() {
		t.Errorf("clone structure differs:\n%s\nvs\n%s", c, v.Root)
	}
	// Sharing is preserved: the product table appears once in the clone.
	tables := 0
	xqgm.Walk(c, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpTable {
			tables++
		}
	})
	if tables != 2 {
		t.Errorf("clone has %d table ops, want 2", tables)
	}
	// WithOldTable flips only the vendor table's source.
	old := xqgm.WithOldTable(v.Root, "vendor")
	xqgm.Walk(old, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpTable {
			switch o.Table {
			case "vendor":
				if o.Source != xqgm.SrcOld {
					t.Error("vendor table not switched to SrcOld")
				}
			case "product":
				if o.Source != xqgm.SrcBase {
					t.Error("product table should stay SrcBase")
				}
			}
		}
	})
	// Original untouched.
	if v.VendorTable.Source != xqgm.SrcBase {
		t.Error("WithOldTable mutated the original graph")
	}
	// G_old over an updated database reconstructs the old view.
	if _, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Buy.com"), xdm.Str("P2")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(500)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	deltas := map[string]*xqgm.Transition{"vendor": {
		Inserted: []reldb.Row{{xdm.Str("Buy.com"), xdm.Str("P2"), xdm.Float(500)}},
		Deleted:  []reldb.Row{{xdm.Str("Buy.com"), xdm.Str("P2"), xdm.Float(200)}},
	}}
	newCat := evalRoot(t, db, v.Root, deltas)[0][0].AsNode().Serialize(false)
	oldCat := evalRoot(t, db, old, deltas)[0][0].AsNode().Serialize(false)
	if !strings.Contains(newCat, "500.00") || strings.Contains(newCat, ">200.00<") {
		t.Errorf("new view wrong: %s", newCat)
	}
	if !strings.Contains(oldCat, "200.00") || strings.Contains(oldCat, "500.00") {
		t.Errorf("old view wrong: %s", oldCat)
	}
}

func TestTablesAndWalk(t *testing.T) {
	db := paperDB(t)
	v := fixtures.BuildCatalogView(db.Schema(), 2)
	ts := xqgm.Tables(v.Root)
	if len(ts) != 2 {
		t.Fatalf("tables = %v", ts)
	}
	set := map[string]bool{ts[0]: true, ts[1]: true}
	if !set["product"] || !set["vendor"] {
		t.Errorf("tables = %v", ts)
	}
	n := 0
	xqgm.Walk(v.Root, func(*xqgm.Operator) { n++ })
	if n != 9 {
		t.Errorf("walked %d operators, want 9 (Figure 5 boxes)", n)
	}
}

func TestExpressionErrors(t *testing.T) {
	db := paperDB(t)
	pdef, _ := db.Schema().Table("product")
	prod := xqgm.NewTable(pdef, xqgm.SrcBase)
	bad := xqgm.NewProject(prod, xqgm.Proj{Name: "x", E: &xqgm.Call{Name: "nosuchfn", Args: []xqgm.Expr{xqgm.Col(0)}}})
	ctx := xqgm.NewEvalContext(db, nil)
	if _, err := ctx.Eval(bad); err == nil {
		t.Error("unknown function should error")
	}
	oob := xqgm.NewProject(prod, xqgm.Proj{Name: "x", E: xqgm.Col(99)})
	ctx2 := xqgm.NewEvalContext(db, nil)
	if _, err := ctx2.Eval(oob); err == nil {
		t.Error("out-of-range column should error")
	}
}

func TestExprHelpers(t *testing.T) {
	e := &xqgm.Cmp{Op: "=", L: xqgm.Col(2), R: &xqgm.Arith{Op: "+", L: xqgm.Col(5), R: xqgm.LitOf(xdm.Int(1))}}
	cols := xqgm.ExprCols(e)
	if len(cols) != 2 {
		t.Errorf("ExprCols = %v", cols)
	}
	shifted := xqgm.ShiftCols(e, 10)
	sc := xqgm.ExprCols(shifted)
	set := map[int]bool{}
	for _, c := range sc {
		set[c] = true
	}
	if !set[12] || !set[15] {
		t.Errorf("shifted cols = %v", sc)
	}
	sub := xqgm.SubstituteCols(e, map[int]int{2: 0, 5: 1})
	ss := xqgm.ExprCols(sub)
	set = map[int]bool{}
	for _, c := range ss {
		set[c] = true
	}
	if !set[0] || !set[1] {
		t.Errorf("substituted cols = %v", ss)
	}
}

func TestLogicThreeValued(t *testing.T) {
	env := &xqgm.Env{}
	tv := func(e xqgm.Expr) xdm.Value {
		v, err := e.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	null := xqgm.LitOf(xdm.Null)
	tru := xqgm.LitOf(xdm.True)
	fls := xqgm.LitOf(xdm.False)
	if v := tv(&xqgm.Logic{Op: "and", Args: []xqgm.Expr{tru, null}}); !v.IsNull() {
		t.Errorf("true AND null = %v", v)
	}
	if v := tv(&xqgm.Logic{Op: "and", Args: []xqgm.Expr{fls, null}}); v.IsNull() || v.AsBool() {
		t.Errorf("false AND null = %v", v)
	}
	if v := tv(&xqgm.Logic{Op: "or", Args: []xqgm.Expr{tru, null}}); v.IsNull() || !v.AsBool() {
		t.Errorf("true OR null = %v", v)
	}
	if v := tv(&xqgm.Logic{Op: "or", Args: []xqgm.Expr{fls, null}}); !v.IsNull() {
		t.Errorf("false OR null = %v", v)
	}
	if v := tv(&xqgm.Logic{Op: "not", Args: []xqgm.Expr{null}}); !v.IsNull() {
		t.Errorf("NOT null = %v", v)
	}
	if v := tv(&xqgm.IsNullExpr{E: null}); !v.AsBool() {
		t.Errorf("null IS NULL = %v", v)
	}
	if v := tv(&xqgm.IsNullExpr{E: tru, Neg: true}); !v.AsBool() {
		t.Errorf("true IS NOT NULL = %v", v)
	}
}

func TestPathStepOverConstructedNodes(t *testing.T) {
	prod := xdm.Elem("product", xdm.Attr("name", "CRT 15"),
		xdm.Elem("vendor", xdm.Elem("price", xdm.TextNd("100"))),
		xdm.Elem("vendor", xdm.Elem("price", xdm.TextNd("160"))))
	lit := xqgm.LitOf(xdm.NodeVal(prod))
	env := &xqgm.Env{}
	// product/vendor
	step := &xqgm.PathStep{In: lit, Axis: "child", Name: "vendor"}
	v, err := step.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if v.SeqLen() != 2 {
		t.Errorf("child vendors = %d", v.SeqLen())
	}
	// product/@name
	attr := &xqgm.PathStep{In: lit, Axis: "attribute", Name: "name"}
	av, _ := attr.Eval(env)
	if av.AsString() != "CRT 15" {
		t.Errorf("@name = %v", av)
	}
	// product//price
	desc := &xqgm.PathStep{In: lit, Axis: "descendant", Name: "price"}
	dv, _ := desc.Eval(env)
	if dv.SeqLen() != 2 {
		t.Errorf("descendant prices = %d", dv.SeqLen())
	}
	// product/vendor[price > 120]
	pred := &xqgm.PathStep{In: lit, Axis: "child", Name: "vendor",
		Predicate: &xqgm.Cmp{Op: ">", L: &xqgm.PathStep{In: xqgm.Col(0), Axis: "child", Name: "price"}, R: xqgm.LitOf(xdm.Int(120))}}
	pv, err := pred.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if pv.SeqLen() != 1 {
		t.Errorf("filtered vendors = %d, want 1", pv.SeqLen())
	}
	// count() over the step.
	cnt := &xqgm.Call{Name: "count", Args: []xqgm.Expr{step}}
	cv, _ := cnt.Eval(env)
	if cv.AsInt() != 2 {
		t.Errorf("count = %v", cv)
	}
}

func TestMemoizationSharedSubgraph(t *testing.T) {
	db := paperDB(t)
	vdef, _ := db.Schema().Table("vendor")
	vend := xqgm.NewTable(vdef, xqgm.SrcBase)
	g := xqgm.NewGroupBy(vend, []int{1}, xqgm.Agg{Name: "n", Func: xqgm.AggCount})
	// Same groupby shared by two parents of a union.
	u := xqgm.NewUnion(false, g, g)
	ctx := xqgm.NewEvalContext(db, nil)
	out, err := ctx.Eval(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Errorf("rows = %d, want 6", len(out))
	}
	// The groupby (and the scan beneath it) ran once.
	if db.Stats().FullScans != 1 {
		t.Errorf("full scans = %d, want 1 (memoized)", db.Stats().FullScans)
	}
}
