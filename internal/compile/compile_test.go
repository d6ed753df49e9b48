package compile

import (
	"slices"
	"strings"
	"testing"

	"quark/internal/fixtures"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// catalogSrc is the paper's Figure 3 view definition body.
const catalogSrc = `
<catalog>
{for $prodname in distinct(view('default')/product/row/pname)
 let $products := view('default')/product/row[./pname = $prodname]
 let $vendors := view('default')/vendor/row[./pid = $products/pid]
 where count($vendors) >= 2
 return <product name={$prodname}>
   { for $vendor in $vendors
     return <vendor>
       {$vendor/*}
     </vendor>}
 </product>}
</catalog>`

func compiledCatalog(t *testing.T) (*reldb.DB, *ViewDef) {
	t.Helper()
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	c := New(db.Schema())
	v, err := c.CompileView("catalog", catalogSrc)
	if err != nil {
		t.Fatal(err)
	}
	return db, v
}

// TestCompiledCatalogMatchesHandBuilt: the compiled Figure 3 view must
// produce exactly the same document as the hand-built Figure 5 graph.
func TestCompiledCatalogMatchesHandBuilt(t *testing.T) {
	db, v := compiledCatalog(t)
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(v.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("view rows = %d, want 1", len(rows))
	}
	got := rows[0][0].AsNode().Serialize(false)

	hand := fixtures.BuildCatalogView(db.Schema(), 2)
	ctx2 := xqgm.NewEvalContext(db, nil)
	rows2, err := ctx2.Eval(hand.Root)
	if err != nil {
		t.Fatal(err)
	}
	want := rows2[0][0].AsNode().Serialize(false)
	if got != want {
		t.Errorf("compiled view differs from hand-built Figure 5 graph:\n got: %s\nwant: %s", got, want)
	}
}

// TestNavigationTree: ON view('catalog')/product composition needs the
// product NavNode with attribute and count bindings.
func TestNavigationTree(t *testing.T) {
	db, v := compiledCatalog(t)
	if v.Nav.ElemName != "catalog" {
		t.Fatalf("nav root = %s", v.Nav.ElemName)
	}
	prod := v.Nav.Child("product")
	if prod == nil {
		t.Fatal("no product nav node")
	}
	if prod.Child("vendor") == nil {
		t.Fatal("no vendor nav node under product")
	}
	if _, ok := prod.Attrs["name"]; !ok {
		t.Error("product @name binding missing")
	}
	if !slices.ContainsFunc(prod.Op.Projs, func(p xqgm.Proj) bool { return p.Name == "cnt_vendors" }) {
		t.Errorf("count column missing: %v", prod.Op.Projs)
	}
	// The product producer evaluates to the two qualifying products.
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(prod.Op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("product rows = %d, want 2", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		n := r[prod.NodeCol].AsNode()
		if n.Name != "product" {
			t.Errorf("node = %s", n.Name)
		}
		nm, _ := n.Attribute("name")
		names[nm] = true
		if nm2 := r[prod.Attrs["name"]].AsString(); nm2 != nm {
			t.Errorf("attr binding %q != node attr %q", nm2, nm)
		}
	}
	if !names["CRT 15"] || !names["LCD 19"] {
		t.Errorf("names = %v", names)
	}
	// Trigger-specifiability (Theorem 1): every operator keyed.
	if !xqgm.TriggerSpecifiable(prod.Op) {
		t.Error("compiled product path graph not trigger-specifiable")
	}
	if !xqgm.TriggerSpecifiable(v.Root) {
		t.Error("compiled view not trigger-specifiable")
	}
}

// TestVendorNavLevel: the nested vendor producer yields all 7 vendors
// before the count filter... it is nested under the filtered product in
// document order, but the producer itself is the pre-aggregation join.
func TestVendorNavLevel(t *testing.T) {
	db, v := compiledCatalog(t)
	vend := v.Nav.Find("vendor")
	if vend == nil {
		t.Fatal("vendor nav missing")
	}
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(vend.Op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("vendor rows = %d, want 7", len(rows))
	}
	if len(vend.KeyCols) != 3 { // pname + (vid, pid)
		t.Errorf("vendor keys = %v", vend.KeyCols)
	}
}

// TestCountPredicateThreshold: varying the constant changes results.
func TestCountPredicateThreshold(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	c := New(db.Schema())
	src := strings.Replace(catalogSrc, ">= 2", ">= 3", 1)
	v, err := c.CompileView("catalog3", src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(v.Root)
	if err != nil {
		t.Fatal(err)
	}
	prods := rows[0][0].AsNode().ChildElements("product")
	if len(prods) != 1 {
		t.Fatalf("products = %d, want 1 (CRT 15 only)", len(prods))
	}
}

// TestChildCountBuildsNoChildren: the count a where clause tests over a
// nested FLWOR is count(*) of the child rows, so a consumer that reads only
// the count — an anti join's absent side, a key filter — constructs none of
// the children it counts. Reading the fragment instead constructs them.
func TestChildCountBuildsNoChildren(t *testing.T) {
	db, v := compiledCatalog(t)
	var gb *xqgm.Operator // the products' GroupBy of their vendor children
	xqgm.Walk(v.Nav.Child("product").Op, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpGroupBy && len(o.Aggs) == 2 {
			gb = o
		}
	})
	if gb == nil {
		t.Fatal("no child GroupBy under the product level")
	}
	eval := func(col int) ([]xqgm.Tuple, int) {
		ctx := xqgm.NewEvalContext(db, nil)
		rows, err := ctx.Eval(xqgm.ProjectCols(gb, []int{col}))
		if err != nil {
			t.Fatal(err)
		}
		return rows, ctx.Stats.NodesBuilt
	}
	fragCol, cntCol := len(gb.GroupCols), len(gb.GroupCols)+1
	counts, built := eval(cntCol)
	if built != 0 {
		t.Errorf("counting the vendors built %d nodes, want 0", built)
	}
	total := int64(0)
	for _, r := range counts {
		total += r[0].AsInt()
	}
	if total != int64(db.RowCount("vendor")) {
		t.Errorf("counts sum to %d, want %d vendors", total, db.RowCount("vendor"))
	}
	if _, built := eval(fragCol); built == 0 {
		t.Error("the vendor fragments built no nodes: NodesBuilt counts nothing")
	}
}

// TestFlatView: a view without nesting (products only).
func TestFlatView(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	c := New(db.Schema())
	v, err := c.CompileView("flat", `
<products>
{for $p in view('default')/product/row[./mfr = 'Samsung']
 return <product id={$p/pid} name={$p/pname}></product>}
</products>`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(v.Root)
	if err != nil {
		t.Fatal(err)
	}
	prods := rows[0][0].AsNode().ChildElements("product")
	if len(prods) != 2 { // P1, P2 are Samsung
		t.Fatalf("products = %d, want 2", len(prods))
	}
	for _, p := range prods {
		if id, _ := p.Attribute("id"); id != "P1" && id != "P2" {
			t.Errorf("unexpected id %s", id)
		}
	}
	// Nav: attr bindings for id and name.
	pn := v.Nav.Child("product")
	if pn == nil || pn.Attrs["id"] == 0 && pn.Attrs["name"] == 0 {
		t.Errorf("flat nav attrs = %+v", pn)
	}
}

// TestDepth3View: three-level nesting compiles and evaluates (the shape of
// the paper's hierarchy-depth experiment, Figure 18).
func TestDepth3View(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "region",
		Columns: []schema.Column{
			{Name: "rid", Type: schema.TInt},
			{Name: "rname", Type: schema.TString},
		},
		PrimaryKey: []string{"rid"},
	})
	s.MustAddTable(&schema.Table{
		Name: "store",
		Columns: []schema.Column{
			{Name: "sid", Type: schema.TInt},
			{Name: "rid", Type: schema.TInt},
			{Name: "sname", Type: schema.TString},
		},
		PrimaryKey:  []string{"sid"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"rid"}, RefTable: "region", RefColumns: []string{"rid"}}},
	})
	s.MustAddTable(&schema.Table{
		Name: "sale",
		Columns: []schema.Column{
			{Name: "saleid", Type: schema.TInt},
			{Name: "sid", Type: schema.TInt},
			{Name: "amount", Type: schema.TFloat},
		},
		PrimaryKey:  []string{"saleid"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"sid"}, RefTable: "store", RefColumns: []string{"sid"}}},
	})
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(table string, rows ...reldb.Row) {
		t.Helper()
		if err := db.Insert(table, rows...); err != nil {
			t.Fatal(err)
		}
	}
	ins("region", reldb.Row{xdm.Int(1), xdm.Str("east")}, reldb.Row{xdm.Int(2), xdm.Str("west")})
	ins("store",
		reldb.Row{xdm.Int(10), xdm.Int(1), xdm.Str("s10")},
		reldb.Row{xdm.Int(11), xdm.Int(1), xdm.Str("s11")},
		reldb.Row{xdm.Int(20), xdm.Int(2), xdm.Str("s20")})
	ins("sale",
		reldb.Row{xdm.Int(100), xdm.Int(10), xdm.Float(5)},
		reldb.Row{xdm.Int(101), xdm.Int(10), xdm.Float(7)},
		reldb.Row{xdm.Int(102), xdm.Int(11), xdm.Float(9)},
		reldb.Row{xdm.Int(103), xdm.Int(20), xdm.Float(3)})

	c := New(s)
	v, err := c.CompileView("sales", `
<regions>
{for $r in view('default')/region/row
 let $stores := view('default')/store/row[./rid = $r/rid]
 return <region name={$r/rname}>
   {for $s in $stores
    let $sales := view('default')/sale/row[./sid = $s/sid]
    return <store name={$s/sname}>
      {for $x in $sales return <sale amount={$x/amount}></sale>}
    </store>}
 </region>}
</regions>`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := xqgm.NewEvalContext(db, nil)
	rows, err := ctx.Eval(v.Root)
	if err != nil {
		t.Fatal(err)
	}
	doc := rows[0][0].AsNode()
	regions := doc.ChildElements("region")
	if len(regions) != 2 {
		t.Fatalf("regions = %d", len(regions))
	}
	east := regions[0]
	if n, _ := east.Attribute("name"); n != "east" {
		// map order: find east
		for _, r := range regions {
			if n, _ := r.Attribute("name"); n == "east" {
				east = r
			}
		}
	}
	stores := east.ChildElements("store")
	if len(stores) != 2 {
		t.Fatalf("east stores = %d, want 2", len(stores))
	}
	total := 0
	for _, st := range stores {
		total += len(st.ChildElements("sale"))
	}
	if total != 3 {
		t.Errorf("east sales = %d, want 3", total)
	}
	// Nav has three levels.
	if v.Nav.Find("sale") == nil || v.Nav.Find("store") == nil {
		t.Error("nav levels missing")
	}
	if !xqgm.TriggerSpecifiable(v.Nav.Find("store").Op) {
		t.Error("store level not trigger-specifiable")
	}
	// Childless parents survive (west has one store with one sale; remove
	// its sales and the store remains with empty content).
	if _, err := db.Delete("sale", func(r reldb.Row) bool { return r[1].AsInt() == 20 }); err != nil {
		t.Fatal(err)
	}
	ctx2 := xqgm.NewEvalContext(db, nil)
	rows, err = ctx2.Eval(v.Root)
	if err != nil {
		t.Fatal(err)
	}
	var west *xdm.Node
	for _, r := range rows[0][0].AsNode().ChildElements("region") {
		if n, _ := r.Attribute("name"); n == "west" {
			west = r
		}
	}
	if west == nil || len(west.ChildElements("store")) != 1 {
		t.Fatal("west store lost after deleting its sales")
	}
	if len(west.ChildElements("store")[0].ChildElements("sale")) != 0 {
		t.Error("expected empty sale content")
	}
}

// TestCompileErrors: invalid views produce errors, not panics.
func TestCompileErrors(t *testing.T) {
	s := schema.ProductVendor()
	c := New(s)
	bad := []string{
		`for $x in view('default')/product/row return <a></a>`, // not a ctor at top
		`<v>{for $x in view('default')/nosuch/row return <a></a>}</v>`,
		`<v>{for $x in view('other')/product/row return <a></a>}</v>`,
		`<v>{for $x in view('default')/product return <a></a>}</v>`,
		`<v>{for $x in view('default')/product/row return 42}</v>`,
		`<v>{for $x in view('default')/product/row return <a b={$nope}></a>}</v>`,
	}
	for _, src := range bad {
		if _, err := c.CompileView("bad", src); err == nil {
			t.Errorf("CompileView(%q): expected error", src)
		}
	}
}

// TestViewRegistry: views are registered and retrievable.
func TestViewRegistry(t *testing.T) {
	_, v := compiledCatalog(t)
	if v.Name != "catalog" || v.Source == "" {
		t.Error("view def incomplete")
	}
}
