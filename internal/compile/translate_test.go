package compile

import (
	"slices"
	"strings"
	"testing"

	"quark/internal/schema"
	"quark/internal/xqgm"
)

// viewExprs renders every expression of a compiled view's operators.
func viewExprs(v *ViewDef) string {
	var b strings.Builder
	seen := map[*xqgm.Operator]bool{}
	xqgm.Walk(v.Root, func(o *xqgm.Operator) {
		if seen[o] {
			return
		}
		seen[o] = true
		for _, e := range []xqgm.Expr{o.Pred, o.JoinPred} {
			if e != nil {
				b.WriteString(e.String() + "\n")
			}
		}
		for _, p := range o.Projs {
			b.WriteString(p.Name + "=" + p.E.String() + "\n")
		}
	})
	return b.String()
}

// Every view expression form the translator and its view resolvers know
// (attribute values, row predicates, where clauses and content), with the
// expression each compiles to, or the error it is rejected with.
func TestViewTranslation(t *testing.T) {
	const products = `<catalog>{for $p in view('default')/product/row%s return <product name={%s}>{%s}</product>}</catalog>`
	for _, c := range []struct{ pred, attr, content, want string }{
		{"", `$p/pname`, `$p/mfr`, "product=<product name={$1}>{<mfr>{$2}</mfr>}</product>\nk0=$0\na_name=$1"},
		{"", `concat($p/pname, '/', $p/mfr)`, `'x'`, `<product name={concat($1, "/", $2)}>{"x"}</product>`},
		{"", `data($p/pid) * 2 + 1`, `string($p/pname) = 'a' or not($p/mfr != 'b')`,
			`<product name={((data($0) * 2) + 1)}>{((string($1) = "a") or not(($2 != "b")))}</product>`},
		{"", `$p/pid`, `$p/*`, `{(<pid>{$0}</pid>, <pname>{$1}</pname>, <mfr>{$2}</mfr>)}`},
		{"[./pname = 'CRT 15' and ./mfr != coalesce(./pid, 'x')]", `$p/pid`, `1`, `(($1 = "CRT 15") and ($2 != coalesce($0, "x")))`},
		{"[abs(./pid) > 1 + 1]", `$p/pid`, `1`, `(abs($0) > (1 + 1))`},

		{"", `data()`, `1`, `data() does not take 0 argument(s)`},
		{"", `string()`, `1`, `string() does not take 0 argument(s)`},
		{"", `bogus($p/pid)`, `1`, `unknown function "bogus"`},
		{"", `$q`, `1`, `unbound variable $q`},
		{"", `$p`, `1`, `variable $p is not scalar here`},
		{"", `$q/pid`, `1`, `unbound variable $q`},
		{"", `$p/bogus`, `1`, `unknown column product.bogus`},
		{"", `$p/pid/x`, `1`, `unsupported path $p/pid/x`},
		{"", `$p/pid[. = 1]`, `1`, `unsupported path`},
		{"", `.`, `1`, `unsupported expression .`},
		{"", `$p/pid`, `$p/bogus`, `unknown column product.bogus`},
		{"", `$p/pid`, `if (1) then 2 else 3`, `unsupported expression`},
		{"[./pname = data()]", `$p/pid`, `1`, `data() does not take 0`},
	} {
		src := replaceN(products, c.pred, c.attr, c.content)
		v, err := New(schema.ProductVendor()).CompileView("v", src)
		if err != nil {
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %q, want %q", src, err, c.want)
			}
			continue
		}
		if got := viewExprs(v); !strings.Contains(got, c.want) {
			t.Errorf("%s: expressions\n%s\nwant %s", src, got, c.want)
		}
	}
	const names = `<c>{for $n in distinct(view('default')/product/row/pname) return <p name={$n/x}/>}</c>`
	if _, err := New(schema.ProductVendor()).CompileView("v", names); err == nil || !strings.Contains(err.Error(), "$n does not bind rows") {
		t.Errorf("a path from a distinct value: %v", err)
	}
}

// replaceN fills format's %s verbs with args, which may contain braces and
// percent signs fmt would not leave alone.
func replaceN(format string, args ...string) string {
	for _, a := range args {
		format = strings.Replace(format, "%s", a, 1)
	}
	return format
}

// A where clause reads count($set) from the count column of the set's
// child aggregation, on either side of a comparison and under or/not;
// count() of a set with no such aggregation is not a scalar.
func TestWhereCountTranslation(t *testing.T) {
	const view = `<catalog>{for $p in view('default')/product/row
		let $vs := view('default')/vendor/row[./pid = $p/pid]
		where %s
		return <product id={$p/pid}>{for $v in $vs return <vendor>{$v/price}</vendor>}</product>}</catalog>`
	for _, c := range []struct{ where, want string }{
		{`count($vs) >= 2`, `($5 >= 2)`},
		{`1 < count($vs)`, `(1 < $5)`},
		{`count($vs) = 0 or not(count($vs) > 3)`, `(($5 = 0) or not(($5 > 3)))`},
		{`$p/pname = 'a' and count($vs) != 1`, "($1 = \"a\")\n($5 != 1)"},
		{`count($p/pid) > 1`, `(count($0) > 1)`},
		{`$p/pid = 1 or bogus()`, `unknown function "bogus"`},
		{`count($ws) > 1`, `unbound variable $ws`},
		{`count($p) > 1`, `variable $p is not scalar here`},
	} {
		v, err := New(schema.ProductVendor()).CompileView("v", replaceN(view, c.where))
		if err != nil {
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %q, want %q", c.where, err, c.want)
			}
			continue
		}
		if got := viewExprs(v); !strings.Contains(got, c.want) {
			t.Errorf("%s: expressions\n%s\nwant %s", c.where, got, c.want)
		}
	}
}

// $vendor/* is a sequence expression xqgm sees into: the columns of the
// catalog's vendor projection are the vendor row's, and shift with it.
func TestRowSequenceColumnsAreVisible(t *testing.T) {
	_, v := compiledCatalog(t)
	vendor := v.Nav.Find("vendor")
	e := vendor.Op.Projs[vendor.NodeCol].E
	cols := xqgm.ExprCols(e)
	slices.Sort(cols)
	if !slices.Equal(cols, []int{4, 5, 6}) {
		t.Errorf("ExprCols(%s) = %v, want [4 5 6]", e, cols)
	}
	shifted := xqgm.ExprCols(xqgm.ShiftCols(e, 10))
	slices.Sort(shifted)
	if !slices.Equal(shifted, []int{14, 15, 16}) {
		t.Errorf("ExprCols after ShiftCols(10) = %v, want [14 15 16]", shifted)
	}
}

// A level with several nested sets projects their counts in content order,
// every time it compiles.
func TestCountColumnsFollowContentOrder(t *testing.T) {
	s := schema.ProductVendor()
	s.MustAddTable(&schema.Table{Name: "review", PrimaryKey: []string{"rid"}, Columns: []schema.Column{
		{Name: "rid", Type: schema.TString}, {Name: "pid", Type: schema.TString}}})
	const src = `<shop>{for $p in view('default')/product/row
		let $vs := view('default')/vendor/row[./pid = $p/pid]
		let $rs := view('default')/review/row[./pid = $p/pid]
		return <product id={$p/pid}>
			{for $v in $vs return <v>{$v/price}</v>}
			{for $r in $rs return <r>{$r/rid}</r>}</product>}</shop>`
	for i := 0; i < 50; i++ {
		v, err := New(s).CompileView("shop", src)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, p := range v.Nav.Child("product").Op.Projs {
			names = append(names, p.Name)
		}
		if got := strings.Join(names, ","); got != "product,k0,cnt_vs,cnt_rs" {
			t.Fatalf("compile %d projects %s", i, got)
		}
	}
}
