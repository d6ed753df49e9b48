package xquery

import (
	"strings"
	"testing"

	"quark/internal/xdm"
)

// catalogSrc is the paper's Figure 3 view body.
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

func TestParseCatalogView(t *testing.T) {
	e, err := Parse(catalogSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctor, ok := e.(*ElemCtor)
	if !ok || ctor.Name != "catalog" {
		t.Fatalf("root = %T %v", e, String(e))
	}
	if len(ctor.Content) != 1 {
		t.Fatalf("catalog content = %d", len(ctor.Content))
	}
	fl, ok := ctor.Content[0].(*FLWOR)
	if !ok {
		t.Fatalf("content = %T", ctor.Content[0])
	}
	if len(fl.Clauses) != 3 {
		t.Fatalf("clauses = %d, want 3 (for, let, let)", len(fl.Clauses))
	}
	fc, ok := fl.Clauses[0].(ForClause)
	if !ok || fc.Var != "prodname" {
		t.Errorf("clause 0 = %v", fl.Clauses[0])
	}
	if _, ok := fc.Seq.(*FnCall); !ok {
		t.Errorf("for seq = %T, want distinct(...)", fc.Seq)
	}
	lc, ok := fl.Clauses[1].(LetClause)
	if !ok || lc.Var != "products" {
		t.Errorf("clause 1 = %v", fl.Clauses[1])
	}
	// where count($vendors) >= 2
	cmp, ok := fl.Where.(*Cmp)
	if !ok || cmp.Op != ">=" {
		t.Fatalf("where = %v", String(fl.Where))
	}
	cnt, ok := cmp.L.(*FnCall)
	if !ok || cnt.Name != "count" {
		t.Errorf("where lhs = %v", String(cmp.L))
	}
	// return <product name={$prodname}> with a nested FLWOR.
	prod, ok := fl.Return.(*ElemCtor)
	if !ok || prod.Name != "product" {
		t.Fatalf("return = %v", String(fl.Return))
	}
	if len(prod.Attrs) != 1 || prod.Attrs[0].Name != "name" {
		t.Errorf("product attrs = %v", prod.Attrs)
	}
	if _, ok := prod.Attrs[0].Val.(*VarRef); !ok {
		t.Errorf("name attr = %T", prod.Attrs[0].Val)
	}
	inner, ok := prod.Content[0].(*FLWOR)
	if !ok {
		t.Fatalf("product content = %T", prod.Content[0])
	}
	vend, ok := inner.Return.(*ElemCtor)
	if !ok || vend.Name != "vendor" {
		t.Fatalf("inner return = %v", String(inner.Return))
	}
	// {$vendor/*}
	pth, ok := vend.Content[0].(*Path)
	if !ok || len(pth.Steps) != 1 || pth.Steps[0].Name != "*" {
		t.Errorf("vendor content = %v", String(vend.Content[0]))
	}
}

func TestParsePathsAndPredicates(t *testing.T) {
	e, err := Parse(`view('default')/vendor/row[./pid = 'P1'][./price < 100]/price`)
	if err != nil {
		t.Fatal(err)
	}
	p := e.(*Path)
	if _, ok := p.Base.(*ViewRef); !ok {
		t.Errorf("base = %T", p.Base)
	}
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	if len(p.Steps[1].Preds) != 2 {
		t.Errorf("row preds = %d", len(p.Steps[1].Preds))
	}
	// Descendant + attribute axes.
	e, err = Parse(`NEW_NODE//vendor/@vid`)
	if err != nil {
		t.Fatal(err)
	}
	p = e.(*Path)
	if p.Steps[0].Axis != "descendant" || p.Steps[1].Axis != "attribute" {
		t.Errorf("axes = %v %v", p.Steps[0].Axis, p.Steps[1].Axis)
	}
	nr, ok := p.Base.(*NodeRef)
	if !ok || nr.Old {
		t.Errorf("base = %v", p.Base)
	}
}

func TestParseOperatorsAndPrecedence(t *testing.T) {
	e, err := Parse(`1 + 2 * 3 = 7 and not(2 > 3) or $x = 'a'`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := e.(*Logic)
	if !ok || or.Op != "or" || len(or.Args) != 2 {
		t.Fatalf("top = %v", String(e))
	}
	and, ok := or.Args[0].(*Logic)
	if !ok || and.Op != "and" {
		t.Fatalf("lhs = %v", String(or.Args[0]))
	}
	cmp := and.Args[0].(*Cmp)
	add := cmp.L.(*Arith)
	if add.Op != "+" {
		t.Errorf("expected + at top of arith, got %s", add.Op)
	}
	if mul := add.R.(*Arith); mul.Op != "*" {
		t.Errorf("expected * to bind tighter")
	}
}

func TestParseQuantified(t *testing.T) {
	e, err := Parse(`some $v in NEW_NODE/vendor satisfies $v/price < 100`)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := e.(*Quantified)
	if !ok || q.Every || q.Var != "v" {
		t.Fatalf("quantified = %v", String(e))
	}
	e, err = Parse(`every $v in $s satisfies $v > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if q := e.(*Quantified); !q.Every {
		t.Error("every not recognized")
	}
}

func TestParseIf(t *testing.T) {
	e, err := Parse(`if ($x > 1) then 'big' else 'small'`)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := e.(*IfExpr)
	if !ok {
		t.Fatalf("= %T", e)
	}
	if _, ok := f.Then.(*Lit); !ok {
		t.Error("then branch")
	}
}

func TestParseConstructorForms(t *testing.T) {
	// Self-closing, literal attribute, nested text.
	e, err := Parse(`<a x="1" y={$v}><b/>{$w}text</a>`)
	if err != nil {
		t.Fatal(err)
	}
	a := e.(*ElemCtor)
	if len(a.Attrs) != 2 {
		t.Fatalf("attrs = %d", len(a.Attrs))
	}
	if l, ok := a.Attrs[0].Val.(*Lit); !ok || l.V.AsString() != "1" {
		t.Errorf("x attr = %v", a.Attrs[0].Val)
	}
	if len(a.Content) != 3 {
		t.Fatalf("content = %d", len(a.Content))
	}
	if b := a.Content[0].(*ElemCtor); b.Name != "b" || len(b.Content) != 0 {
		t.Errorf("b = %v", String(a.Content[0]))
	}
	if l, ok := a.Content[2].(*Lit); !ok || l.V.AsString() != "text" {
		t.Errorf("text = %v", String(a.Content[2]))
	}
	// Attribute with enclosed-in-quotes form name="{expr}".
	e, err = Parse(`<a x="{$v}"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*ElemCtor).Attrs[0].Val.(*VarRef); !ok {
		t.Error("quoted enclosed attr not parsed as expression")
	}
}

func TestParseComments(t *testing.T) {
	e, err := Parse(`(: ignore me :) 1 + (: and me :) 2`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*Arith); !ok {
		t.Errorf("= %v", String(e))
	}
}

func TestParseDoubledQuoteStrings(t *testing.T) {
	e, err := Parse(`view(''default'')/product/row`)
	if err != nil {
		t.Fatal(err)
	}
	p := e.(*Path)
	if vr := p.Base.(*ViewRef); vr.Name != "default" {
		t.Errorf("view name = %q", vr.Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x return 1`,
		`for $x in y`,
		`let $x = 1 return $x`,
		`1 +`,
		`<a>`,
		`<a></b>`,
		`{unclosed`,
		`view(42)/x`,
		`some $v in $s`,
		`'unterminated`,
		`$`,
		`1 2`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestASTStringRoundStable(t *testing.T) {
	e, err := Parse(catalogSrc)
	if err != nil {
		t.Fatal(err)
	}
	s1 := String(e)
	if !strings.Contains(s1, "count(") || !strings.Contains(s1, "for $vendor") {
		t.Errorf("ast string: %s", s1)
	}
	// Numbers parse typed.
	e2, _ := Parse(`1.5`)
	if l := e2.(*Lit); !xdm.Equal(l.V, xdm.Float(1.5)) {
		t.Error("typed number literal")
	}
}

// Walk meets an expression's literals in AppendAbstract's "?" order, in
// every kind of node: filling the "?"s with them in that order gives the
// source text back.
func TestWalkMeetsLiteralsInAbstractOrder(t *testing.T) {
	for _, src := range []string{
		catalogSrc,
		`some $v in NEW_NODE/vendor[./price > 5] satisfies $v/price * 2 - 1 < 100 and $v/vid = 'a'`,
		`if (count(OLD_NODE/x[. = 1]) > 2) then concat('a', 3) else not(4 div 5 = 6)`,
		`every $v in $s satisfies ($v = 7 or $v = 8)`,
		`<a x={1 + 2}>{'t'}{for $i in view('default')/t/row[./c = 9] let $j := 10 where $i/d != 11 return <b>{12}</b>}</a>`,
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		filled := string(AppendAbstract(nil, e))
		n := 0
		Walk(e, func(x Expr) bool {
			if l, ok := x.(*Lit); ok {
				filled = strings.Replace(filled, "?", l.V.String(), 1)
				n++
			}
			return true
		})
		if filled != String(e) || n == 0 {
			t.Errorf("%s: %d literals fill the abstract text to\n%s\nwant\n%s", src, n, filled, String(e))
		}
		visits := 0
		Walk(e, func(Expr) bool { visits++; return false })
		if visits != 1 {
			t.Errorf("%s: Walk went on past a false after %d visits", src, visits)
		}
	}
}
