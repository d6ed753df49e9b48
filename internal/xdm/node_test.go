package xdm

import (
	"strings"
	"testing"
)

func catalogFixture() *Node {
	return Elem("catalog",
		Elem("product", Attr("name", "CRT 15"),
			Elem("vendor",
				Elem("pid", TextNd("P1")),
				Elem("vid", TextNd("Amazon")),
				Elem("price", TextNd("100.00"))),
			Elem("vendor",
				Elem("pid", TextNd("P1")),
				Elem("vid", TextNd("Bestbuy")),
				Elem("price", TextNd("120.00")))),
	)
}

func TestElemConstruction(t *testing.T) {
	n := catalogFixture()
	if n.Name != "catalog" || n.Kind() != ElementNode {
		t.Fatal("root element wrong")
	}
	prods := n.ChildElements("product")
	if len(prods) != 1 {
		t.Fatalf("want 1 product, got %d", len(prods))
	}
	if v, ok := prods[0].Attribute("name"); !ok || v != "CRT 15" {
		t.Errorf("attribute name = %q, %v", v, ok)
	}
	if _, ok := prods[0].Attribute("missing"); ok {
		t.Error("missing attribute reported present")
	}
	if len(prods[0].ChildElements("vendor")) != 2 {
		t.Error("want 2 vendors")
	}
	if len(prods[0].ChildElements("*")) != 2 {
		t.Error("wildcard children")
	}
}

func TestAttrRoutedToAttrs(t *testing.T) {
	n := Elem("e", Attr("a", "1"), TextNd("x"))
	if len(n.Attrs()) != 1 || len(n.Children()) != 1 {
		t.Fatalf("attrs=%d children=%d", len(n.Attrs()), len(n.Children()))
	}
	n.AppendChild(Attr("b", "2"))
	if len(n.Attrs()) != 2 {
		t.Error("AppendChild should route attribute nodes to Attrs")
	}
}

func TestDescendants(t *testing.T) {
	n := catalogFixture()
	var got []*Node
	got = n.Descendants("vendor", got)
	if len(got) != 2 {
		t.Errorf("descendant vendors = %d, want 2", len(got))
	}
	all := n.Descendants("*", nil)
	// product, 2 vendors, each vendor has 3 children = 1+2+6 = 9
	if len(all) != 9 {
		t.Errorf("all descendants = %d, want 9", len(all))
	}
}

func TestTextContent(t *testing.T) {
	n := Elem("a", Elem("b", TextNd("x")), TextNd("y"), Elem("c", Elem("d", TextNd("z"))))
	if got := n.TextContent(); got != "xyz" {
		t.Errorf("TextContent = %q, want xyz", got)
	}
	if Attr("k", "v").TextContent() != "v" {
		t.Error("attribute TextContent")
	}
	var nilNode *Node
	if nilNode.TextContent() != "" {
		t.Error("nil TextContent")
	}
}

func TestAppendContent(t *testing.T) {
	child := Elem("c", TextNd("x"))
	e := Elem("e")
	for _, v := range []Value{
		Null,
		NodeVal(child),
		NodeVal(Attr("a", "1")),
		Seq([]Value{Int(7), Seq([]Value{NodeVal(child), Null}), Float(2)}),
		Str("t"),
	} {
		e.AppendContent(new(Chunks), v)
	}
	if got, want := e.Serialize(false), `<e a="1"><c>x</c>7<c>x</c>2.00t</e>`; got != want {
		t.Errorf("content = %s, want %s", got, want)
	}
	// Nodes are immutable once constructed, so content is shared, not copied.
	if e.Children()[0] != child || e.Children()[2] != child {
		t.Error("node content was copied instead of shared")
	}
}

// Attributes arriving as content are counted as attributes, not among the
// children: the element's list comes out exactly full, whatever the mix.
func TestAppendContentSizesListsExactly(t *testing.T) {
	child := Elem("c")
	mixed := []Value{
		NodeVal(Attr("a", "1")), Null, NodeVal(child), Int(7),
		Seq([]Value{NodeVal(Attr("b", "2")), NodeVal(child), Null, Str("t")}),
	}
	for name, e := range map[string]*Node{
		"empty element":     Elem("e"),
		"element with both": Elem("e", Attr("z", "0"), TextNd("first")),
	} {
		attrs, children := len(e.Attrs()), len(e.Children())
		e.AppendContent(new(Chunks), mixed...)
		if len(e.Attrs()) != attrs+2 || len(e.Children()) != children+4 {
			t.Errorf("%s: %d attributes and %d children, want %d and %d", name, len(e.Attrs()), len(e.Children()), attrs+2, children+4)
		}
		if cap(e.content()) != len(e.content()) {
			t.Errorf("%s: list len %d cap %d, want no spare capacity", name, len(e.content()), cap(e.content()))
		}
	}
}

func TestDeepEqual(t *testing.T) {
	a := catalogFixture()
	b := catalogFixture()
	if !a.DeepEqual(b) {
		t.Error("identical trees unequal")
	}
	// Attribute order should not matter.
	x := Elem("e", Attr("a", "1"), Attr("b", "2"))
	y := Elem("e", Attr("b", "2"), Attr("a", "1"))
	if !x.DeepEqual(y) {
		t.Error("attribute order should not affect equality")
	}
	// Child order does matter.
	p := Elem("e", Elem("a"), Elem("b"))
	q := Elem("e", Elem("b"), Elem("a"))
	if p.DeepEqual(q) {
		t.Error("child order must affect equality")
	}
	if a.DeepEqual(nil) {
		t.Error("non-nil vs nil")
	}
	var nn *Node
	if !nn.DeepEqual(nil) {
		t.Error("nil vs nil")
	}
	// Attribute and text content matter.
	if Elem("e", Attr("a", "1")).DeepEqual(Elem("e", Attr("a", "2"))) || Elem("e", Attr("a", "1")).DeepEqual(Elem("e", Attr("b", "1"))) {
		t.Error("attribute name and value must affect equality")
	}
	if Elem("e", TextNd("x")).DeepEqual(Elem("e", TextNd("y"))) {
		t.Error("text must affect equality")
	}
}

// TestDeepEqualAllocatesNothing: the spurious-update filter compares an
// OLD_NODE with a NEW_NODE on every firing of a non-injective view, over
// children that each carry attributes.
func TestDeepEqualAllocatesNothing(t *testing.T) {
	tree := func(last string) *Node {
		e := Elem("e0", Attr("name", "n"))
		for i := 0; i < 64; i++ {
			text := "50"
			if i == 63 {
				text = last
			}
			e.AppendChild(Elem("e1", Attr("id", "7"), Attr("k", "v"), Elem("payload", TextNd(text))))
		}
		return e
	}
	a, b, c := tree("50"), tree("50"), tree("51")
	var eq, ne bool
	allocs := testing.AllocsPerRun(100, func() { eq, ne = a.DeepEqual(b), a.DeepEqual(c) })
	if !eq || ne {
		t.Fatalf("DeepEqual = %t (equal trees), %t (last child differs)", eq, ne)
	}
	if allocs != 0 {
		t.Errorf("DeepEqual of two 64-child trees allocates %.0f objects, want 0", allocs)
	}
}

func TestSerializeCompact(t *testing.T) {
	n := Elem("product", Attr("name", "CRT 15"),
		Elem("vendor", Elem("vid", TextNd("Amazon"))))
	got := n.Serialize(false)
	want := `<product name="CRT 15"><vendor><vid>Amazon</vid></vendor></product>`
	if got != want {
		t.Errorf("Serialize = %q, want %q", got, want)
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := Elem("e", Attr("a", `x"<&`), TextNd("1<2&3>4"))
	got := n.Serialize(false)
	if !strings.Contains(got, `a="x&quot;&lt;&amp;"`) {
		t.Errorf("attribute escaping: %q", got)
	}
	if !strings.Contains(got, "1&lt;2&amp;3&gt;4") {
		t.Errorf("text escaping: %q", got)
	}
}

func TestSerializeEmptyElement(t *testing.T) {
	if got := Elem("empty").Serialize(false); got != "<empty/>" {
		t.Errorf("empty element = %q", got)
	}
}

func TestSerializeDeterministicAttrOrder(t *testing.T) {
	x := Elem("e", Attr("b", "2"), Attr("a", "1"))
	y := Elem("e", Attr("a", "1"), Attr("b", "2"))
	if x.Serialize(false) != y.Serialize(false) {
		t.Error("serialization must canonicalize attribute order")
	}
}

func TestSerializeIndent(t *testing.T) {
	n := catalogFixture()
	out := n.Serialize(true)
	if !strings.Contains(out, "\n") {
		t.Error("indented form should be multi-line")
	}
	// Round-trip through the parser.
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("Parse(indented): %v", err)
	}
	if !back.DeepEqual(n) {
		t.Error("indent round-trip lost structure")
	}
}

func TestParseRoundTrip(t *testing.T) {
	n := catalogFixture()
	out := n.Serialize(false)
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !back.DeepEqual(n) {
		t.Errorf("round trip mismatch:\n in: %s\nout: %s", out, back.Serialize(false))
	}
}

func TestParseSelfClosingAndEntities(t *testing.T) {
	n, err := Parse(`<a x="1&amp;2"><b/>t&lt;u</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Attribute("x"); v != "1&2" {
		t.Errorf("entity in attr: %q", v)
	}
	if n.TextContent() != "t<u" {
		t.Errorf("entity in text: %q", n.TextContent())
	}
	if len(n.ChildElements("b")) != 1 {
		t.Error("self-closing child")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"no tags",
		"<a>",
		"<a></b>",
		"<a x=1></a>",
		`<a x="1></a>`,
		"<a></a><b></b>",
		"<a></a>trailing",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestNodeValueIntegration(t *testing.T) {
	n := catalogFixture()
	v := NodeVal(n)
	if v.AsNode() != n {
		t.Error("AsNode identity")
	}
	w := NodeVal(catalogFixture())
	if !Equal(v, w) {
		t.Error("Equal should use DeepEqual for nodes")
	}
	if v.Key() != w.Key() {
		t.Error("Key should match for deep-equal nodes")
	}
}
