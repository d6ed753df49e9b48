package xdm

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestParseNestingIsBounded: Parse recurses once per nesting level and its
// input arrives from outside (SQL text, through sqlshim's xml_parse), so it
// must refuse deep input instead of overflowing the stack. Three million
// levels (21 MB) killed the test binary before the bound; 256 levels parse.
func TestParseNestingIsBounded(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("<a>", n) + strings.Repeat("</a>", n) }
	n, err := Parse(nest(maxParseDepth))
	if err != nil {
		t.Fatalf("%d levels: %v", maxParseDepth, err)
	}
	if got := len(n.Descendants("a", nil)); got != maxParseDepth-1 {
		t.Errorf("descendants = %d, want %d", got, maxParseDepth-1)
	}
	// The bound is on depth, not on how many elements were opened and closed.
	if _, err := Parse("<r>" + strings.Repeat(nest(maxParseDepth-1), 3) + "</r>"); err != nil {
		t.Errorf("three siblings of %d levels under a root: %v", maxParseDepth-1, err)
	}
	start := time.Now()
	for _, levels := range []int{maxParseDepth + 1, 3_000_000} {
		_, err := Parse(nest(levels))
		if err == nil || !strings.Contains(err.Error(), "deeper than 256 levels") {
			t.Errorf("%d levels: err = %.120v, want the nesting-limit error", levels, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("refusing deep input took %v", d)
	}
}

// FuzzParse: Parse never panics, and what it accepts reaches a fixed point
// after one round trip — Serialize(Parse(s)) parses, and parses back to
// itself. (The first trip may normalise: attribute order, dropped blank
// text, entity spelling, invalid UTF-8.)
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		catalogFixture().Serialize(false),
		`<a x="1&amp;2" b='q"r'><b/>t&lt;u &gt; v</a>`,
		`<a> <b> x </b> </a>`,
		"<a z='1' y='2' z='3'>\xff&amp;lt;</a>",
		strings.Repeat("<a>", 300),
		"", "<", "<a", "<a x", "<a x=", `<a x="`, "<a></b>", "<a/><b/>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := Parse(s)
		if err != nil {
			return
		}
		once := n.Serialize(false)
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("Serialize(Parse(%q)) = %q does not parse: %v", s, once, err)
		}
		if twice := back.Serialize(false); twice != once {
			t.Fatalf("Parse(%q): round trips to %q, then to %q", s, once, twice)
		}
	})
}

// FuzzValueRoundTrip holds the one-pointer Value to what a field per kind
// would give by construction: what goes into a constructor comes back out of
// the accessor, a string is its bytes and not their address, and the three
// key forms agree with each other and never merge values Equal tells apart.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(int64(0), 0.0, "")
	f.Add(int64(1), 1.0, "1")
	f.Add(int64(-1), math.Copysign(0, -1), "\x00i1")
	f.Add(int64(7), 0.5, "1.00")
	f.Add(int64(1)<<53+1, 1e19, "h\xc3\xa9llo")
	f.Add(int64(math.MinInt64), math.Inf(1), "a\x00b")
	f.Add(int64(math.MaxInt64), -0x1p63, strings.Repeat("k", 100))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string) {
		var zero Value
		if !zero.IsNull() || zero.Kind() != KindNull || !NodeVal(nil).IsNull() || !Equal(zero, Null) {
			t.Fatal("the zero Value and NodeVal(nil) must be Null")
		}

		// One string over two backing arrays is one value.
		a, b := Str(s), Str(string(append([]byte(nil), s...)))
		if a.AsString() != s || b.AsString() != s || a.Lexical() != s {
			t.Fatalf("Str(%q) reads back %q, %q", s, a.AsString(), b.AsString())
		}
		if !Equal(a, b) || Compare(a, b) != 0 || a.Key() != b.Key() || a.CompKey() != b.CompKey() {
			t.Fatalf("two copies of %q differ", s)
		}
		ta, tb := []Value{a, Int(i)}, []Value{b, Int(i)}
		if RowKey(ta) != RowKey(tb) || TupleKey(ta) != TupleKey(tb) || ColsKey(ta, []int{1, 0}) != ColsKey(tb, []int{1, 0}) {
			t.Fatalf("tuples over two copies of %q key differently", s)
		}
		// An empty string cut from a longer one pins nothing.
		if e := Str((s + "tail")[:0]); e.ptr != nil || e.AsString() != "" || !Equal(e, Str("")) {
			t.Fatalf("empty string keeps pointer %v", e.ptr)
		}

		// Exactly the values with no pointer may live in pointer-free memory,
		// and come back out of it unchanged.
		n := Elem("e", TextNd(s))
		free := []Value{Null, True, Int(i), Float(fl), Str("")}
		if a.PointerFree() != (s == "") || NodeVal(n).PointerFree() || Seq([]Value{a}).PointerFree() {
			t.Fatalf("PointerFree is wrong for %q, a node or a sequence", s)
		}
		// The nil sequence, like the empty string, points at nothing.
		free = append(free, Seq(nil))
		slab := PointerFreeValues(len(free))
		for j, v := range free {
			if !v.PointerFree() {
				t.Fatalf("%v holds a pointer", v)
			}
			slab[j] = v
		}
		for j, v := range slab {
			if v.kind != free[j].kind || v.num != free[j].num || v.ptr != nil {
				t.Fatalf("pointer-free memory gave back %v for %v", v, free[j])
			}
		}

		// Nodes and sequences come back as the very objects that went in.
		if NodeVal(n).AsNode() != n || Str(s).AsNode() != nil {
			t.Fatal("NodeVal does not round-trip its node")
		}
		elems := []Value{Int(i), a}
		if got := Seq(elems).AsSeq(); len(got) != 2 || &got[0] != &elems[0] || Seq(elems).SeqLen() != 2 {
			t.Fatal("Seq does not round-trip its slice")
		}
		if got := Seq(nil).AsSeq(); len(got) != 0 {
			t.Fatalf("Seq(nil) has %d elements", len(got))
		}

		// Numbers read back exactly, and spell as they always did.
		if v := Int(i); v.AsInt() != i || v.Lexical() != strconv.FormatInt(i, 10) {
			t.Fatalf("Int(%d) reads back %d, %q", i, v.AsInt(), v.Lexical())
		}
		if v := Float(fl); math.Float64bits(v.AsFloat()) != math.Float64bits(fl) {
			t.Fatalf("Float(%v) reads back %v", fl, v.AsFloat())
		}
		want := strconv.FormatFloat(fl, 'g', -1, 64)
		if fl == math.Trunc(fl) && math.Abs(fl) < 1e15 {
			want = strconv.FormatFloat(fl, 'f', 2, 64)
		}
		if got := Float(fl).Lexical(); got != want {
			t.Fatalf("Float(%v).Lexical() = %q, want %q", fl, got, want)
		}

		// Over every pair of a small pool the three key forms agree, and
		// equal keys mean Equal values. NaN is out: it keys, but equals
		// nothing.
		if fl != fl {
			fl = 0
		}
		pool := []Value{
			Null, True, False, Int(i), Float(float64(i)), Float(fl), Int(int64(fl)), a, b,
			Str(""), Str(strconv.FormatInt(i, 10)), Float(1e19), Float(2e19), Float(math.Inf(-1)),
			Int(math.MinInt64), Float(-0x1p63),
			NodeVal(Elem("e")), NodeVal(Elem("f")), Seq(elems), Seq([]Value{Int(i)}),
		}
		for _, x := range pool {
			for _, y := range pool {
				k := x.Key() == y.Key()
				ck := x.CompKey() == y.CompKey()
				tk := TupleKey([]Value{x}) == TupleKey([]Value{y})
				rk := RowKey([]Value{x, x}) == RowKey([]Value{y, y})
				if k != ck || k != tk || k != rk {
					t.Fatalf("%v, %v: Key %v, CompKey %v, TupleKey %v, RowKey %v", x, y, k, ck, tk, rk)
				}
				if k && !Equal(x, y) {
					t.Fatalf("%v and %v share a key but are not Equal", x, y)
				}
			}
		}
	})
}
