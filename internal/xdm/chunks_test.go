package xdm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// build constructs <e id={i} v={f}><k>{i}</k>{f}</e> from c, the shape of a
// view's leaf element: six nodes, two lists and four numbers.
func build(c *Chunks, i int64, f float64) *Node {
	k := c.Elem("k", Int(i))
	return c.Elem("e", NodeVal(c.Attr("id", Int(i))), NodeVal(c.Attr("v", Float(f))), NodeVal(k), Float(f))
}

// buildFootprint is what build takes.
func buildFootprint(i int64, f float64) Footprint {
	return Footprint{Nodes: 6, Slots: 5, Bytes: 2*TextBytes(Int(i)) + 2*TextBytes(Float(f))}
}

func reference(i int64, f float64) *Node {
	return Elem("e", Attr("id", Int(i).Lexical()), Attr("v", Float(f).Lexical()),
		Elem("k", TextNd(Int(i).Lexical())), TextNd(Float(f).Lexical()))
}

// buildPass constructs build's element for each argument pair from c the
// way a Project pass does: before a tuple that its block was not cut for,
// it cuts one for as many of the tuples ahead as fit.
func buildPass(c *Chunks, is []int64, fs []float64) []*Node {
	out := make([]*Node, len(is))
	block := 0
	for t := range is {
		if block == 0 {
			var b Footprint
			for u := t; u < len(is); u++ {
				next := b.Add(buildFootprint(is[u], fs[u]))
				if block > 0 && !next.Fits() {
					break
				}
				b, block = next, block+1
			}
			c.Cut(b)
		}
		block--
		out[t] = build(c, is[t], fs[t])
	}
	return out
}

func args(n int, i func(int) int64, f func(int) float64) ([]int64, []float64) {
	is, fs := make([]int64, n), make([]float64, n)
	for k := range is {
		is[k], fs[k] = i(k), f(k)
	}
	return is, fs
}

// What comes out of chunks is what the object-at-a-time constructors build,
// across every block boundary, and stays that way while later tuples are
// carved from the same block and from its successors.
func TestChunksBuildTheSameNodes(t *testing.T) {
	const tuples = 3 * maxChunkNodes // several blocks
	is, fs := args(tuples, func(k int) int64 { return int64(k) * 977 },
		func(k int) float64 { return float64(k)*1e5 + 0.5*float64(k%2) })
	var c Chunks
	got := buildPass(&c, is, fs)
	for k, n := range got {
		want := reference(is[k], fs[k])
		if !n.DeepEqual(want) || n.Serialize(false) != want.Serialize(false) {
			t.Fatalf("tuple %d: %s, want %s", k, n.Serialize(false), want.Serialize(false))
		}
	}
}

// Every list a Chunks hands out is full: appending to a finished node's list
// moves that list and leaves the lists carved next to it alone.
func TestChunksListsHaveNoSpareCapacity(t *testing.T) {
	is, fs := args(50, func(k int) int64 { return int64(1000 + k) }, func(int) float64 { return 1 })
	var c Chunks
	nodes := buildPass(&c, is, fs)
	for i, n := range nodes {
		for _, x := range []*Node{n, n.Children()[0]} {
			if cap(x.content()) != len(x.content()) {
				t.Fatalf("tuple %d: a list of %d has capacity %d", i, len(x.content()), cap(x.content()))
			}
		}
	}
	before := make([]string, len(nodes))
	for i, n := range nodes {
		before[i] = n.Serialize(false)
	}
	nodes[20].AppendChild(Attr("late", "x")).AppendChild(TextNd("late"))
	nodes[20].Children()[0].AppendChild(TextNd("late"))
	for i, n := range nodes {
		if got := n.Serialize(false); i != 20 && got != before[i] {
			t.Errorf("tuple %d changed when tuple 20 was appended to: %s, was %s", i, got, before[i])
		}
	}
	if want := `<e id="1020" late="x" v="1.00"><k>1020late</k>1.00late</e>`; nodes[20].Serialize(false) != want {
		t.Errorf("tuple 20 = %s, want %s", nodes[20].Serialize(false), want)
	}
}

// A pass cut for its footprint allocates one block — a chunk of nodes, of
// lists and of text — and nothing else: one tuple or forty (240 nodes, one
// block). The zero value allocates object by object, no more than the
// object-at-a-time constructors.
func TestChunksAllocations(t *testing.T) {
	var sink *Node
	plain := testing.AllocsPerRun(100, func() { sink = reference(123456, 7) })
	zero := testing.AllocsPerRun(100, func() { sink = build(new(Chunks), 123456, 7) })
	if zero > plain {
		t.Errorf("zero value: %.0f allocations, constructors %.0f", zero, plain)
	}
	one := testing.AllocsPerRun(100, func() {
		var c Chunks
		c.Cut(buildFootprint(123456, 7))
		sink = build(&c, 123456, 7)
	})
	if one > 3 {
		t.Errorf("one-tuple pass: %.0f allocations, want at most 3 (one block)", one)
	}
	const tuples = 40
	fp := buildFootprint(123456, 7)
	many := testing.AllocsPerRun(100, func() {
		var c Chunks
		c.Cut(Footprint{tuples * fp.Nodes, tuples * fp.Slots, tuples * fp.Bytes})
		for i := 0; i < tuples; i++ {
			sink = build(&c, 123456, 7)
		}
	})
	if many > 3 {
		t.Errorf("%d-tuple pass: %.0f allocations, want at most 3 (one block)", tuples, many)
	}
	_ = sink
}

// Keeping one tuple's element keeps its block and nothing else of the pass:
// the three chunks change over together, between tuples, so no list chunk
// holds nodes of two node chunks for the collector to follow from one block
// into the next.
func TestChunksRetainedTuplePinsOneBlock(t *testing.T) {
	const passes, tuples = 50, 5000 // a pass constructs about 2 MB
	kept := make([]*Node, 0, passes)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for p := 0; p < passes; p++ {
		is, fs := args(tuples, func(i int) int64 { return int64(1000*p + i) }, func(i int) float64 { return float64(i) })
		var c Chunks
		kept = append(kept, buildPass(&c, is, fs)[97*p])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d retained tuples pin %d bytes", len(kept), grown)
	if len(kept) != passes || grown > passes*32<<10 {
		t.Errorf("%d retained tuples pin %d bytes, want at most 32 KB each", len(kept), grown)
	}
	runtime.KeepAlive(kept)
}

// The bounds are what the godoc says: a node is 32 bytes, a chunk of nodes
// fills the 21,760-byte size class exactly, and the three chunks a node can
// pin fit in 32 KB.
func TestChunkBounds(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 32 {
		t.Errorf("a Node is %d bytes, want 32", got)
	}
	if got := maxChunkNodes * int(unsafe.Sizeof(Node{})); got != 21760 {
		t.Errorf("a chunk of %d nodes is %d bytes, want the 21,760-byte size class filled", maxChunkNodes, got)
	}
	if total := 21760 + 8*maxChunkSlots + maxChunkText; total > 32<<10 {
		t.Errorf("a node can pin %d bytes of chunks, want at most 32 KB", total)
	}
}

// lexical is Lexical, whichever way the digits are stored, and TextBytes
// makes room for them: exactly for integers and integral floats.
func TestChunksLexical(t *testing.T) {
	vals := []Value{Int(0), Int(99), Int(100), Int(-1), Int(-1 << 63), Int(1<<63 - 1), Float(0), Float(math.Copysign(0, -1)),
		Float(7), Float(-7), Float(2.5), Float(1e15), Float(999999999999999), Float(-999999999999999), Float(-123456789),
		Float(1.7976931348623157e308), Float(-2.2250738585072014e-308), Float(0.00012345678901234567), Float(math.NaN()),
		Float(math.Inf(-1)), Str("s"), True, Null, NodeVal(Elem("n"))}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, Int(r.Int63()>>r.Intn(63)-1<<40), Float(r.NormFloat64()*math.Pow(10, float64(r.Intn(40)-20))),
			Float(math.Trunc(r.NormFloat64()*math.Pow(10, float64(r.Intn(16))))))
	}
	var want Footprint
	for _, v := range vals {
		want.Bytes += TextBytes(v)
	}
	for _, c := range []*Chunks{new(Chunks), new(Chunks)} {
		c.Cut(want)
		for _, v := range vals {
			if got, want := c.lexical(v), v.Lexical(); got != want {
				t.Errorf("lexical(%v) = %q, want %q", v, got, want)
			}
			b := v.appendNumber(nil)
			exact := v.kind == KindInt || v.kind == KindFloat && v.f() == math.Trunc(v.f()) && math.Abs(v.f()) < 1e15
			switch n := TextBytes(v); {
			case !v.IsNumeric() || v.kind == KindInt && 0 <= v.i() && v.i() < 100:
				if n != 0 {
					t.Errorf("TextBytes(%v) = %d, want 0: nothing is formatted", v, n)
				}
			case exact && n != len(b), n < len(b) || n > MaxNumberBytes:
				t.Errorf("TextBytes(%v) = %d for %q", v, n, b)
			}
		}
		want = Footprint{} // the second Chunks has no text chunk: every number allocates on its own
	}
}
