package xdm

import (
	"reflect"
	"runtime"
	"testing"
)

// build constructs <e id={i} v={f}><k>{i}</k>{f}</e> from c, the shape of a
// view's leaf element: six nodes, three lists and four numbers.
func build(c *Chunks, i int64, f float64) *Node {
	k := c.Elem("k", 0)
	k.AppendContent(c, Int(i))
	e := c.Elem("e", 2)
	e.Attrs[0] = c.Attr("id", Int(i))
	e.Attrs[1] = c.Attr("v", Float(f))
	e.AppendContent(c, NodeVal(k), Float(f))
	return e
}

func reference(i int64, f float64) *Node {
	return Elem("e", Attr("id", Int(i).Lexical()), Attr("v", Float(f).Lexical()),
		Elem("k", TextNd(Int(i).Lexical())), TextNd(Float(f).Lexical()))
}

// What comes out of chunks is what the object-at-a-time constructors build,
// across every chunk boundary, and stays that way while later tuples are
// carved from the same chunks and from their successors.
func TestChunksBuildTheSameNodes(t *testing.T) {
	const tuples = 3 * maxChunkNodes // several node, list and text chunks
	var c Chunks
	got := make([]*Node, tuples)
	for i := range got {
		c.Tuple(tuples - i)
		got[i] = build(&c, int64(i)*977, float64(i)*1e5+0.5*float64(i%2))
	}
	for i, n := range got {
		want := reference(int64(i)*977, float64(i)*1e5+0.5*float64(i%2))
		if !n.DeepEqual(want) {
			t.Fatalf("tuple %d: %s, want %s", i, n.Serialize(false), want.Serialize(false))
		}
	}
}

// Every list a Chunks hands out is full: appending to a finished node's list
// moves that list and leaves the lists carved next to it alone.
func TestChunksListsHaveNoSpareCapacity(t *testing.T) {
	var c Chunks
	nodes := make([]*Node, 50)
	for i := range nodes {
		c.Tuple(len(nodes) - i)
		nodes[i] = build(&c, int64(1000+i), 1)
	}
	lists := func(n *Node) [][]*Node { return [][]*Node{n.Attrs, n.Children, n.Children[0].Children} }
	for i, n := range nodes {
		for _, l := range lists(n) {
			if cap(l) != len(l) {
				t.Fatalf("tuple %d: a list of %d has capacity %d", i, len(l), cap(l))
			}
		}
	}
	before := make([]string, len(nodes))
	for i, n := range nodes {
		before[i] = n.Serialize(false)
	}
	nodes[20].AppendChild(Attr("late", "x")).AppendChild(TextNd("late"))
	nodes[20].Children[0].AppendChild(TextNd("late"))
	for i, n := range nodes {
		if got := n.Serialize(false); i != 20 && got != before[i] {
			t.Errorf("tuple %d changed when tuple 20 was appended to: %s, was %s", i, got, before[i])
		}
	}
	if want := `<e id="1020" late="x" v="1.00"><k>1020late</k>1.00late</e>`; nodes[20].Serialize(false) != want {
		t.Errorf("tuple 20 = %s, want %s", nodes[20].Serialize(false), want)
	}
}

// A pass of one tuple — and any use of the zero value — allocates what the
// object-at-a-time constructors allocate; a pass of many allocates a few
// chunks.
func TestChunksAllocations(t *testing.T) {
	var sink *Node
	plain := testing.AllocsPerRun(100, func() { sink = reference(123456, 7) })
	one := testing.AllocsPerRun(100, func() {
		var c Chunks
		c.Tuple(1)
		sink = build(&c, 123456, 7)
	})
	// reference formats each number twice and lets Elem grow its lists by
	// appending; the exact count is build's with a zero Chunks.
	zero := testing.AllocsPerRun(100, func() { sink = build(new(Chunks), 123456, 7) })
	if one != zero || one > plain {
		t.Errorf("one-tuple pass: %.0f allocations, zero value %.0f, constructors %.0f", one, zero, plain)
	}
	const tuples = 40 // 234 nodes after the first tuple's: one chunk
	many := testing.AllocsPerRun(100, func() {
		var c Chunks
		for i := 0; i < tuples; i++ {
			c.Tuple(tuples - i)
			sink = build(&c, 123456, 7)
		}
	})
	// The measured first tuple, then one chunk of nodes, of lists and of text.
	if many > one+3 {
		t.Errorf("%d tuples: %.0f allocations, want the first tuple's %.0f and 3 chunks", tuples, many, one)
	}
	_ = sink
}

// Keeping one tuple's element keeps its block and nothing else of the pass:
// the three chunks change over together, between tuples, so no list chunk
// holds nodes of two node chunks for the collector to follow from one block
// into the next.
func TestChunksRetainedTuplePinsOneBlock(t *testing.T) {
	const passes, tuples = 50, 5000 // a pass constructs about 2.5 MB
	kept := make([]*Node, 0, passes)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for p := 0; p < passes; p++ {
		var c Chunks
		for i := 0; i < tuples; i++ {
			c.Tuple(tuples - i)
			if n := build(&c, int64(1000*p+i), float64(i)); i == 97*p {
				kept = append(kept, n)
			}
		}
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

// The bounds are what the godoc says: a chunk of nodes fills the
// 21,760-byte size class, and the three chunks a node can pin fit in 32 KB.
func TestChunkBounds(t *testing.T) {
	node := int(reflect.TypeOf(Node{}).Size())
	if got := maxChunkNodes * node; got > 21760 || got+node <= 21760 {
		t.Errorf("%d nodes of %d bytes = %d: not the fill of the 21,760-byte class", maxChunkNodes, node, got)
	}
	if total := 21760 + 8*maxChunkSlots + maxChunkText; total > 32<<10 {
		t.Errorf("a node can pin %d bytes of chunks, want at most 32 KB", total)
	}
}

// lexical is Lexical, whichever way the digits are stored.
func TestChunksLexical(t *testing.T) {
	var c Chunks
	c.Tuple(2)
	vals := []Value{Int(0), Int(99), Int(100), Int(-1), Int(-1 << 63), Float(0), Float(-0.0 * -1), Float(2.5),
		Float(1e15), Float(-123456789), Float(1.7976931348623157e308), Str("s"), True, Null, NodeVal(Elem("n"))}
	for round := 0; round < 3; round++ {
		c.Tuple(2 - round%2)
		for _, v := range vals {
			if got, want := c.lexical(v), v.Lexical(); got != want {
				t.Errorf("round %d: lexical(%v) = %q, want %q", round, v, got, want)
			}
		}
	}
}
