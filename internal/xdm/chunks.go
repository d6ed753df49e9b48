package xdm

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Chunks is the allocator an operator pass constructs XML from. Node structs
// are carved from a []Node, element lists from one []*Node, and the lexical
// forms of numbers from one strings.Builder whose String() substrings share
// its buffer, so a pass that constructs a thousand elements makes a few
// dozen heap objects instead of five thousand. The zero value is ready to
// use and builds object by object, exactly as Elem, Attr and TextNd do; a
// pass that calls Cut before the tuples it constructs for gets chunks.
//
// Sizing: the pass knows what each tuple takes before constructing it — a
// Project operator's constructors have a fixed Footprint, recorded when the
// plan is prepared, plus the content of the sequences they splice and the
// digits of the numbers they format, read from the tuple — so it cuts a
// block exactly the size of the tuples it is for: as many of the tuples to
// come as fit the block bounds, at least one. A pass that fits the bounds,
// one tuple or forty, allocates one block: three objects. Where a tuple
// takes more than its footprint said (an expression whose result the plan
// cannot size), the excess is allocated object by object.
//
// Rules, for whoever changes this:
//
//   - Chunks are never reused: there is no reset and no pool. Constructed
//     nodes escape to actions, dispatcher lanes, unacknowledged outbox records
//     and materialized snapshots, and a chunk dies when the last node, list or
//     string carved from it does. A Chunks serves one pass; the next pass
//     starts from the zero value.
//   - Every list handed out has cap == len, so an AppendChild on a delivered
//     node reallocates that node's list instead of writing into its
//     neighbour's. (Delivered nodes are immutable by contract; this keeps a
//     breach local. A Node keeps its list's start and length, not its
//     capacity, so the rule holds for any list it is given.)
//   - A block is bounded — maxChunkNodes, maxChunkSlots, maxChunkText, under
//     32 KB between them — and its three chunks are replaced together, between
//     tuples, never one at a time: a pointer into a chunk keeps all of it
//     alive and the collector follows every list and node in it, so chunks
//     that changed over at different tuples would chain a whole pass together
//     through the tuples they share. As it is, a consumer that keeps one
//     element pins that element's block, not its pass. (A single tuple larger
//     than the bounds gets a block to itself.)
//
// A Chunks must not be copied after first use and is not safe for concurrent
// use; the nodes it built are as shareable as any others.
type Chunks struct {
	nodes []Node          // unused tail of the block's node chunk
	lists []*Node         // unused tail of the block's list chunk
	chars strings.Builder // the block's text chunk, filled so far
	built int             // nodes constructed
}

// Footprint is what constructing takes from a Chunks: nodes, list slots and
// bytes of number text.
type Footprint struct{ Nodes, Slots, Bytes int }

// Add returns the footprint of f and g together.
func (f Footprint) Add(g Footprint) Footprint {
	return Footprint{f.Nodes + g.Nodes, f.Slots + g.Slots, f.Bytes + g.Bytes}
}

// Fits reports whether f fits in one block.
func (f Footprint) Fits() bool {
	return f.Nodes <= maxChunkNodes && f.Slots <= maxChunkSlots && f.Bytes <= maxChunkText
}

// ContentFootprint is what AppendContent takes from a Chunks to add v to an
// element: a list slot per node it adds, and for an atomic value a text node
// and the bytes of its digits.
func ContentFootprint(v Value) Footprint {
	switch v.kind {
	case KindNull:
		return Footprint{}
	case KindNode:
		if v.node() == nil {
			return Footprint{}
		}
		return Footprint{Slots: 1}
	case KindSeq:
		var f Footprint
		for _, x := range v.seq() {
			if x.kind == KindNode && x.node() != nil { // the common item: no call
				f.Slots++
			} else {
				f = f.Add(ContentFootprint(x))
			}
		}
		return f
	}
	return Footprint{Nodes: 1, Slots: 1, Bytes: TextBytes(v)}
}

// TextBytes bounds the bytes v's lexical form takes in a text chunk: the
// digits of a number — exactly for an integer or an integral float, at most
// MaxNumberBytes for any other float — and nothing for an integer in 0..99
// or a value that is not a number, whose lexical form needs no formatting.
func TextBytes(v Value) int {
	switch v.kind {
	case KindInt:
		if i := v.i(); i < 0 || i >= 100 {
			return intLen(i)
		}
	case KindFloat:
		// appendNumber's integral case, without a call to math.Trunc.
		if f := v.f(); -1e15 < f && f < 1e15 {
			if i := int64(f); float64(i) == f {
				if i == 0 && math.Signbit(f) {
					return len("-0.00")
				}
				return intLen(i) + len(".00")
			}
		}
		return MaxNumberBytes
	}
	return 0
}

// intLen is the length of i in decimal, sign included.
func intLen(i int64) int {
	n, u := 0, uint64(i)
	if i < 0 {
		n, u = 1, -u
	}
	// u has d digits if it is below 10^d, else d+1 (1233/4096 ≈ log10 2).
	u |= 1
	d := bits.Len64(u) * 1233 >> 12
	if u < pow10[d] {
		return n + d
	}
	return n + d + 1
}

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// MaxNumberBytes is the most text TextBytes reports for one value: the
// longest float appendNumber writes, "-1.2345678901234567e-308".
const MaxNumberBytes = 24

// Chunk bounds. A Node is 32 bytes: 680 of them fill Go's 21,760-byte size
// class exactly. A float's digits may be reserved at MaxNumberBytes, so the
// text chunk has room for 170 of them; the three chunks come to 29,952
// bytes.
const (
	maxChunkNodes = 680
	maxChunkSlots = 512 // 4 KB of list
	maxChunkText  = 4096
)

// Cut starts a block sized for f: the tuples about to be constructed, as
// the caller has measured them. The chunks of the last block live on in the
// nodes cut from them.
func (c *Chunks) Cut(f Footprint) {
	c.nodes = make([]Node, f.Nodes)
	c.lists = make([]*Node, f.Slots)
	c.chars = strings.Builder{}
	c.chars.Grow(f.Bytes)
}

// Built reports how many nodes have been constructed from c.
func (c *Chunks) Built() int { return c.built }

func (c *Chunks) node() *Node {
	c.built++
	if len(c.nodes) == 0 {
		return new(Node)
	}
	n := &c.nodes[0]
	c.nodes = c.nodes[1:]
	return n
}

// list returns a list of k nil nodes with no spare capacity, nil for none.
func (c *Chunks) list(k int) []*Node {
	if k == 0 {
		return nil
	}
	if len(c.lists) < k {
		return make([]*Node, k)
	}
	l := c.lists[:k:k]
	c.lists = c.lists[k:]
	return l
}

// lexical is v.Lexical() with the digits of a number written into the text
// chunk instead of a string of their own.
func (c *Chunks) lexical(v Value) string {
	if !v.IsNumeric() {
		return v.Lexical()
	}
	if i := v.i(); v.kind == KindInt && 0 <= i && i < 100 {
		return strconv.FormatInt(i, 10) // strconv keeps these; nothing is allocated
	}
	var buf [32]byte
	b := v.appendNumber(buf[:0])
	if c.chars.Cap()-c.chars.Len() < len(b) {
		return string(b)
	}
	at := c.chars.Len()
	c.chars.Write(b)
	return c.chars.String()[at:]
}

// Elem constructs an element whose content is vs, assembled as AppendContent
// assembles it.
func (c *Chunks) Elem(name string, vs ...Value) *Node {
	n := c.node()
	n.Name = name
	n.AppendContent(c, vs...)
	return n
}

// Attr constructs an attribute node whose value is v's lexical form.
func (c *Chunks) Attr(name string, v Value) *Node {
	n := c.node()
	n.Name = name
	n.setText(AttributeNode, c.lexical(v))
	return n
}

// text constructs a text node holding v's lexical form.
func (c *Chunks) text(v Value) *Node {
	n := c.node()
	n.setText(TextNode, c.lexical(v))
	return n
}
