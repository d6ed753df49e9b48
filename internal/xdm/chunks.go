package xdm

import (
	"strconv"
	"strings"
)

// Chunks is the allocator an operator pass constructs XML from. Node structs
// are carved from a []Node, attribute and child lists from one []*Node, and
// the lexical forms of numbers from one strings.Builder whose String()
// substrings share its buffer, so a pass that constructs a thousand elements
// makes a few dozen heap objects instead of eight thousand. The zero value is
// ready to use and builds object by object, exactly as Elem, Attr and TextNd
// do; a pass that calls Tuple before each tuple it constructs for gets chunks.
//
// Sizing: a pass's first tuple takes each object on its own; from the second
// on, Tuple cuts a block — one chunk of nodes, one of lists, one of text —
// for what a tuple has taken so far in the pass, on average, times the tuples
// still to come, within the chunk bounds. A pass of one tuple therefore
// allocates what it would without a Chunks, and no pass reserves room for
// tuples it does not have. A tuple that needs more than its block has left
// takes the excess object by object, as the first tuple does.
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
//     breach local.)
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

	used   usage // taken so far, by every tuple of the pass
	tuples int   // tuples begun
	room   int   // tuples the block was cut for and has not seen begin
}

// usage counts nodes, list slots and bytes of text.
type usage struct{ nodes, slots, bytes int }

// Chunk bounds. A Node is 88 bytes: 247 of them fill Go's 21,760-byte size
// class (256 would spill into the 24,576-byte one and waste a tenth of it).
const (
	maxChunkNodes = 247
	maxChunkSlots = 512 // 4 KB of list
	maxChunkText  = 1024
)

// Tuple announces that construction for the next tuple begins and that left
// tuples, this one included, are still to come in the pass.
func (c *Chunks) Tuple(left int) {
	if c.tuples++; c.tuples == 1 {
		return // nothing to size a block from: the first tuple builds object by object
	}
	if c.room == 0 {
		c.cut(left)
	}
	c.room--
}

// cut starts a block for as many of the left tuples to come as the bounds
// allow, sized from what the tuples before them took between them.
func (c *Chunks) cut(left int) {
	done, n := c.tuples-1, left
	fit := func(used, limit int) {
		if used > 0 {
			n = min(n, limit*done/used)
		}
	}
	fit(c.used.nodes, maxChunkNodes)
	fit(c.used.slots, maxChunkSlots)
	fit(c.used.bytes, maxChunkText)
	n = max(n, 1)
	share := func(used int) int { return (used*n + done - 1) / done }
	c.nodes = make([]Node, share(c.used.nodes))
	c.lists = make([]*Node, share(c.used.slots))
	c.chars = strings.Builder{} // the strings cut from the old buffer keep it
	c.chars.Grow(share(c.used.bytes))
	c.room = n
}

// Built reports how many nodes have been constructed from c.
func (c *Chunks) Built() int { return c.used.nodes }

func (c *Chunks) node() *Node {
	c.used.nodes++
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
	c.used.slots += k
	if len(c.lists) < k {
		return make([]*Node, k)
	}
	l := c.lists[:k:k]
	c.lists = c.lists[k:]
	return l
}

// grow returns l with room for exactly extra more nodes.
func (c *Chunks) grow(l []*Node, extra int) []*Node {
	if extra == 0 {
		return l
	}
	return append(c.list(len(l) + extra)[:0], l...)
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
	c.used.bytes += len(b)
	if c.chars.Cap()-c.chars.Len() < len(b) {
		return string(b)
	}
	at := c.chars.Len()
	c.chars.Write(b)
	return c.chars.String()[at:]
}

// Elem constructs an element with room for attrs attributes, which the
// caller sets by index.
func (c *Chunks) Elem(name string, attrs int) *Node {
	n := c.node()
	n.Kind, n.Name, n.Attrs = ElementNode, name, c.list(attrs)
	return n
}

// Attr constructs an attribute node whose value is v's lexical form.
func (c *Chunks) Attr(name string, v Value) *Node {
	n := c.node()
	n.Kind, n.Name, n.Text = AttributeNode, name, c.lexical(v)
	return n
}

// text constructs a text node holding v's lexical form.
func (c *Chunks) text(v Value) *Node {
	n := c.node()
	n.Kind, n.Text = TextNode, c.lexical(v)
	return n
}
