package xqgm

import (
	"slices"
	"strings"

	"quark/internal/xdm"
)

// ConstTable is the relation a Constants operator reads: literal rows, or a
// trigger group's constants table (paper Section 5.1), which gains and
// loses rows after Prepare as triggers join and leave the group. Such a
// table keeps the hash index its join probes, and evaluation reads rows and
// index in place: whoever changes the table excludes the evaluations that
// read it.
type ConstTable struct {
	rows    []Tuple
	cols    []int      // what ix hashes
	ix      *hashIndex // nil: literal rows, which a join hashes as it runs
	listKey func(Tuple) string
}

// NewIndexedConstTable returns an empty table hashed on cols; Listing
// orders its rows by listKey.
func NewIndexedConstTable(cols []int, listKey func(Tuple) string) *ConstTable {
	return &ConstTable{cols: cols, ix: &hashIndex{head: map[xdm.CompKey]int32{}}, listKey: listKey}
}

// Rows returns the rows, in no particular order.
func (t *ConstTable) Rows() []Tuple { return t.rows }

// Listing returns the rows in the order a listing of the table shows them:
// by listKey, or as given.
func (t *ConstTable) Listing() []Tuple {
	out := slices.Clone(t.rows)
	if t.listKey != nil {
		slices.SortFunc(out, func(a, b Tuple) int { return strings.Compare(t.listKey(a), t.listKey(b)) })
	}
	return out
}

// Add appends row to an indexed table and returns its position. The row's
// indexed columns must not change while it is in the table.
func (t *ConstTable) Add(row Tuple) int {
	t.rows = append(t.rows, row)
	t.ix.next = append(t.ix.next, 0)
	t.ix.link(row, t.cols, len(t.rows)-1)
	return len(t.rows) - 1
}

// Remove drops the row at position i of an indexed table; the last row
// takes its place.
func (t *ConstTable) Remove(i int) {
	last := len(t.rows) - 1
	t.ix.unlink(t.rows[i], t.cols, i)
	if i != last {
		t.ix.unlink(t.rows[last], t.cols, last)
		t.ix.link(t.rows[last], t.cols, i)
	}
	t.ix.next = t.ix.next[:last]
	t.rows[i], t.rows[last] = t.rows[last], nil
	t.rows = t.rows[:last]
}

// link files tuple i, row, at the head of its key's chain: a hashed index
// built tuple by tuple chains a key's tuples in no particular order.
func (h *hashIndex) link(row Tuple, cols []int, i int) {
	if !hasNull(row, cols) {
		k := xdm.ColsKey(row, cols)
		h.next[i], h.head[k] = h.head[k], int32(i+1)
	}
}

// unlink takes tuple i, row, out of its key's chain.
func (h *hashIndex) unlink(row Tuple, cols []int, i int) {
	if hasNull(row, cols) {
		return
	}
	k, at := xdm.ColsKey(row, cols), int32(i+1)
	switch p := h.head[k]; {
	case p != at:
		for h.next[p-1] != at {
			p = h.next[p-1]
		}
		h.next[p-1] = h.next[i]
	case h.next[i] != 0:
		h.head[k] = h.next[i]
	default:
		delete(h.head, k)
	}
}
