package xqgm

import (
	"quark/internal/reldb"
	"quark/internal/xdm"
)

// keyIndex finds the rows of a transition table by some of their columns,
// the key, without allocating per row or per key: an open-addressed table
// of row positions probed by a hash of the key's CompKeys (xdm.FoldKey) and
// confirmed by comparing them, so two keys match exactly when their
// xdm.ColsKeys are equal. The rows of one key are chained in input order.
// It is built once per statement and its slices are kept for the next one
// (see EvalContext.Rebind); it holds the rows only until then.
type keyIndex struct {
	rows []reldb.Row
	cols []int // the key columns; nil for the whole row
	// slots holds 1 + the position of a key's first row, 0 for an empty
	// slot; its length is a power of two at least twice the rows'.
	slots  []int32
	next   []int32  // by position: 1 + the position of the key's next row, or 0
	hashes []uint64 // by position: the row's key hash
	col    [1]int   // cols of an index by one column
}

// build indexes rows by columns cols (nil: every column).
func (ix *keyIndex) build(rows []reldb.Row, cols []int) {
	ix.rows, ix.cols = rows, cols
	size := 8
	for size < 2*len(rows) {
		size <<= 1
	}
	ix.slots = resized(ix.slots, size)
	ix.next = resized(ix.next, len(rows))
	ix.hashes = resized(ix.hashes, len(rows))
	for i := len(rows) - 1; i >= 0; i-- { // last first: a chain runs in input order
		r := rows[i]
		h := hashKey(r, cols)
		ix.hashes[i] = h
		s := ix.slot(r, cols, h)
		ix.next[i] = ix.slots[s]
		ix.slots[s] = int32(i + 1)
	}
}

// first returns 1 + the position of the first row whose key equals columns
// cols of t (nil: all of t), or 0 when there is none; next[p-1] continues
// from position p-1.
func (ix *keyIndex) first(t []xdm.Value, cols []int) int32 {
	if len(ix.rows) == 0 {
		return 0
	}
	return ix.slots[ix.slot(t, cols, hashKey(t, cols))]
}

// slot returns the slot of the key of t's columns cols, whose hash is h:
// the one holding its first row, or the empty one where that would go.
func (ix *keyIndex) slot(t []xdm.Value, cols []int, h uint64) int {
	mask := len(ix.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		p := ix.slots[s]
		if p == 0 || ix.hashes[p-1] == h && sameKey(ix.rows[p-1], ix.cols, t, cols) {
			return s
		}
	}
}

// release drops the rows, keeping the slices.
func (ix *keyIndex) release() { ix.rows, ix.cols = nil, nil }

// bytes reports the memory the index keeps.
func (ix *keyIndex) bytes() int { return 4*cap(ix.slots) + 4*cap(ix.next) + 8*cap(ix.hashes) }

// resized returns s with length n, all zero, reusing its array when it has
// room.
func resized[T int32 | uint64 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// hashKey hashes the key of columns cols of t (nil: all of t).
func hashKey(t []xdm.Value, cols []int) uint64 {
	var h uint64
	if cols == nil {
		for _, v := range t {
			h = xdm.FoldKey(h, v)
		}
		return h
	}
	for _, c := range cols {
		h = xdm.FoldKey(h, t[c])
	}
	return h
}

// sameKey reports whether columns ac of a and bc of b (nil: all of them)
// have equal CompKeys, column by column.
func sameKey(a []xdm.Value, ac []int, b []xdm.Value, bc []int) bool {
	n := len(ac)
	if ac == nil {
		n = len(a)
	}
	if bc == nil && len(b) != n || bc != nil && len(bc) != n {
		return false
	}
	for i := 0; i < n; i++ {
		x, y := i, i
		if ac != nil {
			x = ac[i]
		}
		if bc != nil {
			y = bc[i]
		}
		if a[x].CompKey() != b[y].CompKey() {
			return false
		}
	}
	return true
}
