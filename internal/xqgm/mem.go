package xqgm

import (
	"reflect"

	"quark/internal/xdm"
)

// maxKeptBytes caps the memory an EvalContext keeps from one statement for
// the next (see Rebind): what a statement's operator outputs needed beyond it
// is dropped, so one huge commit does not pin its outputs' memory for as long
// as the context lives. The outbox's encode scratch has the same cap.
const maxKeptBytes = 1 << 20

// minBlock is the fewest elements an arena allocates a block for, and maxRoom
// the most an output of unknown length asks room for: a longer one moves to
// the heap as it grows, like an append.
const (
	minBlock = 512
	maxRoom  = 1024
)

// outMem is the memory an EvalContext cuts its operator outputs from: tuple
// cells, output arrays, positions and the trails' pieces. Until the context is
// first rebound it is off, and every piece is allocated on its own, as make
// and append would; from then on the pieces are cut from blocks that Rebind
// clears and cuts again.
type outMem struct {
	cells  arena[xdm.Value]
	tuples arena[Tuple]
	ints   arena[int32]
	hits   arena[hit]
	groups arena[groupAt]
}

// reset clears what the last statement cut, keeps blocks up to budget, which
// it charges for them, and turns the arenas on.
func (m *outMem) reset(budget *int) {
	m.cells.reset(budget)
	m.tuples.reset(budget)
	m.ints.reset(budget)
	m.hits.reset(budget)
	m.groups.reset(budget)
}

// bytes reports the memory the arenas keep.
func (m *outMem) bytes() int {
	return m.cells.bytes() + m.tuples.bytes() + m.ints.bytes() + m.hits.bytes() + m.groups.bytes()
}

// scratch returns s, a pass's scratch, empty for the next statement, or nil
// when it grew past what a kept piece may be.
func scratch[T any](s []T) []T {
	if cap(s)*int(reflect.TypeFor[T]().Size()) > maxKeptBytes/4 {
		return nil
	}
	return s[:0]
}

// arena hands out pieces of the blocks it keeps, cut one after another. A
// piece stays valid until reset, which clears what was cut — so a block keeps
// no tuple, row or node of an earlier statement alive — and starts cutting
// from the first block again.
type arena[T any] struct {
	// big is the most elements a piece is cut for: a larger piece would not
	// be kept anyway, and is allocated on its own, as every piece is while
	// big is 0 — the arena is off until its first reset.
	big    int
	blocks [][]T
	cur    int // the block being cut
	off    int // how much of blocks[cur] is cut
	size   int // the blocks' elements together
	// open is set while a piece room returned is not cut: the rest of the
	// block may be written, and is treated as cut if the piece never is.
	open bool
}

// take returns a piece of n zero elements.
func (a *arena[T]) take(n int) []T {
	if a.big == 0 || n > a.big {
		return make([]T, n)
	}
	a.fit(n)
	p := a.blocks[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	return p
}

// room returns an empty piece with room for n elements, or maxRoom, for an
// output whose length is not known yet but is at most n: the caller appends
// to it and then cuts it, and takes nothing else from the arena in between.
// Off, it is nil.
func (a *arena[T]) room(n int) []T {
	if a.big == 0 {
		return nil
	}
	a.fit(min(n, maxRoom))
	a.open = true
	b := a.blocks[a.cur]
	return b[a.off:a.off:len(b)]
}

// cut takes p, which was appended to from what room returned, and returns it
// without spare capacity. A p that outgrew its room has moved to the heap,
// after filling all of it.
func (a *arena[T]) cut(p []T) []T {
	if a.open {
		if b := a.blocks[a.cur]; cap(p) == len(b)-a.off {
			a.off += len(p)
		} else {
			a.off = len(b)
		}
		a.open = false
	}
	return p[:len(p):len(p)]
}

// fit moves the cut to a block with room for n more elements, allocating one
// when no kept block has it. A new block at least doubles what is kept, so a
// statement that needs more than the last one did allocates a few times, not
// once per output.
func (a *arena[T]) fit(n int) {
	if a.open { // a piece an error left behind
		a.off, a.open = len(a.blocks[a.cur]), false
	}
	for a.cur < len(a.blocks) {
		if len(a.blocks[a.cur])-a.off >= n {
			return
		}
		if a.cur+1 == len(a.blocks) {
			break
		}
		a.cur, a.off = a.cur+1, 0
	}
	b := make([]T, max(n, minBlock, a.size))
	a.blocks = append(a.blocks, b)
	a.cur, a.off = len(a.blocks)-1, 0
	a.size += len(b)
}

// reset keeps the blocks that fit in budget, which it charges for them, and
// clears what was cut from them; it drops the rest and turns the arena on.
func (a *arena[T]) reset(budget *int) {
	unit := int(reflect.TypeFor[T]().Size())
	kept := a.blocks[:0]
	a.size = 0
	for i, b := range a.blocks {
		if len(b)*unit > *budget {
			continue
		}
		switch { // the blocks past cur were not cut since the last reset
		case i < a.cur || i == a.cur && a.open:
			clear(b)
		case i == a.cur:
			clear(b[:a.off])
		}
		*budget -= len(b) * unit
		kept = append(kept, b)
		a.size += len(b)
	}
	clear(a.blocks[len(kept):])
	a.blocks = kept
	a.cur, a.off, a.open, a.big = 0, 0, false, maxKeptBytes/4/unit
}

// bytes reports the memory the arena keeps.
func (a *arena[T]) bytes() int { return a.size * int(reflect.TypeFor[T]().Size()) }
