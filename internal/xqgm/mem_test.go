package xqgm

import (
	"slices"
	"testing"
)

// An arena is off until its first reset: every piece is allocated on its
// own and room is nil, as make and append would have it.
func TestArenaOffAllocatesEachPiece(t *testing.T) {
	var a arena[int32]
	p, q := a.take(3), a.take(3)
	p[0] = 1
	if q[0] != 0 || a.room(8) != nil || len(a.blocks) != 0 {
		t.Errorf("an arena that was never reset cut pieces from blocks: %v %v, %d blocks", p, q, len(a.blocks))
	}
}

// Pieces never overlap, whether cut exactly or by appending into room; an
// output that outgrows its room moves to the heap and leaves nothing the
// next piece could see; a room an error left uncut is never handed out
// again unclear; and reset clears what was cut and keeps within budget.
func TestArenaPieces(t *testing.T) {
	var a arena[int32]
	budget := maxKeptBytes
	a.reset(&budget)
	fill := func(p []int32, v int32) {
		for i := range p {
			p[i] = v
		}
	}
	exact := a.take(4)
	fill(exact, 1)
	grown := a.room(2)
	for i := 0; i < 3; i++ { // one more than the room asked for: still in the block
		grown = append(grown, 2)
	}
	grown = a.cut(grown)
	if cap(grown) != 3 {
		t.Fatalf("cut left capacity %d past the piece's 3", cap(grown))
	}
	next := a.take(4)
	if !slices.Equal(next, make([]int32, 4)) || !slices.Equal(exact, []int32{1, 1, 1, 1}) || !slices.Equal(grown, []int32{2, 2, 2}) {
		t.Fatalf("pieces overlap: %v %v %v", exact, grown, next)
	}

	// Outgrowing the room: the rest of the block is written and counts as cut.
	over := a.room(4)
	for len(over) < len(a.blocks[a.cur])-a.off+1 {
		over = append(over, 3)
	}
	over = a.cut(over)
	if a.off != len(a.blocks[a.cur]) {
		t.Errorf("an output that outgrew its room left %d of its block uncut", len(a.blocks[a.cur])-a.off)
	}
	// An abandoned room: what was appended to it is not handed out.
	abandoned := a.room(4)
	abandoned = append(abandoned, 4, 4)
	_ = abandoned
	if p := a.take(2); !slices.Equal(p, []int32{0, 0}) {
		t.Errorf("a piece after an abandoned room holds %v", p)
	}

	a.room(1) // abandoned again: reset must clear it too
	budget = maxKeptBytes
	a.reset(&budget)
	for i, b := range a.blocks {
		if !slices.Equal(b, make([]int32, len(b))) {
			t.Errorf("block %d not cleared by reset", i)
		}
	}
	if a.cur != 0 || a.off != 0 || a.bytes() > maxKeptBytes || a.bytes() != maxKeptBytes-budget {
		t.Errorf("after reset: cur %d off %d, %d bytes kept, %d of the budget left", a.cur, a.off, a.bytes(), budget)
	}

	// A piece too large to keep is never cut; past the budget, blocks go.
	cur, off := a.cur, a.off
	if big := a.take(a.big + 1); len(big) != a.big+1 || a.cur != cur || a.off != off {
		t.Errorf("a piece of %d elements was cut from a block", len(big))
	}
	for a.bytes() <= maxKeptBytes {
		a.take(a.big)
	}
	budget = maxKeptBytes
	a.reset(&budget)
	if a.bytes() > maxKeptBytes || len(a.blocks) == 0 {
		t.Errorf("%d bytes in %d blocks kept, cap %d", a.bytes(), len(a.blocks), maxKeptBytes)
	}
}
