package reldb

import "quark/internal/xdm"

// Row versions are carved from slabs: a slab is one allocation holding
// many versions back to back, and a table's slot array holds, per slot, a
// vref to its current version. Neither the slot array nor a slab of
// pointer-free versions holds a Go pointer, so the collector marks a
// table's rows without scanning them.
//
// A version whose values are all xdm.Value.PointerFree (ints, floats,
// bools, NULLs, empty strings) is carved from a slab allocated as
// pointer-free memory (xdm.PointerFreeValues); any other version from an
// ordinary slab. The version's content decides, as slotMap's does for
// keys. A version is never written after it is carved (see Row): a slab is
// only appended to, past every version carved from it, and an update carves
// the new version and leaves the old one where it was, dead, for any reader
// that still holds it. When a table's dead values exceed
// live/deadPerLive + maxSlab, compact copies the live versions into fresh
// slabs and drops the old list; a Row a reader still holds keeps its old
// slab alive until the reader lets go.
const (
	// minSlab and maxSlab bound a slab's capacity in values: a kind's
	// slabs double from minSlab up to maxSlab (98 KB), so a small table
	// does not pay for a big slab and one retained Row pins a bounded
	// amount of memory.
	minSlab = 64
	maxSlab = 4096
	// deadPerLive sets the compaction bound: dead values may reach
	// live/deadPerLive plus one full slab. Each compaction copies the live
	// values once, so on a large table a dead value costs deadPerLive copied
	// ones; the slab's worth lets a small table take many updates between
	// compactions.
	deadPerLive = 2
)

// vref locates a stored version: slab is 1 + its slab's position in the
// table's list, 0 for a free slot; off is the offset of its first value.
type vref struct{ slab, off uint32 }

func (r vref) vacant() bool { return r.slab == 0 }

// slab is a run of versions of one kind; vals' length is the part carved.
type slab struct {
	vals    []xdm.Value
	scanned bool // allocated as ordinary memory: holds versions with pointers
}

// slabs is a table's version store since its last compaction.
type slabs struct {
	width uint32 // values per version: the table's column count
	list  []slab
	open  [2]int // per kind (see kindOf), 1 + the slab being carved from; 0 for none
	// carved counts each kind's values carved, and reserve what the last
	// compaction set aside for it: the next slab takes the reserve while
	// one is left, else as many values as were carved, so slabs double.
	carved  [2]int
	reserve [2]int
	used    int // values carved, live or dead
}

// kindOf is 1 for a version with a pointer (an ordinary slab), else 0.
func kindOf(r Row) int {
	for _, v := range r {
		if !v.PointerFree() {
			return 1
		}
	}
	return 0
}

// row returns the version ref points at, capped so that appending to it
// never writes into the slab.
func (st *slabs) row(ref vref) Row {
	vals := st.list[ref.slab-1].vals
	return Row(vals[ref.off : ref.off+st.width : ref.off+st.width])
}

// carve stores a copy of r, which has width values, and returns where it
// went and the stored version.
func (st *slabs) carve(r Row) (vref, Row) {
	k, w := kindOf(r), int(st.width)
	i := st.open[k]
	if i == 0 || cap(st.list[i-1].vals)-len(st.list[i-1].vals) < w {
		i = st.grow(k)
	}
	s := &st.list[i-1]
	off := len(s.vals)
	s.vals = append(s.vals, r...)
	st.carved[k] += w
	st.used += w
	return vref{slab: uint32(i), off: uint32(off)}, Row(s.vals[off : off+w : off+w])
}

// grow opens a new slab of kind k and returns 1 + its position.
func (st *slabs) grow(k int) int {
	var n int
	if st.reserve[k] > 0 {
		n = min(st.reserve[k], maxSlab)
		st.reserve[k] -= n
	} else {
		n = min(max(st.carved[k], minSlab), maxSlab)
	}
	n = max(n, int(st.width))
	s := slab{scanned: k == 1}
	if s.scanned {
		s.vals = make([]xdm.Value, 0, n)
	} else {
		s.vals = xdm.PointerFreeValues(n)[:0]
	}
	st.list = append(st.list, s)
	st.open[k] = len(st.list)
	return len(st.list)
}

// dead returns the values carved since the last compaction that no slot
// holds any more (superseded, deleted, or carved by a failed statement).
func (td *tableData) dead() int { return td.store.used - td.live() }

func (td *tableData) live() int { return td.pk.len() * int(td.store.width) }

// row returns the version in slot s, nil for a free slot.
func (td *tableData) row(s uint32) Row {
	ref := td.rows[s]
	if ref.vacant() {
		return nil
	}
	return td.store.row(ref)
}

// deadBound is the most dead values a table keeps after a statement.
func deadBound(live int) int { return live/deadPerLive + maxSlab }

// settle ends a statement on the table: when its dead values have passed
// the bound, it compacts.
func (td *tableData) settle() {
	if td.dead() > deadBound(td.live()) {
		td.compact()
	}
}

// compact copies every live version into fresh slabs, slot by slot, and
// drops the old slab list. Each kind gets a reserve of its live values, the
// dead ones the bound lets it accrue and a small slab's room for the
// statement that passes the bound, so on a table that is only updated the
// versions carved until the next compaction fit the slabs this one
// allocates.
func (td *tableData) compact() {
	td.compactions++
	old := td.store
	var live [2]int
	for _, ref := range td.rows {
		if !ref.vacant() {
			live[kindOf(old.row(ref))] += int(old.width)
		}
	}
	td.store = slabs{width: old.width}
	for k, n := range live {
		if n > 0 {
			td.store.reserve[k] = n + deadBound(n) + minSlab
		}
	}
	for s, ref := range td.rows {
		if !ref.vacant() {
			td.rows[s], _ = td.store.carve(old.row(ref))
		}
	}
}
