package core

import "hash/maphash"

// triggerTable is the engine's registry of XML triggers. A trigger is a
// member handle in its group's store, and the groups are numbered; the
// table finds a trigger by name through slots, open-addressed on the name
// and compared against the names the stores keep. Nothing here holds a
// pointer but the group list, so the collector does not scan the index.
// Callers hold e.mu.
type triggerTable struct {
	groups     []*group // by number; nil: a free number
	freeGroups []uint32
	// slots holds a trigger's group number + 1 in the high half and its
	// handle in the low one; 0 is an empty slot. Linear probing, at most
	// three quarters full.
	slots []uint64
	n     int
	seed  maphash.Seed
}

func newTriggerTable() triggerTable { return triggerTable{seed: maphash.MakeSeed()} }

// addGroup numbers g.
func (t *triggerTable) addGroup(g *group) {
	if n := len(t.freeGroups); n > 0 {
		g.num, t.freeGroups = t.freeGroups[n-1], t.freeGroups[:n-1]
		t.groups[g.num] = g
		return
	}
	g.num = uint32(len(t.groups))
	t.groups = append(t.groups, g)
}

// dropGroup frees g's number; g has no members left.
func (t *triggerTable) dropGroup(g *group) {
	t.groups[g.num] = nil
	t.freeGroups = append(t.freeGroups, g.num)
}

func (t *triggerTable) entry(s uint64) (*group, int32) {
	return t.groups[s>>32-1], int32(uint32(s))
}

func (t *triggerTable) name(s uint64) string {
	g, h := t.entry(s)
	return g.members.Name(h)
}

func (t *triggerTable) home(name string) int {
	return int(maphash.String(t.seed, name) & uint64(len(t.slots)-1))
}

// find returns the trigger named name and its slot, or a slot of -1.
func (t *triggerTable) find(name string) (*group, int32, int) {
	if t.n == 0 {
		return nil, 0, -1
	}
	mask := len(t.slots) - 1
	for i := t.home(name); t.slots[i] != 0; i = (i + 1) & mask {
		if t.name(t.slots[i]) == name {
			g, h := t.entry(t.slots[i])
			return g, h, i
		}
	}
	return nil, 0, -1
}

// insert files member h of g, whose name is not in the table.
func (t *triggerTable) insert(g *group, h int32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]uint64, max(16, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				t.place(s)
			}
		}
	}
	t.place(uint64(g.num+1)<<32 | uint64(uint32(h)))
	t.n++
}

func (t *triggerTable) place(s uint64) {
	mask := len(t.slots) - 1
	i := t.home(t.name(s))
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// remove empties slot i, shifting back the entries after it that would
// no longer be found.
func (t *triggerTable) remove(i int) {
	mask := len(t.slots) - 1
	t.slots[i] = 0
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may move to i unless its home lies cyclically in
		// (i, j].
		if h := t.home(t.name(t.slots[j])); (j-h)&mask >= (j-i)&mask {
			t.slots[i], t.slots[j] = t.slots[j], 0
			i = j
		}
	}
	t.n--
}
