package reldb

import "quark/internal/xdm"

// slotMap maps a row's storage key to its slot. A key with no string part
// (an int, float, bool or null column, and every keyless table's rowid) is
// filed under its 16-byte pointer-free xdm.NumKey, in a map whose buckets
// the collector never scans; any other key (a string, a composite) under
// its CompKey. The key's content decides, not the schema, and a given key
// always takes the same half, so the two never disagree.
type slotMap struct {
	num map[xdm.NumKey]uint32
	str map[xdm.CompKey]uint32
}

func newSlotMap() slotMap {
	return slotMap{num: map[xdm.NumKey]uint32{}, str: map[xdm.CompKey]uint32{}}
}

func (m *slotMap) get(k xdm.CompKey) (uint32, bool) {
	if nk, ok := k.NumKey(); ok {
		s, found := m.num[nk]
		return s, found
	}
	s, found := m.str[k]
	return s, found
}

func (m *slotMap) put(k xdm.CompKey, s uint32) {
	if nk, ok := k.NumKey(); ok {
		m.num[nk] = s
		return
	}
	m.str[k] = s
}

func (m *slotMap) del(k xdm.CompKey) {
	if nk, ok := k.NumKey(); ok {
		delete(m.num, nk)
		return
	}
	delete(m.str, k)
}

func (m *slotMap) len() int { return len(m.num) + len(m.str) }
