package wire

import "quark/internal/xdm"

// memoSlots is how many nodes a Memo holds: the OLD and NEW nodes of the
// last few firings an encoder saw.
const memoSlots = 8

// maxMemoBytes is the largest encoding a Memo copies; a larger node is
// walked every time rather than pinning its bytes.
const maxMemoBytes = 64 << 10

// A Memo lets AppendEncodeMemo and AppendJSONMemo copy the bytes of a node
// they already wrote instead of walking the node again. A node is immutable
// once handed out (see xdm.Node), so one pointer always encodes to the same
// bytes: the grouped triggers of one firing deliver the same OLD and NEW
// nodes, and a NEW_NODE argument is the NEW node itself. The encoders
// consult the memo at every top-level node of a record — OLD, NEW and each
// node argument, inside sequences too — and never at a node's children.
//
// A Memo keeps copies of the encodings of the last few distinct nodes it
// saw, in buffers it reuses, so a lookup scans a fixed number of slots and
// the bytes can be appended to any buffer. Each slot holds the node pointer
// as well, so the node stays reachable and its address cannot be recycled
// for another node while its bytes are cached. A memo holds one format's
// bytes: give each memo to one of the two encoders only. It is not safe for
// concurrent use. The zero value is ready to use.
type Memo struct {
	slots [memoSlots]struct {
		n *xdm.Node
		b []byte
	}
	kept int // nodes kept so far; slot kept%memoSlots is overwritten next
}

// reuse appends n's bytes to dst if the memo has them.
func (m *Memo) reuse(dst []byte, n *xdm.Node) ([]byte, bool) {
	for i := range m.slots {
		if m.slots[i].n == n {
			return append(dst, m.slots[i].b...), true
		}
	}
	return dst, false
}

// keep records that dst[from:] is the encoding of n just written.
func (m *Memo) keep(dst []byte, from int, n *xdm.Node) {
	if len(dst)-from > maxMemoBytes {
		return
	}
	s := &m.slots[m.kept%memoSlots]
	m.kept++
	s.n = n
	s.b = append(s.b[:0], dst[from:]...)
}

// memoized appends n's encoding through enc, or copies it from m.
func memoized(dst []byte, n *xdm.Node, m *Memo, enc func([]byte, *xdm.Node) []byte) []byte {
	if m == nil || n == nil {
		return enc(dst, n)
	}
	if out, ok := m.reuse(dst, n); ok {
		return out
	}
	from := len(dst)
	dst = enc(dst, n)
	m.keep(dst, from, n)
	return dst
}
