package xqgm

import "quark/internal/xdm"

// footprint is what one tuple of a Project pass takes from the pass's
// xdm.Chunks, so the pass can cut blocks exactly the size of the tuples they
// are for: a fixed part, the same for every tuple, that Prepare reads off
// the constructors, plus what the tuple's own values add — the content of
// the columns the constructors splice and the digits of the columns they
// format as attribute values.
type footprint struct {
	fixed  xdm.Footprint
	splice []int // input columns spliced into element content
	attrs  []int // input columns formatted as attribute values
}

// footprints gives every Project node of nodes whose live projections
// construct anything its footprint. The constructors are measured twice:
// once to size the one array the footprints are cut from, and the one the
// columns they read are, and once to fill them in.
func footprints(nodes []*node) {
	var m measurer
	ctors, cols := 0, 0
	for _, n := range nodes {
		if n.op.Type == OpProject && m.measure(n, nil) {
			ctors, cols = ctors+1, cols+m.splice+m.attrs
		}
	}
	if ctors == 0 {
		return
	}
	fs, all := make([]footprint, ctors), make([]int, cols)
	for _, n := range nodes {
		if n.op.Type == OpProject && m.measure(n, all) {
			n.ctor, fs = &fs[0], fs[1:]
			*n.ctor = footprint{fixed: m.fixed, splice: all[:m.splice:m.splice], attrs: all[len(all)-m.attrs:]}
			all = all[m.splice : len(all)-m.attrs]
		}
	}
}

// measurer reads a Project's footprint off its constructors.
type measurer struct {
	width         int // of the input
	fixed         xdm.Footprint
	splice, attrs int // columns of each kind met so far
	// cols, if not nil, receives the columns: those spliced from the front,
	// those formatted from the back.
	cols []int
}

// computed is what a constructor's computed value is counted as: the text
// node of a number. What it takes beyond that is allocated object by object.
var computed = xdm.Footprint{Nodes: 1, Slots: 1, Bytes: xdm.MaxNumberBytes}

// measure measures Project node n's live projections, writing the columns
// they read to cols if it is not nil, and reports whether they construct
// anything.
func (m *measurer) measure(n *node, cols []int) bool {
	*m = measurer{width: int(n.in[0].width), cols: cols}
	for j, p := range n.op.Projs {
		if !n.live[j] {
			continue
		}
		switch x := p.E.(type) {
		case *ElemCtor:
			m.elem(x)
		case *SeqCtor:
			for _, it := range x.Items {
				if e, ok := it.(*ElemCtor); ok {
					m.elem(e)
				}
			}
		}
	}
	return m.fixed != (xdm.Footprint{}) || m.splice > 0
}

// col returns the input column e reads when e is a column of the input.
func (m *measurer) col(e Expr) (int, bool) {
	if c, ok := e.(*ColRef); ok && c.Input == 0 && c.Col >= 0 && c.Col < m.width {
		return c.Col, true
	}
	return 0, false
}

func (m *measurer) elem(e *ElemCtor) {
	m.fixed.Nodes++
	for _, a := range e.Attrs {
		m.fixed.Nodes++
		m.fixed.Slots++
		if c, ok := m.col(a.E); ok {
			m.attrs++
			if m.cols != nil {
				m.cols[len(m.cols)-m.attrs] = c
			}
		} else if l, ok := a.E.(*Lit); ok {
			m.fixed.Bytes += xdm.TextBytes(l.V)
		} else {
			m.fixed.Bytes += computed.Bytes
		}
	}
	for _, c := range e.Children {
		m.content(c)
	}
}

// content measures what e adds to an element's content.
func (m *measurer) content(e Expr) {
	switch x := e.(type) {
	case *ElemCtor:
		m.fixed.Slots++
		m.elem(x)
	case *SeqCtor:
		for _, it := range x.Items {
			m.content(it)
		}
	case *Lit:
		m.fixed = m.fixed.Add(xdm.ContentFootprint(x.V))
	default:
		if c, ok := m.col(e); ok {
			if m.cols != nil {
				m.cols[m.splice] = c
			}
			m.splice++
		} else {
			m.fixed = m.fixed.Add(computed)
		}
	}
}

// of is what constructing tuple t takes.
func (f *footprint) of(t Tuple) xdm.Footprint {
	s := f.fixed
	for _, c := range f.splice {
		s = s.Add(xdm.ContentFootprint(t[c]))
	}
	for _, c := range f.attrs {
		s.Bytes += xdm.TextBytes(t[c])
	}
	return s
}

// cut starts a block of c for the fresh tuples at the head of in — those
// out holds no tuple for — as many as fit the block bounds, at least one,
// sized exactly for them, and returns how many it is for.
func (f *footprint) cut(c *xdm.Chunks, in, out []Tuple) int {
	var b xdm.Footprint
	k := 0
	for i, t := range in {
		if out[i] != nil {
			continue
		}
		next := b.Add(f.of(t))
		if k > 0 && !next.Fits() {
			break
		}
		b, k = next, k+1
	}
	c.Cut(b)
	return k
}
