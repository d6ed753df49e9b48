package xqgm

// Clone deep-copies the operator DAG rooted at root, preserving sharing:
// operators referenced from multiple parents are cloned once. Expressions
// are shared (they are treated as immutable).
func Clone(root *Operator) *Operator {
	return cloneWith(root, map[*Operator]*Operator{}, nil)
}

// CloneTransform deep-copies the DAG, applying transform to every cloned
// operator (after its inputs have been cloned). transform may mutate the
// clone it is given; it must not mutate originals.
func CloneTransform(root *Operator, transform func(orig, clone *Operator)) *Operator {
	return cloneWith(root, map[*Operator]*Operator{}, transform)
}

func cloneWith(o *Operator, m map[*Operator]*Operator, transform func(orig, clone *Operator)) *Operator {
	if o == nil {
		return nil
	}
	if c, ok := m[o]; ok {
		return c
	}
	c := *o
	c.prep = nil // a plan describes the graph it was built from, not its clones
	c.Inputs = make([]*Operator, len(o.Inputs))
	for i, in := range o.Inputs {
		c.Inputs[i] = cloneWith(in, m, transform)
	}
	if o.Key != nil {
		// Preserve empty-but-non-nil keys: an empty canonical key means
		// "at most one row", which is distinct from "no key".
		c.Key = make([]int, len(o.Key))
		copy(c.Key, o.Key)
	}
	if o.Projs != nil {
		c.Projs = append([]Proj(nil), o.Projs...)
	}
	if o.On != nil {
		c.On = append([]JoinEq(nil), o.On...)
	}
	if o.GroupCols != nil {
		c.GroupCols = append([]int(nil), o.GroupCols...)
	}
	if o.Aggs != nil {
		c.Aggs = append([]Agg(nil), o.Aggs...)
	}
	if o.OrderCols != nil {
		c.OrderCols = append([]OrderCol(nil), o.OrderCols...)
	}
	if o.TablePK != nil {
		c.TablePK = append([]int(nil), o.TablePK...)
	}
	if o.Names != nil {
		c.Names = append([]string(nil), o.Names...)
	}
	if transform != nil {
		transform(o, &c)
	}
	m[o] = &c
	return &c
}

// WithOldTable returns a clone of the graph in which every Table operator
// reading `table` from the base source reads B_old instead (paper §4.2:
// G_old is G with B replaced by B_old).
func WithOldTable(root *Operator, table string) *Operator {
	return CloneTransform(root, func(_, c *Operator) {
		if c.Type == OpTable && c.Table == table && c.Source == SrcBase {
			c.Source = SrcOld
		}
	})
}

// ProjectCols builds a Project over in that keeps exactly the given column
// indexes (in order), preserving names.
func ProjectCols(in *Operator, cols []int) *Operator {
	names := in.OutNames()
	projs := make([]Proj, len(cols))
	for i, c := range cols {
		name := ""
		if c < len(names) {
			name = names[c]
		}
		projs[i] = Proj{Name: name, E: Col(c)}
	}
	return NewProject(in, projs...)
}
