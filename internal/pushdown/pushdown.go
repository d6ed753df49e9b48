// Package pushdown implements the trigger-pushdown rewrites of paper
// Section 5.2: pushing the affected-keys semijoin down through the view
// graph (selection/join pushdown) so that a firing trigger touches only the
// base rows that can contribute to affected nodes, instead of evaluating
// the whole view. Combined with the evaluator's index-nested-loop joins,
// this is what keeps per-update cost independent of database size
// (Figure 23) — compare the generated SQL in Figure 16, where every CTE is
// joined with AffectedKeys.
package pushdown

import (
	"quark/internal/xqgm"
)

// PushSemiJoin restricts the graph rooted at root to the rows whose columns
// `cols` (positions in root's output) match some row of keys (whose output
// is exactly those key values, in order). It returns a rewritten graph with
// the same output schema; operators off the pushed path are shared, not
// cloned.
//
// The rewrite pushes the semijoin through Select, Project (column
// references), OrderBy, GroupBy (when the key columns are grouping
// columns: σ_k(γ_G(I)) = γ_G(σ_k(I))), Union branches, and into one or
// both sides of a Join; where it can push no further it attaches
// Project(I.cols)(Join(I, keys)) — each I row matches at most one keys row
// (keys are distinct), so no duplicates arise.
func PushSemiJoin(root *xqgm.Operator, keys *xqgm.Operator, cols []int) *xqgm.Operator {
	out := push(root, keys, cols)
	// Re-derive canonical keys on the rewritten graph: rebuilt operators
	// start without keys, and the evaluator uses keys for deterministic
	// aggXMLFrag document order.
	xqgm.DeriveKeys(out)
	return out
}

// attach joins keys at this level and projects the original schema back.
func attach(o *xqgm.Operator, keys *xqgm.Operator, cols []int) *xqgm.Operator {
	on := make([]xqgm.JoinEq, len(cols))
	for j, c := range cols {
		on[j] = xqgm.JoinEq{L: c, R: j}
	}
	join := xqgm.NewJoin(xqgm.JoinInner, o, keys, on, nil)
	w := o.OutWidth()
	idx := make([]int, w)
	for i := range idx {
		idx[i] = i
	}
	return xqgm.ProjectCols(join, idx)
}

// distinctProject builds a duplicate-free projection of the given key
// columns (used when only part of a composite key can be pushed into one
// join side).
func distinctProject(keys *xqgm.Operator, idx []int) *xqgm.Operator {
	proj := xqgm.ProjectCols(keys, idx)
	g := make([]int, len(idx))
	for i := range g {
		g[i] = i
	}
	return xqgm.NewGroupBy(proj, g)
}

func push(o *xqgm.Operator, keys *xqgm.Operator, cols []int) *xqgm.Operator {
	if len(cols) == 0 {
		return o
	}
	switch o.Type {
	case xqgm.OpSelect:
		in := push(o.Inputs[0], keys, cols)
		if in == o.Inputs[0] {
			return attach(o, keys, cols)
		}
		return xqgm.NewSelect(in, o.Pred)

	case xqgm.OpOrderBy:
		in := push(o.Inputs[0], keys, cols)
		if in == o.Inputs[0] {
			return attach(o, keys, cols)
		}
		return xqgm.NewOrderBy(in, o.OrderCols...)

	case xqgm.OpProject:
		// Map the pushed columns through column-reference projections.
		inCols := make([]int, len(cols))
		for j, c := range cols {
			if c >= len(o.Projs) {
				return attach(o, keys, cols)
			}
			cr, ok := o.Projs[c].E.(*xqgm.ColRef)
			if !ok || cr.Input != 0 {
				return attach(o, keys, cols)
			}
			inCols[j] = cr.Col
		}
		in := push(o.Inputs[0], keys, inCols)
		if in == o.Inputs[0] {
			return attach(o, keys, cols)
		}
		return xqgm.NewProject(in, o.Projs...)

	case xqgm.OpGroupBy:
		// Pushable only when every pushed column is a grouping column:
		// restricting groups = restricting input rows by group key.
		ng := len(o.GroupCols)
		inCols := make([]int, len(cols))
		for j, c := range cols {
			if c >= ng {
				return attach(o, keys, cols)
			}
			inCols[j] = o.GroupCols[c]
		}
		in := push(o.Inputs[0], keys, inCols)
		if in == o.Inputs[0] {
			return attach(o, keys, cols)
		}
		return xqgm.NewGroupBy(in, o.GroupCols, o.Aggs...)

	case xqgm.OpJoin:
		if o.JoinKind == xqgm.JoinLeftOuter {
			// Restricting the left side restricts the output directly.
			// When the pushed columns are all left join columns, the same
			// keys also restrict the right side (surviving left rows can
			// only match right rows with those key values).
			l := push(o.Inputs[0], keys, cols)
			r := o.Inputs[1]
			if mapped, ok := mapThroughOn(cols, o.On); ok {
				r = push(r, keys, mapped)
			}
			if l == o.Inputs[0] && r == o.Inputs[1] {
				return attach(o, keys, cols)
			}
			return xqgm.NewJoin(o.JoinKind, l, r, o.On, o.JoinPred)
		}
		if o.JoinKind != xqgm.JoinInner {
			return attach(o, keys, cols)
		}
		lw := o.Inputs[0].OutWidth()
		var lIdx, rIdx []int   // positions within keys' output
		var lCols, rCols []int // positions within the join side
		for j, c := range cols {
			if c < lw {
				lIdx = append(lIdx, j)
				lCols = append(lCols, c)
			} else {
				rIdx = append(rIdx, j)
				rCols = append(rCols, c-lw)
			}
		}
		l, r := o.Inputs[0], o.Inputs[1]
		switch {
		case len(rIdx) == 0:
			l = push(l, keys, lCols)
		case len(lIdx) == 0:
			r = push(r, keys, rCols)
		default:
			// Composite key spanning both sides: push a distinct partial
			// key restriction into each side (sound: a superset of the
			// needed rows survives; the enclosing key join re-filters).
			l = push(l, distinctProject(keys, lIdx), lCols)
			r = push(r, distinctProject(keys, rIdx), rCols)
		}
		if l == o.Inputs[0] && r == o.Inputs[1] {
			return attach(o, keys, cols)
		}
		return xqgm.NewJoin(o.JoinKind, l, r, o.On, o.JoinPred)

	case xqgm.OpUnion:
		ins := make([]*xqgm.Operator, len(o.Inputs))
		changed := false
		for i, in := range o.Inputs {
			ins[i] = push(in, keys, cols)
			if ins[i] != in {
				changed = true
			}
		}
		if !changed {
			return attach(o, keys, cols)
		}
		return xqgm.NewUnion(o.Distinct, ins...)

	case xqgm.OpTable, xqgm.OpConstants:
		return attach(o, keys, cols)

	default:
		return attach(o, keys, cols)
	}
}

// mapThroughOn maps left-side column positions to the corresponding
// right-side positions of a join's equality pairs; ok is false when any
// column is not a left join column.
func mapThroughOn(cols []int, on []xqgm.JoinEq) ([]int, bool) {
	out := make([]int, len(cols))
	for i, c := range cols {
		found := false
		for _, eq := range on {
			if eq.L == c {
				out[i] = eq.R
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
