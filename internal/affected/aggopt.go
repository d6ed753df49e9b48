package affected

import (
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// rewriteOldAggregates implements the paper's Section 5.2 optimization
// (GROUPED-AGG): instead of recomputing distributive aggregates over the
// reconstructed B_old, the old aggregate values are derived from the new
// aggregate values and the transition tables — the inverse of incremental
// view maintenance:
//
//	old_count(g) = new_count(g) + |∇B rows of g| − |ΔB rows of g|
//	old_sum(g)   = new_sum(g)   + sum(∇B of g)   − sum(ΔB of g)
//
// (compare Figure 16's deltaCount CTE: +1 per DELETED row, −1 per INSERTED
// row, summed with the new counts).
//
// For every rewritable GroupBy in the original graph, the corresponding
// operator in the G_old clone is replaced in place by
//
//	Project(drop _rows)(
//	  Select(_rows > 0)(                       // group existed before
//	    GroupBy(G; sum(vals), sum(_rows))(
//	      UnionAll(
//	        Project(G, newAggs, _rows)(newGroupBy),   // shared with G
//	        Project(G, +contrib, +1)(I with B := ∇B),
//	        Project(G, −contrib, −1)(I with B := ΔB)))))
//
// A GroupBy is rewritable when its input is select-project-join only, reads
// the updated table exactly once, and its aggregates are count(*) / sum
// (aggXMLFrag columns are elided to NULL when elideXMLFrag is set — sound
// when the trigger never reads OLD_NODE content, which the engine checks).
// Non-rewritable GroupBys keep the direct B_old computation.
//
// Returns the number of GroupBys rewritten.
func rewriteOldAggregates(orig, gOldRoot *xqgm.Operator, table string,
	mapNew, mapOld map[*xqgm.Operator]*xqgm.Operator,
	deltaSrc, nablaSrc xqgm.TableSource, elideXMLFrag bool) int {

	rewritten := 0
	xqgm.Walk(orig, func(gb *xqgm.Operator) {
		if gb.Type != xqgm.OpGroupBy || gb == orig {
			return
		}
		if !rewritableGroupBy(gb, table, elideXMLFrag) {
			return
		}
		nb := mapNew[gb]
		ob := mapOld[gb]
		if nb == nil || ob == nil {
			return
		}
		rewriteOne(gb, nb, ob, table, deltaSrc, nablaSrc, elideXMLFrag)
		rewritten++
	})
	return rewritten
}

// rewritableGroupBy checks the applicability conditions.
func rewritableGroupBy(gb *xqgm.Operator, table string, elideXMLFrag bool) bool {
	// Aggregates must be invertible (count(*) / sum), with aggXMLFrag
	// permitted only under elision.
	for _, a := range gb.Aggs {
		switch a.Func {
		case xqgm.AggCount:
			// count(expr) skips NULLs, so its delta is not the row delta.
			// The view compiler counts children with count(*).
			if a.Arg != nil {
				return false
			}
		case xqgm.AggSum:
			if a.Arg == nil {
				return false
			}
		case xqgm.AggXMLFrag:
			if !elideXMLFrag {
				return false
			}
		default:
			return false // min/max/avg are not distributive (paper §5.2)
		}
	}
	// Input must be select-project-join over base tables, reading the
	// updated table exactly once.
	occurrences := 0
	ok := true
	xqgm.Walk(gb.Inputs[0], func(o *xqgm.Operator) {
		switch o.Type {
		case xqgm.OpTable:
			if o.Table == table {
				occurrences++
			}
		case xqgm.OpSelect, xqgm.OpProject, xqgm.OpOrderBy:
		case xqgm.OpJoin:
			if o.JoinKind != xqgm.JoinInner {
				ok = false
			}
		default:
			// A nested GroupBy/Union/Unnest makes the delta non-linear —
			// but only if the updated table flows through it; subtrees
			// over other tables are constants for this statement.
			if tableInSubtree(o, table) {
				ok = false
			}
		}
	})
	return ok && occurrences == 1
}

// tableInSubtree reports whether the subtree reads the given base table.
func tableInSubtree(root *xqgm.Operator, table string) bool {
	found := false
	xqgm.Walk(root, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpTable && o.Table == table {
			found = true
		}
	})
	return found
}

func rewriteOne(gb, nb, ob *xqgm.Operator, table string, deltaSrc, nablaSrc xqgm.TableSource, elideXMLFrag bool) {
	ng := len(gb.GroupCols)
	na := len(gb.Aggs)
	outNames := gb.OutNames()

	// Locate (or derive) the new-side row count per group. The new-side
	// GroupBy must NOT be modified in place: widening an operator in the
	// middle of the graph would shift every downstream column reference.
	// When nb lacks a count(*), a sibling GroupBy over nb's (shared,
	// memoized) input supplies it via a functional join.
	rowsPos := -1
	for i, a := range nb.Aggs {
		if a.Func == xqgm.AggCount && a.Arg == nil {
			rowsPos = ng + i
			break
		}
	}
	newSrc := nb
	rowsCol := rowsPos
	if rowsPos < 0 {
		cnt := xqgm.NewGroupBy(nb.Inputs[0], append([]int(nil), nb.GroupCols...),
			xqgm.Agg{Name: "_rows", Func: xqgm.AggCount})
		on := make([]xqgm.JoinEq, ng)
		for j := 0; j < ng; j++ {
			on[j] = xqgm.JoinEq{L: j, R: j}
		}
		newSrc = xqgm.NewJoin(xqgm.JoinInner, nb, cnt, on, nil)
		rowsCol = nb.OutWidth() + ng
	}

	// part_new: group values, new aggregate values, new row count.
	newProjs := make([]xqgm.Proj, 0, ng+na+1)
	for j := 0; j < ng; j++ {
		newProjs = append(newProjs, xqgm.Proj{Name: outNames[j], E: xqgm.Col(j)})
	}
	for i, a := range gb.Aggs {
		if a.Func == xqgm.AggXMLFrag {
			newProjs = append(newProjs, xqgm.Proj{Name: a.Name, E: xqgm.LitOf(xdm.Null)})
		} else {
			newProjs = append(newProjs, xqgm.Proj{Name: a.Name, E: xqgm.Col(ng + i)})
		}
	}
	newProjs = append(newProjs, xqgm.Proj{Name: "_rows", E: xqgm.Col(rowsCol)})
	partNew := xqgm.NewProject(newSrc, newProjs...)

	// part_plus (∇B side, +) and part_minus (ΔB side, −).
	mkPart := func(src xqgm.TableSource, sign int64) *xqgm.Operator {
		in := xqgm.WithTableSource(gb.Inputs[0], table, xqgm.SrcBase, src)
		projs := make([]xqgm.Proj, 0, ng+na+1)
		for j, gc := range gb.GroupCols {
			projs = append(projs, xqgm.Proj{Name: outNames[j], E: xqgm.Col(gc)})
		}
		for _, a := range gb.Aggs {
			var e xqgm.Expr
			switch a.Func {
			case xqgm.AggCount:
				e = xqgm.LitOf(xdm.Int(sign))
			case xqgm.AggSum:
				e = a.Arg
				if sign < 0 {
					e = &xqgm.Arith{Op: "*", L: e, R: xqgm.LitOf(xdm.Int(-1))}
				}
			case xqgm.AggXMLFrag:
				e = xqgm.LitOf(xdm.Null)
			}
			projs = append(projs, xqgm.Proj{Name: a.Name, E: e})
		}
		projs = append(projs, xqgm.Proj{Name: "_rows", E: xqgm.LitOf(xdm.Int(sign))})
		return xqgm.NewProject(in, projs...)
	}
	partPlus := mkPart(nablaSrc, 1)
	partMinus := mkPart(deltaSrc, -1)

	u := xqgm.NewUnion(false, partNew, partPlus, partMinus)

	groupCols := make([]int, ng)
	for j := 0; j < ng; j++ {
		groupCols[j] = j
	}
	adjAggs := make([]xqgm.Agg, 0, na+1)
	for i, a := range gb.Aggs {
		adjAggs = append(adjAggs, xqgm.Agg{Name: a.Name, Func: xqgm.AggSum, Arg: xqgm.Col(ng + i)})
	}
	adjAggs = append(adjAggs, xqgm.Agg{Name: "_rows", Func: xqgm.AggSum, Arg: xqgm.Col(ng + na)})
	adj := xqgm.NewGroupBy(u, groupCols, adjAggs...)

	sel := xqgm.NewSelect(adj, &xqgm.Cmp{Op: ">", L: xqgm.Col(ng + na), R: xqgm.LitOf(xdm.Int(0))})

	// Retarget ob in place to the final Project (parents keep pointing at
	// ob); output schema (names, positions, key) is unchanged.
	projs := make([]xqgm.Proj, ng+na)
	for i := 0; i < ng+na; i++ {
		projs[i] = xqgm.Proj{Name: outNames[i], E: xqgm.Col(i)}
	}
	ob.Type = xqgm.OpProject
	ob.Inputs = []*xqgm.Operator{sel}
	ob.Projs = projs
	ob.GroupCols = nil
	ob.Aggs = nil
	ob.Pred = nil
	ob.Key = nil // re-derived by the caller
}

// sanity check helper used in tests.
func countTableSources(root *xqgm.Operator, table string, src xqgm.TableSource) int {
	n := 0
	xqgm.Walk(root, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpTable && o.Table == table && o.Source == src {
			n++
		}
	})
	return n
}
