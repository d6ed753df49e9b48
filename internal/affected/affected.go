// Package affected implements the paper's central algorithms (Section 4):
//
//   - CreateAKGraph (Figure 8): given a view graph and a transition table,
//     build an XQGM graph producing the canonical keys of exactly the view
//     tuples affected by the relational update — correct even under
//     arbitrarily nested predicates (the Section 4.1 challenge).
//   - CreateANGraph (Figure 12): combine the Δ-side and ∇-side affected
//     keys, join back with G and G_old, and produce (OLD_NODE, NEW_NODE)
//     pairs with the event-specific join (inner / left-anti / right-anti).
//   - InjectiveFor (Appendix F): the sufficient conditions for injective
//     views, which let the spurious-update value comparison be dropped when
//     pruned transition tables are used (Theorem 3).
//
// Of Section 5.2, the pushdown is here (both view sides are restricted to
// the affected keys before anything is joined or aggregated); deriving the
// OLD side's aggregates from the NEW side's and the transition tables is
// not. The OLD side is the view over B_old, which evaluation builds as an
// edit of the NEW side (xqgm.Prepare pairs the two).
package affected

import (
	"fmt"
	"slices"

	"quark/internal/pushdown"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xqgm"
)

// Options tunes CreateANGraph.
type Options struct {
	// Prune uses the pruned transition tables Δ' = Δ−∇ and ∇' = ∇−Δ
	// (Definition 8) instead of the raw ones.
	Prune bool
	// SkipValueCompare drops the final OLD_NODE ≠ NEW_NODE selection for
	// UPDATE events (sound for injective views with pruning, Theorem 3).
	SkipValueCompare bool
	// CompareCols, when non-empty, restricts the UPDATE-event value
	// comparison to these columns of the view output instead of comparing
	// whole nodes (Appendix F.4: pushing the comparison down to aggregate
	// columns for views that are injective except for scalar aggregates).
	CompareCols []int
}

// ANGraph is the result of CreateANGraph: a graph whose output rows carry
// both versions of each affected view tuple.
type ANGraph struct {
	Root  *xqgm.Operator
	Event reldb.Event // the XML-level event the graph detects
	Table string

	keyWidth  int // width of the affected-key union Ou
	viewWidth int // width of the (extended) view output

	// The view sides restricted to their affected keys (G and G_old after
	// the §5.2 pushdown) and the key columns in their output: what Restrict
	// walks down.
	newSide, oldSide *xqgm.Operator
	keyCols          []int
}

// NewCol returns the output position of view column i's post-update value.
func (g *ANGraph) NewCol(i int) int { return g.keyWidth + i }

// OldCol returns the output position of view column i's pre-update value.
func (g *ANGraph) OldCol(i int) int { return g.keyWidth + g.viewWidth + g.keyWidth + i }

// KeyWidth reports how many leading output columns hold the affected key
// (NULL on the rows of a DELETE graph, whose Δ side is absent).
func (g *ANGraph) KeyWidth() int { return g.keyWidth }

// CreateAKGraph implements Figure 8. It returns an operator O' and the
// output columns K of o such that joining o with O' on K yields exactly the
// tuples of o affected by the update captured in the transition table read
// with source src (SrcDelta/SrcNabla or their pruned variants). O' outputs
// the values of columns K in order. A nil operator means the update cannot
// affect o.
//
// The graph rooted at o may be extended in place (key columns are appended
// to Project outputs, mirroring "Add K to O.outputColumns"); callers should
// pass a private clone.
func CreateAKGraph(s *schema.Schema, o *xqgm.Operator, table string, src xqgm.TableSource) (*xqgm.Operator, []int, error) {
	switch o.Type {
	case xqgm.OpTable:
		if o.Table != table {
			return nil, nil, nil
		}
		def, ok := s.Table(table)
		if !ok {
			return nil, nil, fmt.Errorf("affected: unknown table %q", table)
		}
		if !def.HasPrimaryKey() {
			return nil, nil, fmt.Errorf("affected: table %q has no primary key; view is not trigger-specifiable", table)
		}
		dt := xqgm.NewTable(def, src)
		ak := xqgm.ProjectCols(dt, def.PKIndexes())
		return ak, append([]int(nil), def.PKIndexes()...), nil

	case xqgm.OpConstants:
		return nil, nil, nil

	case xqgm.OpSelect, xqgm.OpOrderBy:
		// Select/Project "merely propagate the key column(s)".
		return CreateAKGraph(s, o.Inputs[0], table, src)

	case xqgm.OpProject:
		ak, ki, err := CreateAKGraph(s, o.Inputs[0], table, src)
		if err != nil || ak == nil {
			return nil, nil, err
		}
		ko := make([]int, len(ki))
		for i, ic := range ki {
			ko[i] = ensureProjected(o, ic)
		}
		return ak, ko, nil

	case xqgm.OpGroupBy:
		in := o.Inputs[0]
		akIn, ki, err := CreateAKGraph(s, in, table, src)
		if err != nil || akIn == nil {
			return nil, nil, err
		}
		// J ← Join(key(I'))(I, I'): pair input rows with affected keys.
		on := make([]xqgm.JoinEq, len(ki))
		for j, ic := range ki {
			on[j] = xqgm.JoinEq{L: ic, R: j}
		}
		// Push the affected-key semijoin into I so the join touches only
		// candidate rows (§5.2 pushdown; compare Figure 16's ProductCount
		// CTE, which joins AffectedKeys before aggregating).
		pushedIn := pushdown.PushSemiJoin(in, akIn, ki)
		j := xqgm.NewJoin(xqgm.JoinInner, pushedIn, akIn, on, nil)
		// O' ← GroupBy(J) on O's grouping columns (distinct affected group
		// keys); the group columns occupy the same positions in J as in I.
		ak := xqgm.NewGroupBy(j, append([]int(nil), o.GroupCols...))
		ko := make([]int, len(o.GroupCols))
		for i := range o.GroupCols {
			ko[i] = i
		}
		return ak, ko, nil

	case xqgm.OpJoin:
		if o.JoinKind == xqgm.JoinLeftOuter {
			return createAKLeftOuter(s, o, table, src)
		}
		if o.JoinKind != xqgm.JoinInner {
			return nil, nil, fmt.Errorf("affected: CreateAKGraph over %v joins is not supported in view definitions", o.JoinKind)
		}
		l, r := o.Inputs[0], o.Inputs[1]
		lw := l.OutWidth()
		akL, kl, err := CreateAKGraph(s, l, table, src)
		if err != nil {
			return nil, nil, err
		}
		akR, kr, err := CreateAKGraph(s, r, table, src)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case akL == nil && akR == nil:
			return nil, nil, nil
		case akR == nil:
			return akL, append([]int(nil), kl...), nil
		case akL == nil:
			ko := make([]int, len(kr))
			for i, c := range kr {
				ko[i] = lw + c
			}
			return akR, ko, nil
		default:
			// Union of cross-products (Figure 8 lines 36-39):
			//   Ja = Project(K)(Join(I'0, I1));  Jb = Project(K)(Join(I0, I'1))
			ja := xqgm.NewJoin(xqgm.JoinInner, akL, r, nil, nil)
			jaProjs := make([]xqgm.Proj, 0, len(kl)+len(kr))
			for i := range kl {
				jaProjs = append(jaProjs, xqgm.Proj{Name: fmt.Sprintf("k%d", i), E: xqgm.Col(i)})
			}
			for j, c := range kr {
				jaProjs = append(jaProjs, xqgm.Proj{Name: fmt.Sprintf("k%d", len(kl)+j), E: xqgm.Col(len(kl) + c)})
			}
			pa := xqgm.NewProject(ja, jaProjs...)

			jb := xqgm.NewJoin(xqgm.JoinInner, l, akR, nil, nil)
			jbProjs := make([]xqgm.Proj, 0, len(kl)+len(kr))
			for i, c := range kl {
				jbProjs = append(jbProjs, xqgm.Proj{Name: fmt.Sprintf("k%d", i), E: xqgm.Col(c)})
			}
			for j := range kr {
				jbProjs = append(jbProjs, xqgm.Proj{Name: fmt.Sprintf("k%d", len(kl)+j), E: xqgm.Col(lw + j)})
			}
			pb := xqgm.NewProject(jb, jbProjs...)

			union := xqgm.NewUnion(true, pa, pb)
			ko := make([]int, 0, len(kl)+len(kr))
			ko = append(ko, kl...)
			for _, c := range kr {
				ko = append(ko, lw+c)
			}
			return union, ko, nil
		}

	case xqgm.OpUnion:
		// For each affected input, join it back with its affected keys,
		// project the union's full canonical key, and union the results
		// (Figure 8 lines 43-53, made schema-uniform by projecting the
		// output key from every branch).
		xqgm.DeriveKeys(o)
		if o.Key == nil {
			return nil, nil, fmt.Errorf("affected: Union without canonical key")
		}
		var branches []*xqgm.Operator
		for _, in := range o.Inputs {
			akIn, ki, err := CreateAKGraph(s, in, table, src)
			if err != nil {
				return nil, nil, err
			}
			if akIn == nil {
				continue
			}
			on := make([]xqgm.JoinEq, len(ki))
			for j, ic := range ki {
				on[j] = xqgm.JoinEq{L: ic, R: j}
			}
			pushedIn := pushdown.PushSemiJoin(in, akIn, ki)
			join := xqgm.NewJoin(xqgm.JoinInner, pushedIn, akIn, on, nil)
			branches = append(branches, xqgm.ProjectCols(join, o.Key))
		}
		if len(branches) == 0 {
			return nil, nil, nil
		}
		var ak *xqgm.Operator
		if len(branches) == 1 {
			ak = xqgm.NewUnion(true, branches[0]) // still dedup
		} else {
			ak = xqgm.NewUnion(true, branches...)
		}
		return ak, append([]int(nil), o.Key...), nil

	case xqgm.OpUnnest:
		return nil, nil, fmt.Errorf("affected: Unnest must be composed away before trigger analysis (Theorem 1)")

	default:
		return nil, nil, fmt.Errorf("affected: unsupported operator %v", o.Type)
	}
}

// createAKLeftOuter handles the functional left-outer joins produced by the
// view compiler (parent rows joined with grouped child fragments on the
// parent key). An output row is affected when its left part changed or when
// its matched right-side group changed. Affected keys from either side are
// normalized to the left input's canonical key (= the join's key, by the
// functional-join property) by joining back with the (semijoin-restricted)
// left input, so both branches union cleanly even when the updated table
// occurs on both sides.
func createAKLeftOuter(s *schema.Schema, o *xqgm.Operator, table string, src xqgm.TableSource) (*xqgm.Operator, []int, error) {
	l, r := o.Inputs[0], o.Inputs[1]
	akL, kl, err := CreateAKGraph(s, l, table, src)
	if err != nil {
		return nil, nil, err
	}
	akR, kr, err := CreateAKGraph(s, r, table, src)
	if err != nil {
		return nil, nil, err
	}
	if akL == nil && akR == nil {
		return nil, nil, nil
	}
	xqgm.DeriveKeys(l)
	lk := l.Key
	if lk == nil {
		return nil, nil, fmt.Errorf("affected: left-outer join: left input has no canonical key")
	}
	// Map right-side key columns to left positions via the join equalities.
	mapRight := func(cols []int) ([]int, error) {
		out := make([]int, len(cols))
		for i, c := range cols {
			mapped := -1
			for _, eq := range o.On {
				if eq.R == c {
					mapped = eq.L
					break
				}
			}
			if mapped < 0 {
				return nil, fmt.Errorf("affected: left-outer join: affected key column %d of the right input is not a join column", c)
			}
			out[i] = mapped
		}
		return out, nil
	}
	sameAsLK := func(cols []int) bool {
		if len(cols) != len(lk) {
			return false
		}
		for i := range cols {
			if cols[i] != lk[i] {
				return false
			}
		}
		return true
	}
	// normalize produces an operator yielding the left-key values of the
	// left rows whose columns `cols` match the ak operator's keys.
	normalize := func(ak *xqgm.Operator, cols []int) *xqgm.Operator {
		if sameAsLK(cols) {
			return ak
		}
		pushed := pushdown.PushSemiJoin(l, ak, cols)
		on := make([]xqgm.JoinEq, len(cols))
		for j, c := range cols {
			on[j] = xqgm.JoinEq{L: c, R: j}
		}
		join := xqgm.NewJoin(xqgm.JoinInner, pushed, ak, on, nil)
		return xqgm.NewGroupBy(join, append([]int(nil), lk...))
	}
	var branches []*xqgm.Operator
	if akL != nil {
		branches = append(branches, normalize(akL, kl))
	}
	if akR != nil {
		ko, err := mapRight(kr)
		if err != nil {
			return nil, nil, err
		}
		branches = append(branches, normalize(akR, ko))
	}
	var ak *xqgm.Operator
	if len(branches) == 1 {
		ak = branches[0]
	} else {
		ak = xqgm.NewUnion(true, branches...)
	}
	return ak, append([]int(nil), lk...), nil
}

// ensureProjected returns the output position of a Project that carries
// input column ic, appending a passthrough projection when missing
// (Figure 8 line 57: "Add K to O.outputColumns").
func ensureProjected(o *xqgm.Operator, ic int) int {
	for pi, p := range o.Projs {
		if cr, ok := p.E.(*xqgm.ColRef); ok && cr.Input == 0 && cr.Col == ic {
			return pi
		}
	}
	name := ""
	if names := o.Inputs[0].OutNames(); ic < len(names) {
		name = names[ic]
	}
	if name == "" {
		name = fmt.Sprintf("_ak%d", ic)
	}
	o.Projs = append(o.Projs, xqgm.Proj{Name: name, E: xqgm.Col(ic)})
	return len(o.Projs) - 1
}

// CreateANGraph implements Figure 12: it builds the graph producing
// (OLD_NODE, NEW_NODE) pairs for the XML event ev on path graph G, given
// updates to the named base table. G is not modified; the result owns
// private clones. The returned ANGraph exposes the column layout.
func CreateANGraph(s *schema.Schema, ev reldb.Event, g *xqgm.Operator, table string, opts Options) (*ANGraph, error) {
	deltaSrc, nablaSrc := xqgm.SrcDelta, xqgm.SrcNabla
	if opts.Prune {
		deltaSrc, nablaSrc = xqgm.SrcDeltaPruned, xqgm.SrcNablaPruned
	}

	gNew := xqgm.Clone(g)
	gOld := xqgm.Clone(g)
	// Every base table in the old-side clone reads B_old, not just the
	// fired table. For single-statement firings the other tables have empty
	// transition tables and B_old degenerates to the current table, so this
	// costs nothing; for batched transactions (Tx.Commit) the evaluator is
	// handed the net deltas of every touched table and the old side then
	// reconstructs the true pre-transaction state across tables.
	xqgm.Walk(gOld, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpTable && o.Source == xqgm.SrcBase {
			o.Source = xqgm.SrcOld
		}
	})
	xqgm.DeriveKeys(gNew)
	xqgm.DeriveKeys(gOld)
	if gNew.Key == nil {
		return nil, fmt.Errorf("affected: path graph has no canonical key; view is not trigger-specifiable")
	}

	// Affected keys on the Δ side (over G) and the ∇ side (over G_old).
	akNew, kNew, err := CreateAKGraph(s, gNew, table, deltaSrc)
	if err != nil {
		return nil, err
	}
	akOld, kOld, err := CreateAKGraph(s, gOld, table, nablaSrc)
	if err != nil {
		return nil, err
	}
	if akNew == nil || akOld == nil {
		return nil, fmt.Errorf("affected: table %q does not occur in the path graph", table)
	}
	if len(kNew) != len(kOld) {
		return nil, fmt.Errorf("affected: internal error: Δ/∇ affected-key shapes differ (%v vs %v)", kNew, kOld)
	}
	// Both sides were built from clones of the same graph, so the key
	// column positions agree; assert it.
	for i := range kNew {
		if kNew[i] != kOld[i] {
			return nil, fmt.Errorf("affected: internal error: Δ/∇ key columns differ (%v vs %v)", kNew, kOld)
		}
	}

	// Ou ← Union of the affected keys.
	ou := xqgm.NewUnion(true, akNew, akOld)
	kw := len(kNew)
	key := gNew.Key

	// Trigger pushdown (§5.2): restrict each view side to its keys before
	// joining, so firing cost scales with the number of affected nodes, not
	// the database size (Figure 16 / Figure 23). Then
	// Onew ← Join(Ou.key = G.key)(Ou, G); Oold likewise against G_old.
	onKey := make([]xqgm.JoinEq, kw)
	for j := range onKey {
		onKey[j] = xqgm.JoinEq{L: j, R: kNew[j]}
	}
	side := func(g, keys *xqgm.Operator) (*xqgm.Operator, *xqgm.Operator) {
		pushed := pushdown.PushSemiJoin(g, keys, kNew)
		return pushed, xqgm.NewJoin(xqgm.JoinInner, keys, pushed, onKey, nil)
	}
	// An INSERT graph delivers the NEW nodes with no OLD node of the same
	// canonical key, a DELETE graph the other way round. When the canonical
	// key is made of affected-key columns, that is decided on the keys alone:
	// the side the nodes are present on is restricted to the affected keys
	// the absent side has no node for (Ou ▷ Oold, Ou ▷ Onew), so a commit
	// that makes no node appear or vanish constructs nothing there.
	var gNewP, gOldP, oNew, oOld *xqgm.Operator
	canon, covered := keyPositions(key, kNew)
	absent := func(o *xqgm.Operator) *xqgm.Operator {
		on := make([]xqgm.JoinEq, len(key))
		for i, kc := range key {
			on[i] = xqgm.JoinEq{L: canon[i], R: kw + kc}
		}
		return xqgm.ProjectCols(xqgm.NewJoin(xqgm.JoinLeftAnti, ou, o, on, nil), prefix(kw))
	}
	switch {
	case ev == reldb.EvInsert && covered:
		gOldP, oOld = side(gOld, ou)
		gNewP, oNew = side(gNew, absent(oOld))
	case ev == reldb.EvDelete && covered:
		gNewP, oNew = side(gNew, ou)
		gOldP, oOld = side(gOld, absent(oNew))
	default:
		gNewP, oNew = side(gNew, ou)
		gOldP, oOld = side(gOld, ou)
	}

	vw := gNew.OutWidth()
	if gOld.OutWidth() != vw {
		return nil, fmt.Errorf("affected: internal error: G and G_old widths differ")
	}

	// Final join on the full canonical key; the join type encodes the
	// event semantics (Definitions 2-3).
	topOn := make([]xqgm.JoinEq, len(key))
	for i, kc := range key {
		topOn[i] = xqgm.JoinEq{L: kw + kc, R: kw + kc}
	}
	var root *xqgm.Operator
	switch ev {
	case reldb.EvUpdate:
		root = xqgm.NewJoin(xqgm.JoinInner, oNew, oOld, topOn, nil)
	case reldb.EvInsert:
		root = xqgm.NewJoin(xqgm.JoinLeftAnti, oNew, oOld, topOn, nil)
	case reldb.EvDelete:
		root = xqgm.NewJoin(xqgm.JoinRightAnti, oNew, oOld, topOn, nil)
	default:
		return nil, fmt.Errorf("affected: unknown event %v", ev)
	}

	an := &ANGraph{Root: root, Event: ev, Table: table, keyWidth: kw, viewWidth: vw,
		newSide: gNewP, oldSide: gOldP, keyCols: kNew}

	// Spurious-update filter (Figure 12 line 11 / Appendix E.1): required
	// for UPDATE events unless the view is injective and pruning is on.
	if ev == reldb.EvUpdate && !opts.SkipValueCompare {
		cols := opts.CompareCols
		if len(cols) == 0 {
			for i := 0; i < vw; i++ {
				cols = append(cols, i)
			}
		}
		var diffs []xqgm.Expr
		for _, c := range cols {
			diffs = append(diffs, &xqgm.Logic{Op: "not", Args: []xqgm.Expr{
				&xqgm.Call{Name: "deep-equal", Args: []xqgm.Expr{
					xqgm.Col(an.NewCol(c)),
					xqgm.Col(an.OldCol(c)),
				}},
			}})
		}
		var pred xqgm.Expr
		if len(diffs) == 1 {
			pred = diffs[0]
		} else {
			pred = &xqgm.Logic{Op: "or", Args: diffs}
		}
		an.Root = xqgm.NewSelect(root, pred)
	}
	// The graph is final: plan it once, here, rather than on every Eval.
	if err := xqgm.Prepare(an.Root); err != nil {
		return nil, err
	}
	return an, nil
}

// keyPositions returns where each canonical key column is among the
// affected-key columns, and whether all of them are.
func keyPositions(key, keyCols []int) ([]int, bool) {
	at := make([]int, len(key))
	for i, kc := range key {
		if at[i] = slices.Index(keyCols, kc); at[i] < 0 {
			return nil, false
		}
	}
	return at, true
}

// prefix returns the column positions 0..n-1.
func prefix(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// Restrict returns the operator a member's Select(cond) goes on: the graph's
// root behind a key filter per side whose nodes the root's rows carry (both
// for UPDATE, NEW for INSERT, OLD for DELETE) and that some conjunct of cond
// reads alone. The filter evaluates those conjuncts below the side's element
// constructors (see keyFilter) and yields the affected keys that can satisfy
// them; the root is joined behind it, so a firing none of whose keys can
// satisfy evaluates the filter and stops there — the evaluator skips a join's
// right input when its left is empty. The root itself is shared and
// unchanged: its OLD side still pairs with its NEW side for a key that
// passes. cond stays whole on top, so a conjunct no filter can decide is
// evaluated there alone, and the restriction only ever drops rows the Select
// would have dropped.
func (g *ANGraph) Restrict(cond xqgm.Expr) *xqgm.Operator {
	root := g.Root
	if g.keyWidth == 0 {
		return root // a single node: nothing to choose between
	}
	sides := []struct {
		present bool
		graph   *xqgm.Operator
		keyAt   int // the root's copy of the side's affected key
	}{
		{g.Event != reldb.EvDelete, g.newSide, 0},
		{g.Event != reldb.EvInsert, g.oldSide, g.OldCol(0) - g.keyWidth},
	}
	for _, s := range sides {
		if !s.present {
			continue
		}
		f := keyFilter(s.graph, g.keyCols, cond, s.keyAt+g.keyWidth, g.viewWidth)
		if f == nil {
			continue
		}
		on := make([]xqgm.JoinEq, g.keyWidth)
		for j := range on {
			on[j] = xqgm.JoinEq{L: j, R: s.keyAt + j}
		}
		cols := prefix(root.OutWidth())
		for i := range cols {
			cols[i] += g.keyWidth
		}
		root = xqgm.ProjectCols(xqgm.NewJoin(xqgm.JoinInner, f, root, on, nil), cols)
	}
	return root
}

// keyFilter returns the distinct affected keys of the side rows that satisfy
// the conjuncts of cond reading only the side's view columns, which sit at
// [base, base+width) of the root's rows — or nil when no conjunct does, or
// none can be decided below the side's top operator, where its elements are
// constructed. The conjuncts are evaluated as far down the side as descend
// carries their columns and the keys together.
func keyFilter(side *xqgm.Operator, keyCols []int, cond xqgm.Expr, base, width int) *xqgm.Operator {
	var conj []xqgm.Expr
	cols := slices.Clone(keyCols) // the keys, then the columns the conjuncts read
	for _, c := range xqgm.Conjuncts(cond) {
		vc, ok := viewCols(c, base, width)
		if !ok {
			continue
		}
		if r, _ := descend(side, append(slices.Clone(keyCols), vc...)); r == side {
			continue
		}
		conj = append(conj, c)
		cols = append(cols, vc...)
	}
	if len(conj) == 0 {
		return nil
	}
	r, at := descend(side, cols)
	m := make(map[int]int, len(cols))
	for i, vc := range cols {
		m[base+vc] = at[i]
	}
	kw := len(keyCols)
	f := xqgm.ProjectCols(xqgm.NewSelect(r, xqgm.SubstituteCols(xqgm.And(conj...), m)), at[:kw])
	if r.Key == nil || slices.ContainsFunc(r.Key, func(c int) bool { return !slices.Contains(at[:kw], c) }) {
		f = xqgm.NewGroupBy(f, prefix(kw)) // r does not key on them: distinct
	}
	return f
}

// viewCols returns the view columns e reads when it reads at least one and
// nothing but columns in [base, base+width) of its input. A path step
// rebinds column 0 in its predicate, and an expression of a type this
// package does not know could read anything: neither qualifies.
func viewCols(e xqgm.Expr, base, width int) ([]int, bool) {
	var cols []int
	ok := true
	xqgm.RewriteExpr(e, func(x xqgm.Expr) xqgm.Expr {
		switch x := x.(type) {
		case *xqgm.ColRef:
			if x.Input != 0 || x.Col < base || x.Col >= base+width {
				ok = false
			} else {
				cols = append(cols, x.Col-base)
			}
		case *xqgm.Lit, *xqgm.Cmp, *xqgm.Arith, *xqgm.Logic, *xqgm.Call, *xqgm.IsNullExpr:
		default:
			ok = false
		}
		return x
	})
	return cols, ok && len(cols) > 0
}

// descend follows the output columns at of o down through column-reference
// Projects, Selects and the left input of left-outer joins for as long as
// all of them go, and returns the operator reached with the columns'
// positions there. Every row of o has a row there with the same values in
// those columns: a predicate over them that a row of o satisfies, a row there
// satisfies too.
func descend(o *xqgm.Operator, at []int) (*xqgm.Operator, []int) {
	for {
		switch {
		case o.Type == xqgm.OpSelect:
		case o.Type == xqgm.OpProject:
			in := make([]int, len(at))
			for i, c := range at {
				cr, ok := o.Projs[c].E.(*xqgm.ColRef)
				if !ok || cr.Input != 0 {
					return o, at
				}
				in[i] = cr.Col
			}
			at = in
		case o.Type == xqgm.OpJoin && o.JoinKind == xqgm.JoinLeftOuter:
			if slices.Max(at) >= o.Inputs[0].OutWidth() {
				return o, at
			}
		default:
			return o, at
		}
		o = o.Inputs[0]
	}
}

// Pairs evaluates the ANGraph and returns the affected (old, new) tuples of
// the view output, both sides restricted to the original view width.
type Pair struct {
	Old, New xqgm.Tuple
}

// Eval runs the ANGraph under the given transition tables and extracts the
// (old, new) view tuples.
func (g *ANGraph) Eval(db *reldb.DB, deltas map[string]*xqgm.Transition) ([]Pair, error) {
	ctx := xqgm.NewEvalContext(db, deltas)
	rows, err := ctx.Eval(g.Root)
	if err != nil {
		return nil, err
	}
	out := make([]Pair, 0, len(rows))
	for _, r := range rows {
		p := Pair{Old: make(xqgm.Tuple, g.viewWidth), New: make(xqgm.Tuple, g.viewWidth)}
		for i := 0; i < g.viewWidth; i++ {
			p.New[i] = r[g.NewCol(i)]
			p.Old[i] = r[g.OldCol(i)]
		}
		out = append(out, p)
	}
	return out, nil
}

// InjectiveFor implements the Appendix F.2 sufficient conditions: it
// reports whether the view graph is injective with respect to the given
// base table. The check computes, for every output column of every
// operator, the set of the table's base columns that are injectively
// recoverable from it: direct column references, XML-constructor embedding,
// and aggXMLFrag embedding preserve their arguments injectively; all other
// expressions and aggregates lose information. The view is injective for
// the table iff the root's output jointly recovers every column of the
// table. Injective views need no OLD_NODE ≠ NEW_NODE comparison when pruned
// transition tables are used (Theorem 3).
func InjectiveFor(root *xqgm.Operator, table string) bool {
	def := tableWidth(root, table)
	if def == 0 {
		return false
	}
	recov := recoverable(root, table, map[*xqgm.Operator][]colMask{})
	var all colMask
	for _, m := range recov {
		all |= m
	}
	return all == (colMask(1)<<def)-1
}

// colMask is a bitset over a base table's column indexes (tables are small).
type colMask uint64

func tableWidth(root *xqgm.Operator, table string) int {
	w := 0
	xqgm.Walk(root, func(o *xqgm.Operator) {
		if o.Type == xqgm.OpTable && o.Table == table {
			w = o.Width
		}
	})
	return w
}

// recoverable returns, per output column, the mask of `table` base columns
// injectively recoverable from that column.
func recoverable(o *xqgm.Operator, table string, memo map[*xqgm.Operator][]colMask) []colMask {
	if r, ok := memo[o]; ok {
		return r
	}
	var out []colMask
	switch o.Type {
	case xqgm.OpTable:
		out = make([]colMask, o.Width)
		if o.Table == table {
			for i := range out {
				out[i] = colMask(1) << i
			}
		}
	case xqgm.OpConstants:
		out = make([]colMask, o.Width)
	case xqgm.OpSelect, xqgm.OpOrderBy:
		out = recoverable(o.Inputs[0], table, memo)
	case xqgm.OpProject:
		in := recoverable(o.Inputs[0], table, memo)
		out = make([]colMask, len(o.Projs))
		for pi, p := range o.Projs {
			out[pi] = exprRecov(p.E, in)
		}
	case xqgm.OpJoin:
		lt := recoverable(o.Inputs[0], table, memo)
		rt := recoverable(o.Inputs[1], table, memo)
		out = make([]colMask, 0, len(lt)+len(rt))
		out = append(out, lt...)
		out = append(out, rt...)
	case xqgm.OpGroupBy:
		in := recoverable(o.Inputs[0], table, memo)
		out = make([]colMask, 0, len(o.GroupCols)+len(o.Aggs))
		for _, g := range o.GroupCols {
			out = append(out, in[g])
		}
		for _, a := range o.Aggs {
			if a.Func == xqgm.AggXMLFrag && a.Arg != nil {
				// aggXMLFrag concatenates its arguments into a sequence,
				// preserving each fragment: injective (F.2).
				out = append(out, exprRecovCtor(a.Arg, in))
			} else {
				// count/sum/min/max/avg lose the contributing values.
				out = append(out, 0)
			}
		}
	default:
		// Union merges duplicates and Unnest duplicates rows: conservative.
		out = make([]colMask, o.OutWidth())
	}
	memo[o] = out
	return out
}

// exprRecov computes the recoverable mask of an expression used as a
// projection: only direct column references and XML constructors preserve
// their inputs injectively.
func exprRecov(e xqgm.Expr, in []colMask) colMask {
	switch x := e.(type) {
	case *xqgm.ColRef:
		if x.Input == 0 && x.Col < len(in) {
			return in[x.Col]
		}
	case *xqgm.ElemCtor:
		return exprRecovCtor(x, in)
	}
	return 0
}

// exprRecovCtor computes the recoverable mask of an expression embedded in
// an XML fragment: constructors render each child into a distinct position,
// so direct column references and nested constructors are injective, while
// computed values (arithmetic, comparisons, function calls) are not.
func exprRecovCtor(e xqgm.Expr, in []colMask) colMask {
	switch x := e.(type) {
	case *xqgm.ColRef:
		if x.Input == 0 && x.Col < len(in) {
			return in[x.Col]
		}
	case *xqgm.ElemCtor:
		var m colMask
		for _, a := range x.Attrs {
			m |= exprRecovCtor(a.E, in)
		}
		for _, c := range x.Children {
			m |= exprRecovCtor(c, in)
		}
		return m
	}
	return 0
}
