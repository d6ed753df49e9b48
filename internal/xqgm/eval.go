package xqgm

import (
	"fmt"
	"slices"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// Tuple is one output row of an operator.
type Tuple []xdm.Value

// Transition carries a statement's transition tables for one base table
// (Δtable = Inserted, ∇table = Deleted).
type Transition struct {
	Inserted []reldb.Row
	Deleted  []reldb.Row
}

// EvalStats counts evaluator work for benchmarks and plan-shape tests.
type EvalStats struct {
	OpsEvaluated   int
	RowsProduced   int
	IndexNLJoins   int
	HashJoins      int
	NestedLoopJoin int
}

// EvalContext supplies the data environment for evaluating a graph: the
// database, the firing statement's transition tables, and result
// memoization so shared DAG nodes are computed once.
type EvalContext struct {
	DB     *reldb.DB
	Deltas map[string]*Transition
	Stats  EvalStats

	memo map[*node][]Tuple
	// adhoc holds the plans of graphs evaluated here without a prior
	// Prepare. They live in the context, not on the Operator, so evaluation
	// never writes to a graph another goroutine may be evaluating.
	adhoc map[*Operator]*node
	// oldExcl caches, per table, the Δ primary-key set used to mask
	// current rows when probing B_old; delIdx caches ∇ rows bucketed by a
	// probe column. Both depend only on the (fixed) transition tables, and
	// without them every SrcOld index probe would rescan Δ and ∇ — O(|Δ|)
	// per probe, quadratic over a large batched transaction.
	oldExcl map[string]map[xdm.CompKey]struct{}
	delIdx  map[tableCol]map[xdm.CompKey][]reldb.Row
	hits    []hit // index-join scratch, reused from join to join
}

// hit is one index-join match: an outer tuple and the base row it probed.
type hit struct {
	outer int
	row   reldb.Row
}

// tableCol keys the ∇-row cache without per-probe string formatting.
type tableCol struct {
	table string
	col   int
}

// NewEvalContext builds an evaluation context over db. deltas may be nil
// for pure view evaluation.
func NewEvalContext(db *reldb.DB, deltas map[string]*Transition) *EvalContext {
	return &EvalContext{DB: db, Deltas: deltas}
}

// Eval evaluates the graph rooted at o and returns its output tuples. It
// runs o's prepared plan (see Prepare), planning the graph first — for this
// context only — when it has none. Results for shared and structurally
// identical operators are memoized within this context. The returned tuples
// are shared with the memo and, for pass-through operators, with the
// database's rows: callers must not modify them.
func (ctx *EvalContext) Eval(o *Operator) ([]Tuple, error) {
	n := o.prep
	if n == nil {
		if n = ctx.adhoc[o]; n == nil {
			ns, err := plan([]*Operator{o})
			if err != nil {
				return nil, err
			}
			if ctx.adhoc == nil {
				ctx.adhoc = map[*Operator]*node{}
			}
			n = ns[0]
			ctx.adhoc[o] = n
		}
	}
	if ctx.memo == nil {
		ctx.memo = make(map[*node][]Tuple, n.id+1) // ids below a root do not exceed its own
	}
	return ctx.run(n)
}

func (ctx *EvalContext) run(n *node) ([]Tuple, error) {
	if res, ok := ctx.memo[n]; ok {
		return res, nil
	}
	res, err := ctx.exec(n)
	if err != nil {
		return nil, err
	}
	ctx.memo[n] = res
	ctx.Stats.OpsEvaluated++
	ctx.Stats.RowsProduced += len(res)
	return res, nil
}

// holds evaluates a predicate: NULL counts as false.
func holds(pred Expr, env *Env) (bool, error) {
	v, err := pred.Eval(env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.EffectiveBool(), nil
}

// slab carves an operator's output tuples out of shared backing arrays, so
// an output costs a handful of allocations instead of one per tuple. Fresh
// tuples are all-NULL. n is the number of tuples the next array holds.
type slab struct {
	w, n int
	buf  []xdm.Value
}

func (s *slab) next() Tuple {
	if len(s.buf) < s.w {
		s.buf = make([]xdm.Value, max(s.n, 1)*s.w)
		s.n = min(2*max(s.n, 1), 1024)
	}
	t := s.buf[:s.w:s.w]
	s.buf = s.buf[s.w:]
	return t
}

func (ctx *EvalContext) exec(n *node) ([]Tuple, error) {
	switch n.op.Type {
	case OpTable:
		return ctx.evalTable(n.op)
	case OpConstants:
		return n.rows, nil
	case OpJoin:
		return ctx.evalJoin(n)
	case OpUnion:
		return ctx.evalUnion(n)
	case OpSelect, OpProject, OpGroupBy, OpOrderBy, OpUnnest:
		in, err := ctx.run(n.in[0])
		if err != nil {
			return nil, err
		}
		return ctx.evalUnary(n, in)
	default:
		return nil, fmt.Errorf("xqgm: cannot evaluate operator %s", n.op.Type)
	}
}

func (ctx *EvalContext) evalUnary(n *node, in []Tuple) ([]Tuple, error) {
	o := n.op
	env := &Env{} // one per operator pass, re-pointed at each tuple
	switch o.Type {
	case OpSelect:
		var out []Tuple
		for _, t := range in {
			env.In[0] = t
			ok, err := holds(o.Pred, env)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, t)
			}
		}
		return out, nil
	case OpProject:
		out := make([]Tuple, len(in))
		sl := slab{w: len(o.Projs), n: len(in)}
		for i, t := range in {
			env.In[0] = t
			nt := sl.next()
			for j, p := range o.Projs {
				if !n.live[j] {
					continue // nobody reads it: stays NULL, nothing is constructed
				}
				v, err := p.E.Eval(env)
				if err != nil {
					return nil, err
				}
				nt[j] = v
			}
			out[i] = nt
		}
		return out, nil
	case OpGroupBy:
		return ctx.evalGroupBy(n, in, env)
	case OpOrderBy:
		out := append([]Tuple(nil), in...)
		slices.SortStableFunc(out, func(a, b Tuple) int {
			for _, oc := range o.OrderCols {
				if c := xdm.Compare(a[oc.Col], b[oc.Col]); c != 0 && oc.Desc {
					return -c
				} else if c != 0 {
					return c
				}
			}
			return 0
		})
		return out, nil
	default: // OpUnnest
		var out []Tuple
		for _, t := range in {
			for _, item := range t[o.UnnestCol].AsSeq() {
				nt := append(Tuple(nil), t...)
				nt[o.UnnestCol] = item
				out = append(out, nt)
			}
		}
		return out, nil
	}
}

func rowsToTuples(rows []reldb.Row) []Tuple {
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = Tuple(r)
	}
	return out
}

// noTransition stands for the transition tables of an untouched table.
var noTransition Transition

func (ctx *EvalContext) transition(table string) *Transition {
	if tr, ok := ctx.Deltas[table]; ok {
		return tr
	}
	return &noTransition
}

func (ctx *EvalContext) evalTable(o *Operator) ([]Tuple, error) {
	tr := ctx.transition(o.Table)
	switch o.Source {
	case SrcBase:
		out := make([]Tuple, 0, ctx.DB.RowCount(o.Table))
		err := ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			out = append(out, Tuple(r))
			return true
		})
		return out, err
	case SrcDelta:
		return rowsToTuples(tr.Inserted), nil
	case SrcNabla:
		return rowsToTuples(tr.Deleted), nil
	case SrcDeltaPruned:
		return rowsToTuples(pruneRows(tr.Inserted, tr.Deleted)), nil
	case SrcNablaPruned:
		return rowsToTuples(pruneRows(tr.Deleted, tr.Inserted)), nil
	case SrcOld:
		return ctx.evalOldTable(o, tr)
	default:
		return nil, fmt.Errorf("xqgm: unknown table source %d", o.Source)
	}
}

// pruneRows implements the pruned transition tables of Definition 8:
// rows of a that also appear (as full rows) in b are removed.
func pruneRows(a, b []reldb.Row) []reldb.Row {
	if len(a) == 0 || len(b) == 0 {
		return a
	}
	drop := make(map[xdm.CompKey]int, len(b))
	for _, r := range b {
		drop[xdm.RowKey(r)]++
	}
	var out []reldb.Row
	for _, r := range a {
		k := xdm.RowKey(r)
		if n := drop[k]; n > 0 {
			drop[k] = n - 1
			continue
		}
		out = append(out, r)
	}
	return out
}

// evalOldTable reconstructs B_old = (B EXCEPT ALL ΔB) UNION ALL ∇B (paper
// §4.2). B_old is a bag expression: with a primary key, Δ keys are unique in
// the table so a key set is exact; without one the table may hold duplicate
// rows and Δ must be subtracted with multiplicity, not as a set.
func (ctx *EvalContext) evalOldTable(o *Operator, tr *Transition) ([]Tuple, error) {
	var out []Tuple
	var err error
	if len(o.TablePK) > 0 {
		exclude := ctx.oldExclFor(o.Table, o.TablePK)
		err = ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			if len(exclude) > 0 {
				if _, masked := exclude[xdm.ColsKey(r, o.TablePK)]; masked {
					return true
				}
			}
			out = append(out, Tuple(r))
			return true
		})
	} else {
		remain := make(map[xdm.CompKey]int, len(tr.Inserted))
		for _, r := range tr.Inserted {
			remain[xdm.RowKey(r)]++
		}
		err = ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			k := xdm.RowKey(r)
			if n := remain[k]; n > 0 {
				remain[k] = n - 1
				return true
			}
			out = append(out, Tuple(r))
			return true
		})
	}
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Deleted {
		out = append(out, Tuple(r))
	}
	return out, nil
}

// --- joins ---

func (ctx *EvalContext) evalJoin(n *node) ([]Tuple, error) {
	// Index-nested-loop path: inner joins one of whose sides is a
	// base-table access path with an index on a join column. This is what
	// keeps per-update trigger cost independent of data size (paper §6.4 /
	// Figure 23): only affected keys are probed.
	for outer := range n.probes {
		if res, ok, err := ctx.indexJoin(n, outer); ok || err != nil {
			return res, err
		}
	}
	lt, err := ctx.run(n.in[0])
	if err != nil {
		return nil, err
	}
	rt, err := ctx.run(n.in[1])
	if err != nil {
		return nil, err
	}
	return ctx.hashJoin(n, lt, rt)
}

// indexJoin attempts an index-nested-loop join driven by input `outer`,
// probing the other input's base table. Each probed row is checked and
// written straight into the output tuple; the inner operator's own output
// is never materialized.
func (ctx *EvalContext) indexJoin(n *node, outer int) ([]Tuple, bool, error) {
	pr := n.probes[outer]
	if pr == nil {
		return nil, false, nil
	}
	bp := pr.bp
	// Probe through the first equi-pair whose inner column is indexed.
	pi := -1
	for i, bc := range pr.baseCols {
		if ctx.DB.HasIndex(bp.table, bp.cols[bc]) {
			pi = i
			break
		}
	}
	if pi < 0 {
		return nil, false, nil
	}
	ot, err := ctx.run(n.in[outer])
	if err != nil {
		return nil, false, err
	}
	// Heuristic: only probe when the driving side is small relative to the
	// table; otherwise a hash join over a single scan is cheaper.
	if rows := ctx.DB.RowCount(bp.table); len(ot) > 64 && len(ot)*4 > rows {
		return nil, false, nil
	}
	ctx.Stats.IndexNLJoins++
	ocols, lw := n.lcols, n.in[0].width
	ooff, ioff := 0, lw // where the outer and the inner part land in the output
	if outer == 1 {
		ocols, ooff, ioff = n.rcols, lw, 0
	}
	// First collect the (outer tuple, base row) matches, then build the
	// output in one exactly-sized array.
	hits := ctx.hits[:0]
	env := &Env{}
	var oi int
	var rowErr error
	emit := func(r reldb.Row) bool {
		if bp.residual != nil {
			env.In[0] = r
			ok, err := holds(bp.residual, env)
			if err != nil {
				rowErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		for i, bc := range pr.baseCols {
			if a, b := ot[oi][ocols[i]], r[bc]; i != pi && (a.IsNull() || b.IsNull() || !xdm.Equal(a, b)) {
				return true
			}
		}
		hits = append(hits, hit{oi, r})
		return true
	}
	for oi = range ot {
		if v := ot[oi][ocols[pi]]; !v.IsNull() {
			if err := ctx.lookupPath(bp, pr.baseCols[pi], v, emit); err != nil {
				return nil, false, err
			}
			if rowErr != nil {
				return nil, false, rowErr
			}
		}
	}
	ctx.hits = hits
	out := make([]Tuple, len(hits))
	sl := slab{w: n.width, n: len(hits)}
	for i, h := range hits {
		jt := sl.next()
		copy(jt[ooff:], ot[h.outer])
		for j, bc := range bp.colMap {
			jt[ioff+j] = h.row[bc]
		}
		out[i] = jt
	}
	if o := n.op; o.JoinPred != nil {
		kept := out[:0]
		for _, t := range out {
			env.In = [2][]xdm.Value{t[:lw], t[lw:]}
			ok, err := holds(o.JoinPred, env)
			if err != nil {
				return nil, false, err
			}
			if ok {
				kept = append(kept, t)
			}
		}
		out = kept
	}
	return out, true, nil
}

// oldExclFor returns (building once per context) the Δ primary-key set of
// a table, used to mask already-updated rows out of B_old.
func (ctx *EvalContext) oldExclFor(table string, pk []int) map[xdm.CompKey]struct{} {
	tr := ctx.transition(table)
	if len(tr.Inserted) == 0 {
		return nil
	}
	if m, ok := ctx.oldExcl[table]; ok {
		return m
	}
	m := make(map[xdm.CompKey]struct{}, len(tr.Inserted))
	for _, r := range tr.Inserted {
		m[xdm.ColsKey(r, pk)] = struct{}{}
	}
	if ctx.oldExcl == nil {
		ctx.oldExcl = map[string]map[xdm.CompKey]struct{}{}
	}
	ctx.oldExcl[table] = m
	return m
}

// deletedByCol returns (building once per context) the table's ∇ rows
// bucketed by the given column's value.
func (ctx *EvalContext) deletedByCol(table string, col int) map[xdm.CompKey][]reldb.Row {
	key := tableCol{table, col}
	if m, ok := ctx.delIdx[key]; ok {
		return m
	}
	tr := ctx.transition(table)
	m := make(map[xdm.CompKey][]reldb.Row, len(tr.Deleted))
	for _, r := range tr.Deleted {
		k := r[col].CompKey()
		m[k] = append(m[k], r)
	}
	if ctx.delIdx == nil {
		ctx.delIdx = map[tableCol]map[xdm.CompKey][]reldb.Row{}
	}
	ctx.delIdx[key] = m
	return m
}

// lookupPath probes a base-path by the index on base column col. For SrcOld
// it reconstructs the pre-update row set on the fly: current rows whose
// primary key is not in ΔB, plus the matching ∇B rows (paper §4.2's B_old,
// evaluated per probe instead of materialized).
func (ctx *EvalContext) lookupPath(bp *basePath, col int, v xdm.Value, fn func(reldb.Row) bool) error {
	if bp.src == SrcBase {
		return ctx.DB.Lookup(bp.table, bp.cols[col], v, fn)
	}
	excl := ctx.oldExclFor(bp.table, bp.pk)
	stop := false
	err := ctx.DB.Lookup(bp.table, bp.cols[col], v, func(r reldb.Row) bool {
		if len(excl) > 0 {
			if _, masked := excl[xdm.ColsKey(r, bp.pk)]; masked {
				return true
			}
		}
		stop = !fn(r)
		return !stop
	})
	if err != nil || stop {
		return err
	}
	if len(ctx.transition(bp.table).Deleted) == 0 {
		return nil
	}
	for _, r := range ctx.deletedByCol(bp.table, col)[v.CompKey()] {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// hashJoin joins on the equi-pairs by hashing one side; with no equi-pairs
// the one-bucket index makes it the nested loop. Right-anti joins build on
// the left and probe with the right; every other kind builds on the right.
func (ctx *EvalContext) hashJoin(n *node, lt, rt []Tuple) ([]Tuple, error) {
	o := n.op
	if len(o.On) > 0 {
		ctx.Stats.HashJoins++
	} else {
		ctx.Stats.NestedLoopJoin++
	}
	anti := o.JoinKind == JoinRightAnti
	probe, build, pcols, bcols := lt, rt, n.lcols, n.rcols
	if anti {
		probe, build, pcols, bcols = rt, lt, n.rcols, n.lcols
	}
	ix := n.build // frozen at Prepare for a Constants right input
	if ix.head == nil {
		ix = newHashIndex(build, bcols)
	}
	emits := o.JoinKind == JoinInner || o.JoinKind == JoinLeftOuter // else a match only disqualifies
	lw := n.in[0].width
	sl := slab{w: n.width, n: len(probe)}
	env := &Env{}
	var out []Tuple
	for _, p := range probe {
		matched := false
		if !hasNull(p, pcols) {
			for i := ix.head[xdm.ColsKey(p, pcols)]; i != 0 && (emits || !matched); i = ix.next[i-1] {
				l, r := p, build[i-1]
				if anti {
					l, r = r, l
				}
				if o.JoinPred != nil {
					env.In = [2][]xdm.Value{l, r}
					ok, err := holds(o.JoinPred, env)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				matched = true
				if emits {
					jt := sl.next()
					copy(jt, l)
					copy(jt[lw:], r)
					out = append(out, jt)
				}
			}
		}
		if matched || o.JoinKind == JoinInner {
			continue
		}
		// Outer and anti joins keep the unmatched row; the absent side is NULL.
		jt := sl.next()
		if anti {
			copy(jt[lw:], p)
		} else {
			copy(jt, p)
		}
		out = append(out, jt)
	}
	return out, nil
}

// --- group by ---

func (ctx *EvalContext) evalGroupBy(n *node, in []Tuple, env *Env) ([]Tuple, error) {
	o := n.op
	// Number the groups in first-seen order, then counting-sort the rows so
	// each group is one run of rows (in input order).
	gid := make([]int32, len(in))
	byKey := make(map[xdm.CompKey]int32)
	var keys []xdm.CompKey
	var end []int32 // per group: row count, then the end of its run
	for i, t := range in {
		k := xdm.ColsKey(t, o.GroupCols)
		g, ok := byKey[k]
		if !ok {
			g = int32(len(keys))
			byKey[k] = g
			keys = append(keys, k)
			end = append(end, 0)
		}
		gid[i] = g
		end[g]++
	}
	// Global aggregate over empty input yields one row (SQL semantics);
	// grouped aggregate over empty input yields none.
	if len(o.GroupCols) == 0 && len(keys) == 0 {
		keys, end = append(keys, xdm.CompKey{}), append(end, 0)
	}
	order := make([]int32, len(keys))
	for g := range order {
		order[g] = int32(g)
		if g > 0 {
			end[g] += end[g-1]
		}
	}
	rows := make([]Tuple, len(in))
	for i := len(in) - 1; i >= 0; i-- {
		end[gid[i]]--
		rows[end[gid[i]]] = in[i]
	}
	// end[g] is now the start of group g's run; its end is the next start.
	slices.SortFunc(order, func(a, b int32) int { return keys[a].Compare(keys[b]) }) // deterministic group order
	out := make([]Tuple, 0, len(order))
	sl := slab{w: n.width, n: len(order)}
	for _, g := range order {
		stop := len(in)
		if int(g)+1 < len(end) {
			stop = int(end[g+1])
		}
		grp := rows[end[g]:stop]
		t := sl.next()
		for i, c := range o.GroupCols {
			t[i] = grp[0][c]
		}
		// Deterministic intra-group order: sort by the input's canonical
		// key when available, else by full tuple. This fixes the document
		// order of aggXMLFrag sequences (XQuery for-loop order over
		// relational data is implementation-defined; we pick key order).
		sortTuples(grp, n.inKey)
		for i, a := range o.Aggs {
			v, err := evalAgg(a, grp, env)
			if err != nil {
				return nil, err
			}
			t[len(o.GroupCols)+i] = v
		}
		out = append(out, t)
	}
	return out, nil
}

// sortTuples stably sorts rows by the key columns (every column when key is
// nil), leaving already-ordered input untouched.
func sortTuples(rows []Tuple, key []int) {
	cmp := func(a, b Tuple) int {
		if key == nil {
			for i := range a {
				if r := xdm.Compare(a[i], b[i]); r != 0 {
					return r
				}
			}
			return 0
		}
		for _, c := range key {
			if r := xdm.Compare(a[c], b[c]); r != 0 {
				return r
			}
		}
		return 0
	}
	if !slices.IsSortedFunc(rows, cmp) {
		slices.SortStableFunc(rows, cmp)
	}
}

// evalAgg computes one aggregate over a group's rows; env is the caller's
// reusable environment.
func evalAgg(a Agg, rows []Tuple, env *Env) (xdm.Value, error) {
	if a.Func == AggCount && a.Arg == nil {
		return xdm.Int(int64(len(rows))), nil
	}
	var (
		count, isum  int64
		sum          float64
		allInt, some = true, false
		best         xdm.Value
		items        []xdm.Value
	)
	for _, t := range rows {
		env.In[0] = t
		v, err := a.Arg.Eval(env)
		if err != nil {
			return xdm.Null, err
		}
		switch a.Func {
		case AggCount:
			if !v.IsNull() {
				count += int64(v.SeqLen())
			}
		case AggSum, AggAvg:
			if v = xdm.Atomize(v); v.IsNull() {
				continue
			}
			if v.Kind() == xdm.KindInt {
				isum += v.AsInt()
			} else {
				allInt = false
			}
			sum += v.AsFloat()
			count++
		case AggMin, AggMax:
			if v = xdm.Atomize(v); v.IsNull() {
				continue
			}
			if c := xdm.Compare(v, best); !some || (a.Func == AggMin && c < 0) || (a.Func == AggMax && c > 0) {
				best, some = v, true
			}
		case AggXMLFrag:
			if items == nil {
				items = make([]xdm.Value, 0, len(rows))
			}
			if v.Kind() == xdm.KindSeq {
				items = append(items, v.AsSeq()...)
			} else if !v.IsNull() {
				items = append(items, v)
			}
		}
	}
	switch a.Func {
	case AggCount:
		return xdm.Int(count), nil
	case AggSum, AggAvg:
		switch {
		case count == 0:
			return xdm.Null, nil
		case a.Func == AggAvg:
			return xdm.Float(sum / float64(count)), nil
		case allInt:
			return xdm.Int(isum), nil
		}
		return xdm.Float(sum), nil
	case AggMin, AggMax:
		return best, nil // Null when no row had a value
	case AggXMLFrag:
		return xdm.Seq(items), nil
	default:
		return xdm.Null, fmt.Errorf("xqgm: unknown aggregate %v", a.Func)
	}
}

// --- union ---

func (ctx *EvalContext) evalUnion(n *node) ([]Tuple, error) {
	var out []Tuple
	var seen map[xdm.CompKey]struct{}
	if n.op.Distinct {
		seen = map[xdm.CompKey]struct{}{}
	}
	for _, in := range n.in {
		ts, err := ctx.run(in)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			if seen != nil {
				k := xdm.RowKey(t)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// SortedEval evaluates o and returns the tuples sorted by the given
// columns (all columns when cols is nil) for deterministic comparison in
// tests and oracles.
func (ctx *EvalContext) SortedEval(o *Operator, cols []int) ([]Tuple, error) {
	ts, err := ctx.Eval(o)
	if err != nil {
		return nil, err
	}
	out := append([]Tuple(nil), ts...)
	sortTuples(out, cols)
	return out, nil
}
