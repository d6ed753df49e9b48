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
	OpsEvaluated int
	RowsProduced int
	// RowsReused counts the produced rows an operator over B_old took from
	// its twin's output instead of computing them (see EvalContext).
	RowsReused int
	// JoinsSkipped counts the joins that returned without evaluating their
	// right input, because their left input was empty (see evalJoin).
	JoinsSkipped int
	// OpsShared counts the operators that took their output from another
	// owner's plan instead of evaluating (see EvalFor).
	OpsShared int
	// NodesBuilt counts the XML nodes the evaluation's constructors built.
	NodesBuilt     int
	IndexNLJoins   int
	HashJoins      int
	NestedLoopJoin int
}

// EvalContext supplies the data environment for evaluating a graph: the
// database, the firing statement's transition tables, and result
// memoization so shared DAG nodes are computed once.
//
// An operator over B_old that Prepare paired with a twin over the current
// tables is evaluated as an edit of the twin: the twin runs first (an
// affected-node graph needs both sides anyway), and wherever this operator's
// input tuple is the twin's input tuple — the operator below took it from
// *its* twin — its output tuple is the twin's. Only the rest is computed:
// an index join into B_old keeps the twin's matches whose primary key is not
// in Δ and probes ∇ alone; Select, Project and GroupBy evaluate the tuples
// and groups the statement changed. So the subtrees of OLD_NODE the
// statement did not touch are the subtrees of NEW_NODE, not copies. Whatever
// cannot be matched up is computed as if there were no twin: a hash join, a
// keyless table (B_old is then a bag, not an index probe), a join whose twin
// chose another access path, an outer tuple that itself changed. All of this
// state is per context; evaluation never writes to a plan.
//
// One context may evaluate many plans over the same transition tables — a
// statement's trigger bodies share one — and then allocates per plan only
// for the operators that plan runs. The memo is a slice indexed by node id
// and the trails one indexed by pair slot (allocated on the first trail
// left); both belong to one plan at a time and are cleared, not freed, when
// Eval is handed a root of another. What depends only on Deltas — the
// transition tables as tuples, pruned or not, and the Δ-key sets and ∇
// indexes of B_old probes — is built once per context.
//
// Plans evaluated for different owners (see EvalFor) share their work: when
// the context turns from one owner's plan to another's, it keeps what the
// finished plan computed, by node key, with the trails its twin pairs left,
// and a node of a later plan with the same key takes that output instead of
// evaluating (see take). Plans of one owner share nothing. Reset empties the
// memo and what is kept when the database may have changed in between.
//
// A context may serve one statement after another: Rebind starts the next.
// A rebound context cuts its operators' outputs — tuple cells, output arrays,
// GroupBy's row permutation, the trails' positions — from blocks it keeps,
// and the next Rebind clears them and cuts the next statement's outputs from
// them again. What it builds from the transition tables is reused the same
// way: the Δ-key and ∇ indexes and the index a pruned table or a keyless
// B_old is computed with are open-addressed tables of row positions
// (keyIndex), whose slices the next statement builds its own in; the memo,
// the trails, the caches' maps and the join scratch are cleared, not
// remade. Across a Rebind the context keeps no row, tuple or node of the
// last statement, and at most maxKeptBytes of outputs and indexes together
// (KeptBytes). So the tuples EvalFor returns are valid until the next
// Rebind, and whatever outlives the statement — a node, an aggregate's item
// sequence, a value copied out of a tuple — must not be a tuple. A context
// that is never rebound allocates every output on its own and keeps
// nothing: its tuples live as long as they are referenced.
type EvalContext struct {
	DB     *reldb.DB
	Deltas map[string]*Transition
	Stats  EvalStats

	plan  *planShape  // the plan memo and trails belong to
	owner any         // whom it is evaluated for
	memo  []memoEntry // by node id
	// trails holds what the nodes of twin pairs leave for each other, by
	// slot-1; it is empty until the first one leaves a trail.
	trails []trail
	// kept holds, by key, the outputs finished plans computed; nil until a
	// plan is kept.
	kept map[nodeKey]keptOut
	// adhoc holds the plans of graphs evaluated here without a prior
	// Prepare. They live in the context, not on the Operator, so evaluation
	// never writes to a graph another goroutine may be evaluating.
	adhoc map[*Operator]*node
	// oldExcl indexes, per table, Δ by primary key: the rows B_old masks
	// out of the current table. delIdx indexes ∇ by a probe column. Both
	// depend only on the (fixed) transition tables, and without them every
	// SrcOld index probe would rescan Δ and ∇ — O(|Δ|) per probe, quadratic
	// over a large batched transaction.
	oldExcl map[string]*keyIndex
	delIdx  map[tableCol]*keyIndex
	// spare holds the indexes of earlier statements, emptied, for the next
	// ones to build in. prune is the index a pruned transition table or a
	// keyless B_old scan builds and is done with, and used marks the rows of
	// prune a match took.
	spare []*keyIndex
	prune keyIndex
	used  []bool
	// trans caches the transition tables read as tuples — Δ, ∇ and their
	// pruned forms — by table and source.
	trans map[tableCol][]Tuple
	mem   outMem // what outputs are cut from: see Rebind
	hits  []hit  // index-join scratch, reused from join to join
	// matches is hash-join scratch: the (probe, build) pairs of one join
	// before its output is built, build -1 for an unmatched probe tuple.
	matches []match
	// groupBy is GroupBy's scratch, reused from pass to pass.
	groupBy groupScratch
	env     Env // the running pass's environment: see passEnv
}

// match is one hash-join output tuple: positions in the probe and the build
// input, the build position -1 when the probe tuple stands alone.
type match struct{ p, b int32 }

// groupScratch is what a GroupBy pass needs only while it runs: the group of
// each key, the keys in first-seen order, the runs' ends, the twin's group
// behind each group, and the groups in key order.
type groupScratch struct {
	byKey          map[xdm.CompKey]int32
	keys           []xdm.CompKey
	end, twin, ord []int32
}

// memoEntry is one node's memoized output and the node that computed it:
// the node itself, or the node of a finished plan whose output it took; by
// is nil until there is an output, so it tells an empty one from none yet.
type memoEntry struct {
	out []Tuple
	by  *node
}

// keptOut is the output a node of a finished plan computed, with the trail
// it left (nil when it is in no twin pair) and whom it was evaluated for.
type keptOut struct {
	n     *node
	out   []Tuple
	trail *trail
	owner any
}

// hit is one index-join match: an outer tuple and the base row it probed.
// from is the position of the finished output tuple in the twin's output
// when the match was taken from the twin, else -1.
type hit struct {
	row         reldb.Row
	outer, from int32
}

// trail is what a node of a twin pair leaves behind besides its memoized
// output. The node over B_old leaves from: per output tuple, its position in
// the twin's output, or -1 for a tuple computed here — which is how its
// consumer knows what to take from the consumer's own twin. The twinned node
// leaves how its output came from its input: an index join its hits, a
// Select where each input tuple went, a GroupBy the group of each input
// tuple. (A Project's output position is its input position.)
type trail struct {
	from []int32

	outer, pi int       // index join: the driving input and the probed equi-pair
	hits      []hit     // index join: hits[i] made output tuple i
	at        []int32   // Select: output position of input tuple i, or -1; GroupBy: its group
	groups    []groupAt // GroupBy: by group
}

// groupAt is one group of a twinned GroupBy: its output position and size.
type groupAt struct{ out, size int32 }

// twinOf evaluates the twin of a unary operator over B_old whose input
// took tuples from the twin's input. It returns where the input's tuples
// are in the twin's input (see trail.from), the twin's output and what the
// twin left; inFrom is nil when there is no twin or nothing to take from it.
func (ctx *EvalContext) twinOf(n *node) (inFrom []int32, out []Tuple, left trail, err error) {
	if n.twin == nil {
		return nil, nil, trail{}, nil
	}
	if inFrom = ctx.trail(n.in[0]).from; inFrom == nil {
		return nil, nil, trail{}, nil
	}
	out, err = ctx.run(n.twin)
	return inFrom, out, ctx.trail(n.twin), err
}

// trail returns what n left in the running evaluation: nothing when n is in
// no twin pair or left nothing.
func (ctx *EvalContext) trail(n *node) trail {
	if n.slot == 0 || int(n.slot) > len(ctx.trails) {
		return trail{}
	}
	return ctx.trails[n.slot-1]
}

// leave records n's trail; n is in a twin pair.
func (ctx *EvalContext) leave(n *node, t trail) {
	if len(ctx.trails) == 0 {
		ctx.trails = slices.Grow(ctx.trails, ctx.plan.pairs)[:ctx.plan.pairs]
	}
	ctx.trails[n.slot-1] = t
}

// tableCol keys the per-table caches without per-probe string formatting:
// the ∇-row cache by a column, the transition-table cache by a source.
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
// identical operators are memoized within this context, for as long as it
// evaluates roots of the same plan and is not Reset. The returned tuples
// are shared with the memo and, for pass-through operators, with the
// database's rows: callers must not modify them.
func (ctx *EvalContext) Eval(o *Operator) ([]Tuple, error) { return ctx.EvalFor(nil, o) }

// EvalFor is Eval on behalf of owner, a comparable value naming whom the
// plan is evaluated for: it may take what plans evaluated for other owners
// since the last Reset computed (see EvalContext), and what it computes
// serves them in turn. Eval is EvalFor with one owner for every plan, so
// it shares nothing across plans.
func (ctx *EvalContext) EvalFor(owner any, o *Operator) ([]Tuple, error) {
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
	if n.plan != ctx.plan {
		if ctx.plan != nil && owner != ctx.owner {
			ctx.keep()
		}
		ctx.forget()
		ctx.plan = n.plan
		ctx.memo = slices.Grow(ctx.memo[:0], n.plan.nodes)[:n.plan.nodes]
	}
	ctx.owner = owner
	res, err := ctx.run(n)
	ctx.endPass()
	return res, err
}

// Reset forgets every operator output the context holds, kept ones
// included, and zeroes Stats, so the next Eval reads the database as it is
// then. What depends only on Deltas stays, and so do the buffers.
func (ctx *EvalContext) Reset() {
	ctx.forget()
	clear(ctx.kept)
	ctx.Stats = EvalStats{}
}

// Rebind starts the context on the next statement, whose transition tables
// are deltas. It forgets every operator output, memoized or kept, the trails
// and what it built from the last statement's transition tables, then clears
// the memory the outputs were cut from and cuts the next statement's from it
// (see EvalContext): the tuples EvalFor returned before are invalid from
// here on. The indexes it built keep their slices for the next statement's;
// memory past maxKeptBytes, indexes first, is dropped.
func (ctx *EvalContext) Rebind(deltas map[string]*Transition) {
	ctx.Reset()
	ctx.Deltas = deltas
	ctx.plan, ctx.owner = nil, nil
	clear(ctx.trans)
	budget := maxKeptBytes
	ctx.recycle(&budget)
	ctx.mem.reset(&budget)
	ctx.hits, ctx.matches = scratch(ctx.hits), scratch(ctx.matches)
}

// recycle empties the last statement's indexes into spare and keeps, of them
// and the pruning scratch, what fits in budget, charging it.
func (ctx *EvalContext) recycle(budget *int) {
	for _, ix := range ctx.oldExcl { // which index is kept where reaches no output
		ctx.spare = append(ctx.spare, ix)
	}
	for _, ix := range ctx.delIdx {
		ctx.spare = append(ctx.spare, ix)
	}
	clear(ctx.oldExcl)
	clear(ctx.delIdx)
	kept := ctx.spare[:0]
	for _, ix := range ctx.spare {
		ix.release()
		if b := ix.bytes(); b <= *budget {
			*budget -= b
			kept = append(kept, ix)
		}
	}
	clear(ctx.spare[len(kept):])
	ctx.spare = kept
	ctx.prune.release()
	if b := ctx.prune.bytes() + cap(ctx.used); b <= *budget {
		*budget -= b
	} else {
		ctx.prune, ctx.used = keyIndex{}, nil
	}
}

// KeptBytes reports the memory the context keeps across Rebind for its
// outputs and its transition tables' indexes: at most maxKeptBytes right
// after one.
func (ctx *EvalContext) KeptBytes() int {
	n := ctx.mem.bytes() + ctx.prune.bytes() + cap(ctx.used)
	for _, ix := range ctx.spare {
		n += ix.bytes()
	}
	return n
}

// forget clears the memo and the trails, keeping their capacity. Entries past
// the memo's length are already clear: every forget clears the whole length.
func (ctx *EvalContext) forget() {
	clear(ctx.memo)
	clear(ctx.trails)
	ctx.trails = ctx.trails[:0]
}

// keep files what the finished plan computed under the nodes' keys for the
// plans of other owners. What it took is kept already: nothing is kept while
// a plan runs. An output already kept gives way only to one whose live
// columns cover its own. The kept trails point into the plan's trail slots,
// so the next plan leaves its trails in new ones.
func (ctx *EvalContext) keep() {
	if ctx.kept == nil {
		ctx.kept = map[nodeKey]keptOut{}
	}
	pointed := false // some kept output points into ctx.trails
	for _, m := range ctx.memo {
		n := m.by
		if n == nil {
			continue
		}
		if k, ok := ctx.kept[n.key]; ok && (k.n == n || !covers(n.live, k.n.live)) {
			continue
		}
		k := keptOut{n: n, out: m.out, owner: ctx.owner}
		if n.slot != 0 && int(n.slot) <= len(ctx.trails) {
			k.trail, pointed = &ctx.trails[n.slot-1], true
		}
		ctx.kept[n.key] = k
	}
	if pointed {
		ctx.trails = nil
	}
}

// take gives n the output a finished plan of another owner computed under
// n's key, if it holds every column n's consumers read: an output whose
// Project left a column NULL that n's consumers read cannot stand in. It
// restores the trail that output's node left into n's slot when that trail
// means the same for n: a twinned node's trail describes its output in
// terms of its inputs, the same for both; a node over B_old's points into
// its twin's output, which is the same only when both twins have one key.
// A twinned node whose consumers need a trail the kept node never left
// evaluates instead. Without a trail n's consumers over B_old evaluate
// without their twins.
func (ctx *EvalContext) take(n *node) bool {
	k, ok := ctx.kept[n.key]
	if !ok || k.owner == ctx.owner || !covers(k.n.live, n.live) || n.twinned && !k.n.twinned {
		return false
	}
	ctx.memo[n.id] = memoEntry{out: k.out, by: k.n}
	if k.trail != nil && (n.twinned || n.twin != nil && k.n.twin != nil && k.n.twin.key == n.twin.key) {
		ctx.leave(n, *k.trail)
	}
	ctx.Stats.OpsShared++
	return true
}

func (ctx *EvalContext) run(n *node) ([]Tuple, error) {
	if m := ctx.memo[n.id]; m.by != nil {
		return m.out, nil
	}
	if len(ctx.kept) > 0 && ctx.take(n) {
		return ctx.memo[n.id].out, nil
	}
	res, err := ctx.exec(n)
	if err != nil {
		return nil, err
	}
	ctx.memo[n.id] = memoEntry{out: res, by: n}
	ctx.Stats.OpsEvaluated++
	ctx.Stats.RowsProduced += len(res)
	return res, nil
}

// passEnv returns the environment of one operator pass: blank, so the chunks
// the last pass constructed from are dropped (they live on in the nodes cut
// from them, not here) and no tuple of it is still referenced. A pass takes
// it only once everything it reads — its inputs, its twin — has been
// evaluated: those are passes too, and there is one environment.
func (ctx *EvalContext) passEnv() *Env {
	ctx.endPass()
	return &ctx.env
}

// endPass blanks the environment, counting the nodes the pass that had it
// built.
func (ctx *EvalContext) endPass() {
	ctx.Stats.NodesBuilt += ctx.env.nodes.Built()
	ctx.env = Env{}
}

// holds evaluates a predicate: NULL counts as false.
func holds(pred Expr, env *Env) (bool, error) {
	v, err := pred.Eval(env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.EffectiveBool(), nil
}

// slab carves an operator pass's fresh output tuples out of one piece of
// cells, cut for exactly the tuples the pass makes, so an output costs one
// piece instead of one per tuple. Fresh tuples are all-NULL.
type slab struct {
	w   int
	buf []xdm.Value
}

// slab cuts the cells of n tuples of width w.
func (ctx *EvalContext) slab(w, n int) slab { return slab{w, ctx.mem.cells.take(w * n)} }

func (s *slab) next() Tuple {
	t := s.buf[:s.w:s.w]
	s.buf = s.buf[s.w:]
	return t
}

func (ctx *EvalContext) exec(n *node) ([]Tuple, error) {
	switch n.op.Type {
	case OpTable:
		return ctx.evalTable(n.op)
	case OpConstants:
		return n.op.Consts.rows, nil
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
	switch o.Type {
	case OpSelect:
		// A twinned Select leaves where each input tuple went; a Select over
		// B_old takes the twin's verdict on every tuple the twin saw too.
		var at, from []int32
		inFrom, _, twin, err := ctx.twinOf(n)
		if err != nil {
			return nil, err
		}
		if n.twinned {
			at = ctx.mem.ints.take(len(in))
		} else if inFrom != nil {
			from = ctx.mem.ints.take(len(in))[:0]
		}
		out := ctx.mem.tuples.room(len(in))
		env := ctx.passEnv()
		for i, t := range in {
			ok, src := false, int32(-1)
			if from != nil && inFrom[i] >= 0 {
				src = twin.at[inFrom[i]]
				ok = src >= 0
			} else {
				env.In[0] = t
				if ok, err = holds(o.Pred, env); err != nil {
					return nil, err
				}
			}
			if at != nil {
				at[i] = -1
				if ok {
					at[i] = int32(len(out))
				}
			}
			if !ok {
				continue
			}
			out = append(out, t)
			if from != nil {
				from = append(from, src)
			}
			if src >= 0 {
				ctx.Stats.RowsReused++
			}
		}
		if at != nil || from != nil {
			ctx.leave(n, trail{at: at, from: from})
		}
		return ctx.mem.tuples.cut(out), nil
	case OpProject:
		out := ctx.mem.tuples.take(len(in))
		fresh := len(in)
		// A tuple the input took from the twin's input projects to what the
		// twin projected it to.
		from, tout, _, err := ctx.twinOf(n)
		if err != nil {
			return nil, err
		}
		if from != nil {
			for i, k := range from {
				if k >= 0 {
					out[i] = tout[k]
					fresh--
				}
			}
			ctx.Stats.RowsReused += len(in) - fresh
			ctx.leave(n, trail{from: from})
		}
		// The pass's fresh tuples come from one slab, and the nodes their
		// constructors build from blocks cut for exactly the tuples ahead.
		sl, env := ctx.slab(len(o.Projs), fresh), ctx.passEnv()
		block := 0 // tuples the block was cut for and has not begun
		for i, t := range in {
			if out[i] != nil {
				continue
			}
			if n.ctor != nil {
				if block == 0 {
					block = n.ctor.cut(&env.nodes, in[i:], out[i:])
				}
				block--
			}
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
		return ctx.evalGroupBy(n, in)
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

func (ctx *EvalContext) rowsToTuples(rows []reldb.Row) []Tuple {
	out := ctx.mem.tuples.take(len(rows))
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
		out := ctx.mem.tuples.take(ctx.DB.RowCount(o.Table))[:0]
		err := ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			out = append(out, Tuple(r))
			return true
		})
		return out, err
	case SrcDelta, SrcNabla, SrcDeltaPruned, SrcNablaPruned:
		return ctx.transitionTuples(o, tr), nil
	case SrcOld:
		return ctx.evalOldTable(o, tr)
	default:
		return nil, fmt.Errorf("xqgm: unknown table source %d", o.Source)
	}
}

// transitionTuples returns (building once per context) one of a table's
// transition tables as tuples.
func (ctx *EvalContext) transitionTuples(o *Operator, tr *Transition) []Tuple {
	key := tableCol{o.Table, int(o.Source)}
	if ts, ok := ctx.trans[key]; ok {
		return ts
	}
	var ts []Tuple
	switch o.Source {
	case SrcDelta:
		ts = ctx.rowsToTuples(tr.Inserted)
	case SrcNabla:
		ts = ctx.rowsToTuples(tr.Deleted)
	case SrcDeltaPruned:
		ts = ctx.pruned(tr.Inserted, tr.Deleted, o.TablePK)
	default:
		ts = ctx.pruned(tr.Deleted, tr.Inserted, o.TablePK)
	}
	if ctx.trans == nil {
		ctx.trans = map[tableCol][]Tuple{}
	}
	ctx.trans[key] = ts
	return ts
}

// pruned implements the pruned transition tables of Definition 8: the
// tuples of a less the rows that also appear, as full rows, in b. It is a
// bag difference: one row of b cancels one equal row of a. b is indexed by
// the table's primary key pk (by the whole row for a keyless table), and a
// row found under a's key cancels it only if all its columns are equal.
func (ctx *EvalContext) pruned(a, b []reldb.Row, pk []int) []Tuple {
	if len(a) == 0 || len(b) == 0 {
		return ctx.rowsToTuples(a)
	}
	ix := ctx.bag(b, pk)
	out := ctx.mem.tuples.take(len(a))[:0]
	for _, r := range a {
		if !ctx.takeEqual(ix, r, pk) {
			out = append(out, Tuple(r))
		}
	}
	ix.release()
	return out
}

// bag indexes rows by cols in the pruning scratch, none of them taken yet.
func (ctx *EvalContext) bag(rows []reldb.Row, cols []int) *keyIndex {
	ctx.prune.build(rows, cols)
	ctx.used = resized(ctx.used, len(rows))
	return &ctx.prune
}

// takeEqual takes the first row of bag ix equal to t in every column and
// not taken yet, looking it up by t's columns cols; it reports whether
// there was one.
func (ctx *EvalContext) takeEqual(ix *keyIndex, t []xdm.Value, cols []int) bool {
	for p := ix.first(t, cols); p != 0; p = ix.next[p-1] {
		if !ctx.used[p-1] && sameKey(ix.rows[p-1], nil, t, nil) {
			ctx.used[p-1] = true
			return true
		}
	}
	return false
}

// evalOldTable reconstructs B_old = (B EXCEPT ALL ΔB) UNION ALL ∇B (paper
// §4.2). B_old is a bag expression: with a primary key, Δ keys are unique in
// the table so a key set is exact; without one the table may hold duplicate
// rows and Δ must be subtracted with multiplicity, not as a set.
func (ctx *EvalContext) evalOldTable(o *Operator, tr *Transition) ([]Tuple, error) {
	out := ctx.mem.tuples.room(ctx.DB.RowCount(o.Table) + len(tr.Deleted))
	var err error
	if len(o.TablePK) > 0 {
		exclude := ctx.oldExclFor(o.Table, o.TablePK)
		err = ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			if !exclude.has(r, o.TablePK) {
				out = append(out, Tuple(r))
			}
			return true
		})
	} else {
		remain := ctx.bag(tr.Inserted, nil)
		err = ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			if !ctx.takeEqual(remain, r, nil) {
				out = append(out, Tuple(r))
			}
			return true
		})
		remain.release()
	}
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Deleted {
		out = append(out, Tuple(r))
	}
	return ctx.mem.tuples.cut(out), nil
}

// --- joins ---

func (ctx *EvalContext) evalJoin(n *node) ([]Tuple, error) {
	// Index-nested-loop path: inner joins one of whose sides is a
	// base-table access path with an index on a join column. This is what
	// keeps per-update trigger cost independent of data size (paper §6.4 /
	// Figure 23): only affected keys are probed.
	for outer := range n.join.probes {
		if res, ok, err := ctx.indexJoin(n, outer); ok || err != nil {
			return res, err
		}
	}
	lt, err := ctx.run(n.in[0])
	if err != nil {
		return nil, err
	}
	// Every output row of these kinds carries a left row: with none, the
	// right input is not needed. It is not evaluated either — nothing reads
	// it unless another consumer does, and then that consumer runs it. This
	// is what a key filter in front of an affected-node graph relies on: the
	// graph costs nothing for a firing whose keys the filter rejected.
	if len(lt) == 0 && n.op.JoinKind != JoinRightAnti {
		ctx.Stats.JoinsSkipped++
		return nil, nil
	}
	if t := n.join.consts; t != nil {
		return ctx.hashJoin(n, lt, t.rows, t.ix)
	}
	rt, err := ctx.run(n.in[1])
	if err != nil {
		return nil, err
	}
	return ctx.hashJoin(n, lt, rt, nil)
}

// indexJoin attempts an index-nested-loop join driven by input `outer`,
// probing the other input's base table. Each probed row is checked and
// written straight into the output tuple; the inner operator's own output
// is never materialized.
func (ctx *EvalContext) indexJoin(n *node, outer int) ([]Tuple, bool, error) {
	pr := n.join.probes[outer]
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
	ocols, lw := n.join.lcols, int(n.in[0].width)
	ooff, ioff := 0, lw // where the outer and the inner part land in the output
	if outer == 1 {
		ocols, ooff, ioff = n.join.rcols, lw, 0
	}
	// A twin that probed the same way has the matches of every driving tuple
	// this join shares with it: B_old's are those less the rows the statement
	// wrote (primary key in Δ) plus the ones it removed (∇), which is
	// lookupPath's rule applied to the twin's hits instead of to the index.
	twinHits, tout, outerFrom, err := ctx.twinProbe(n, outer, pi)
	if err != nil {
		return nil, false, err
	}
	var excl *keyIndex
	if twinHits != nil && bp.src == SrcOld {
		excl = ctx.oldExclFor(bp.table, bp.pk)
	}
	// First collect the (outer tuple, base row) matches, then build the
	// output in one exactly-sized array.
	hits := ctx.hits[:0]
	env := ctx.passEnv()
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
		hits = append(hits, hit{r, int32(oi), -1})
		return true
	}
	reused := 0
	for oi = range ot {
		v := ot[oi][ocols[pi]]
		if v.IsNull() {
			continue
		}
		k := -1 // the driving tuple's position in the twin's driving input
		if outerFrom != nil {
			k = int(outerFrom[oi])
		} else if twinHits != nil {
			k = oi // the twin drives from the same node
		}
		if k < 0 {
			if err := ctx.lookupPath(bp, pr.baseCols[pi], v, emit); err != nil {
				return nil, false, err
			}
		} else {
			i, _ := slices.BinarySearchFunc(twinHits, int32(k), func(h hit, k int32) int { return int(h.outer - k) })
			for ; i < len(twinHits) && int(twinHits[i].outer) == k; i++ {
				if excl.has(twinHits[i].row, bp.pk) {
					continue
				}
				hits = append(hits, hit{twinHits[i].row, int32(oi), int32(i)})
				reused++
			}
			if bp.src == SrcOld {
				ctx.lookupDeleted(bp, pr.baseCols[pi], v, emit)
			}
		}
		if rowErr != nil {
			return nil, false, rowErr
		}
	}
	out := ctx.mem.tuples.take(len(hits))
	sl := ctx.slab(int(n.width), len(hits)-reused)
	var from []int32
	if reused > 0 {
		from = ctx.mem.ints.take(len(hits))
		ctx.Stats.RowsReused += reused
	}
	for i, h := range hits {
		if from != nil {
			from[i] = h.from
		}
		if h.from >= 0 {
			out[i] = tout[h.from] // the same driving tuple and the same row: the twin's tuple
			continue
		}
		jt := sl.next()
		copy(jt[ooff:], ot[h.outer])
		for j, bc := range bp.colMap {
			jt[ioff+j] = h.row[bc]
		}
		out[i] = jt
	}
	ctx.hits = hits
	if n.twinned && n.op.JoinPred == nil { // hits[i] made out[i]: keep them for the B_old side
		ctx.leave(n, trail{outer: outer, pi: pi, hits: append(ctx.mem.hits.take(len(hits))[:0], hits...)})
	} else if from != nil {
		ctx.leave(n, trail{from: from})
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

// twinProbe evaluates the twin of an index join that shares driving tuples
// with it, and returns the hits the twin left when it probed the same way
// (nil otherwise), the twin's output, and where this join's driving tuples
// are in the twin's driving input — nil when both drive from the same node.
func (ctx *EvalContext) twinProbe(n *node, outer, pi int) (hits []hit, out []Tuple, outerFrom []int32, err error) {
	t := n.twin
	if t == nil {
		return nil, nil, nil, nil
	}
	if t.in[outer] != n.in[outer] {
		if outerFrom = ctx.trail(n.in[outer]).from; outerFrom == nil {
			return nil, nil, nil, nil
		}
	}
	if out, err = ctx.run(t); err != nil {
		return nil, nil, nil, err
	}
	if tr := ctx.trail(t); tr.hits != nil && tr.outer == outer && tr.pi == pi {
		return tr.hits, out, outerFrom, nil
	}
	return nil, nil, nil, nil
}

// oldExclFor returns (building once per context) Δ of a table indexed by its
// primary key pk, which masks already-updated rows out of B_old; nil when Δ
// is empty.
func (ctx *EvalContext) oldExclFor(table string, pk []int) *keyIndex {
	tr := ctx.transition(table)
	if len(tr.Inserted) == 0 {
		return nil
	}
	if ix, ok := ctx.oldExcl[table]; ok {
		return ix
	}
	ix := ctx.index()
	ix.build(tr.Inserted, pk)
	if ctx.oldExcl == nil {
		ctx.oldExcl = map[string]*keyIndex{}
	}
	ctx.oldExcl[table] = ix
	return ix
}

// has reports whether a row of ix has the key of t's columns cols; a nil ix
// has none.
func (ix *keyIndex) has(t []xdm.Value, cols []int) bool { return ix != nil && ix.first(t, cols) != 0 }

// deletedByCol returns (building once per context) the table's ∇ rows
// indexed by the given column.
func (ctx *EvalContext) deletedByCol(table string, col int) *keyIndex {
	key := tableCol{table, col}
	if ix, ok := ctx.delIdx[key]; ok {
		return ix
	}
	ix := ctx.index()
	ix.col[0] = col
	ix.build(ctx.transition(table).Deleted, ix.col[:])
	if ctx.delIdx == nil {
		ctx.delIdx = map[tableCol]*keyIndex{}
	}
	ctx.delIdx[key] = ix
	return ix
}

// index returns an index to build: a spare one, else a new one.
func (ctx *EvalContext) index() *keyIndex {
	if n := len(ctx.spare); n > 0 {
		ix := ctx.spare[n-1]
		ctx.spare[n-1], ctx.spare = nil, ctx.spare[:n-1]
		return ix
	}
	return &keyIndex{}
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
		if excl.has(r, bp.pk) {
			return true
		}
		stop = !fn(r)
		return !stop
	})
	if err != nil || stop {
		return err
	}
	ctx.lookupDeleted(bp, col, v, fn)
	return nil
}

// lookupDeleted is the ∇B half of a B_old probe.
func (ctx *EvalContext) lookupDeleted(bp *basePath, col int, v xdm.Value, fn func(reldb.Row) bool) {
	if len(ctx.transition(bp.table).Deleted) == 0 {
		return
	}
	ix := ctx.deletedByCol(bp.table, col)
	probe := [1]xdm.Value{v}
	for p := ix.first(probe[:], nil); p != 0; p = ix.next[p-1] {
		if !fn(ix.rows[p-1]) {
			return
		}
	}
}

// hashJoin joins on the equi-pairs by hashing one side; with no equi-pairs
// the one-bucket index makes it the nested loop. Right-anti joins build on
// the left and probe with the right; every other kind builds on the right.
// ix, when not nil, is the build side's index, kept by its table.
func (ctx *EvalContext) hashJoin(n *node, lt, rt []Tuple, ix *hashIndex) ([]Tuple, error) {
	o := n.op
	if len(o.On) > 0 {
		ctx.Stats.HashJoins++
	} else {
		ctx.Stats.NestedLoopJoin++
	}
	anti := o.JoinKind == JoinRightAnti
	j := n.join
	probe, build, pcols, bcols := lt, rt, j.lcols, j.rcols
	if anti {
		probe, build, pcols, bcols = rt, lt, j.rcols, j.lcols
	}
	var local hashIndex
	if ix == nil {
		local.index(build, bcols)
		ix = &local
	}
	emits := o.JoinKind == JoinInner || o.JoinKind == JoinLeftOuter // else a match only disqualifies
	// First collect the output's (probe, build) pairs — about one per probe
	// tuple, most joins — then build it in one exactly-sized array.
	ms := slices.Grow(ctx.matches[:0], len(probe))
	env := ctx.passEnv()
	for pi, p := range probe {
		matched := false
		if !hasNull(p, pcols) {
			k := xdm.ColsKey(p, pcols)
			for i := ix.first(k); i != 0 && (emits || !matched); i = ix.after(i, k) {
				if o.JoinPred != nil {
					l, r := p, build[i-1]
					if anti {
						l, r = r, l
					}
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
					ms = append(ms, match{int32(pi), i - 1})
				}
			}
		}
		if !matched && o.JoinKind != JoinInner {
			// Outer and anti joins keep the unmatched row; the absent side is NULL.
			ms = append(ms, match{int32(pi), -1})
		}
	}
	ctx.matches = ms
	lw := int(n.in[0].width)
	out := ctx.mem.tuples.take(len(ms))
	sl := ctx.slab(int(n.width), len(ms))
	for i, m := range ms {
		jt := sl.next()
		switch p := probe[m.p]; {
		case m.b < 0 && anti:
			copy(jt[lw:], p)
		case m.b < 0:
			copy(jt, p)
		default: // only inner and left outer joins emit matches
			copy(jt, p)
			copy(jt[lw:], build[m.b])
		}
		out[i] = jt
	}
	return out, nil
}

// --- group by ---

func (ctx *EvalContext) evalGroupBy(n *node, in []Tuple) ([]Tuple, error) {
	o := n.op
	inFrom, tout, twin, err := ctx.twinOf(n)
	if err != nil {
		return nil, err
	}
	// Number the groups in first-seen order, then counting-sort the rows so
	// each group is one run of rows (in input order).
	sc := &ctx.groupBy
	if sc.byKey == nil {
		sc.byKey = map[xdm.CompKey]int32{}
	}
	clear(sc.byKey) // a pass that failed left its keys
	// end holds per group its row count, then the end of its run.
	byKey, keys, end := sc.byKey, sc.keys[:0], sc.end[:0]
	// A group whose rows are exactly the rows of one group of the twin is
	// that group: same rows, same aggregates. twinGroup[g] is the twin's
	// group all of g's rows so far came from, or -1.
	twinGroup := sc.twin[:0]
	gid := ctx.mem.ints.take(len(in))
	env := ctx.passEnv()
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
		if inFrom != nil {
			tg := int32(-1)
			if inFrom[i] >= 0 {
				tg = twin.at[inFrom[i]]
			}
			if !ok {
				twinGroup = append(twinGroup, tg)
			} else if twinGroup[g] != tg {
				twinGroup[g] = -1
			}
		}
	}
	// Global aggregate over empty input yields one row (SQL semantics);
	// grouped aggregate over empty input yields none.
	if len(o.GroupCols) == 0 && len(keys) == 0 {
		keys, end = append(keys, xdm.CompKey{}), append(end, 0)
	}
	// A group is taken from the twin only if it has as many rows as the
	// twin's group: the rest get fresh tuples.
	fresh, reusing := len(keys), inFrom != nil && len(in) > 0
	if reusing {
		for g, tg := range twinGroup {
			if tg >= 0 && twin.groups[tg].size == end[g] {
				fresh--
			} else {
				twinGroup[g] = -1
			}
		}
	}
	order := slices.Grow(sc.ord[:0], len(keys))[:len(keys)]
	for g := range order {
		order[g] = int32(g)
		if g > 0 {
			end[g] += end[g-1]
		}
	}
	rows := ctx.mem.tuples.take(len(in))
	for i := len(in) - 1; i >= 0; i-- {
		end[gid[i]]--
		rows[end[gid[i]]] = in[i]
	}
	// end[g] is now the start of group g's run; its end is the next start.
	slices.SortFunc(order, func(a, b int32) int { return keys[a].Compare(keys[b]) }) // deterministic group order
	out := ctx.mem.tuples.take(len(order))[:0]
	sl := ctx.slab(int(n.width), fresh)
	var groups []groupAt // a twinned GroupBy leaves gid and these
	if n.twinned {
		groups = ctx.mem.groups.take(len(keys))
	}
	var from []int32
	if reusing {
		from = ctx.mem.ints.take(len(order))[:0]
	}
	for _, g := range order {
		stop := len(in)
		if int(g)+1 < len(end) {
			stop = int(end[g+1])
		}
		grp := rows[end[g]:stop]
		if groups != nil {
			groups[g] = groupAt{out: int32(len(out)), size: int32(len(grp))}
		}
		if from != nil {
			if tg := twinGroup[g]; tg >= 0 {
				from = append(from, twin.groups[tg].out)
				out = append(out, tout[twin.groups[tg].out])
				ctx.Stats.RowsReused++
				continue
			}
			from = append(from, -1)
		}
		t := sl.next()
		for i, c := range o.GroupCols {
			t[i] = grp[0][c]
		}
		// Deterministic intra-group order: sort by the input's canonical
		// key when available, else by full tuple. This fixes the document
		// order of aggXMLFrag sequences (XQuery for-loop order over
		// relational data is implementation-defined; we pick key order).
		sortTuples(grp, o.Inputs[0].Key)
		for i, a := range o.Aggs {
			if !n.live[len(o.GroupCols)+i] {
				continue // nobody reads it: stays NULL
			}
			v, err := evalAgg(a, grp, env)
			if err != nil {
				return nil, err
			}
			t[len(o.GroupCols)+i] = v
		}
		out = append(out, t)
	}
	if len(keys) > maxRoom {
		*sc = groupScratch{} // clearing a map costs its size: start small again
	} else {
		sc.keys, sc.end, sc.twin, sc.ord = keys[:0], end[:0], twinGroup[:0], order[:0]
	}
	if groups != nil {
		ctx.leave(n, trail{at: gid, groups: groups})
	} else if from != nil {
		ctx.leave(n, trail{from: from})
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
	// Every input runs before the output's room is taken: an input's own
	// evaluation takes memory too.
	total := 0
	for _, in := range n.in {
		ts, err := ctx.run(in)
		if err != nil {
			return nil, err
		}
		total += len(ts)
	}
	var seen map[xdm.CompKey]struct{}
	if n.op.Distinct {
		seen = map[xdm.CompKey]struct{}{}
	}
	out := ctx.mem.tuples.room(total)
	for _, in := range n.in {
		for _, t := range ctx.memo[in.id].out {
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
	return ctx.mem.tuples.cut(out), nil
}
