package xqgm

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"

	"quark/internal/xdm"
)

// node is one operator of a prepared plan. Prepare builds the nodes once;
// evaluation only reads them, so one plan serves any number of concurrent
// EvalContexts. Parameters that need no preparation (predicates,
// projections, aggregates) are read from op, which is never written.
type node struct {
	op *Operator
	in []*node
	// key names the output across plans (see nodeKey): an EvalContext that
	// evaluates several plans files what one computed under it for the next.
	key nodeKey
	// id is the position in creation order — inputs before consumers — and
	// dense within one plan: an EvalContext's memo is indexed by it. width
	// is the number of output columns.
	id, width int32
	// live marks the output columns some consumer reads. A Project leaves
	// the others Null instead of evaluating them.
	live []bool
	// twin, on a node that reads B_old, is the node that computes the same
	// thing over the post-update tables: equal signature once SrcOld is read
	// as SrcBase and inputs are named by their twins. Evaluation derives this
	// node's output from the twin's (see EvalContext). twinned marks the
	// other end: a node some node names as its twin. slot is 1 + the place of
	// either end among the plan's paired nodes, where an EvalContext keeps
	// its trail; 0 on a node in no pair.
	twin    *node
	twinned bool
	slot    int32
	plan    *planShape // on a root: the plan it belongs to

	join *joinPlan  // Join: see joinPlan
	ctor *footprint // Project: what its constructors take per tuple; nil if they build nothing
}

// joinPlan is what Prepare freezes for a Join. It hangs off the node
// rather than sitting in it: most nodes are not joins, and every node of
// an installed plan stays allocated as long as the plan.
type joinPlan struct {
	lcols, rcols []int     // equi-join columns of the left / right input
	probes       [2]*probe // index access path into in[1] (outer in[0]), into in[0] (outer in[1])
	// consts is the right input's table when it keeps an index on rcols: the
	// join probes that index instead of hashing the rows it reads.
	consts *ConstTable
}

// planShape is all a prepared root keeps of its planning — the planner's
// maps die with it: the plan's identity, which tells an EvalContext that
// evaluates several plans when its memo and trails belong to another, and
// their sizes. One is shared by the roots planned together.
type planShape struct {
	nodes int // node ids run from 0 to nodes-1
	pairs int // trail slots run from 1 to pairs
}

// probe is an index-nested-loop access path into one join input.
type probe struct {
	bp *basePath
	// baseCols[i] is the base-table column behind equi-pair i's inner
	// column; evaluation probes the first one that has an index.
	baseCols []int
}

// Prepare freezes, for the graphs rooted at roots, everything evaluation
// needs that depends only on the plan: join access paths and key column
// lists, which columns are read at all, what each Project's element
// constructors take per tuple (see footprint), and which subgraphs are
// structurally identical and so evaluated once. It also pairs every
// operator over B_old with its twin over the current tables — an
// affected-node graph holds the view twice, as G and as G_old, and G_old
// differs from G only where the statement wrote — so that
// evaluation builds the OLD side as an edit of the NEW side (see
// EvalContext). Prepare belongs where a graph is installed (a trigger
// group's plans, a registered view); the logical graph — what RenderSQL
// prints — is left untouched apart from remembering its plan, and must not
// change afterwards. Roots prepared together share the nodes of shared
// subgraphs. Graphs never passed to Prepare are planned per EvalContext on
// first Eval.
func Prepare(roots ...*Operator) error {
	ns, err := plan(roots)
	if err != nil {
		return err
	}
	for i, o := range roots {
		o.prep = ns[i]
	}
	return nil
}

// planner builds plan nodes bottom-up, merging structurally identical
// operators (the affected-node graphs restrict the same view side to the
// same keys twice: Joined_20/Projected_21 and Joined_22/Projected_23).
type planner struct {
	nodes []*node
	byOp  map[*Operator]*node
	byKey map[nodeKey]*node
	held  []*sigEntry // the interned signatures of nodes, one reference each
	sig   []byte      // the signature being rendered
}

// plan builds the nodes of the graphs rooted at roots. It holds interned
// while it does, and the plan holds one reference to the signature of each
// of its nodes until it is unreachable.
func plan(roots []*Operator) ([]*node, error) {
	p := &planner{byOp: map[*Operator]*node{}, byKey: map[nodeKey]*node{}, sig: make([]byte, 0, 128)}
	interned.Lock()
	defer interned.Unlock()
	out := make([]*node, len(roots))
	for i, o := range roots {
		n, err := p.build(o)
		if err != nil {
			releaseLocked(p.held)
			return nil, err
		}
		out[i] = n
	}
	// Every node's live columns are cut from one array.
	width := 0
	for _, n := range p.nodes {
		width += int(n.width)
	}
	live := make([]bool, width)
	for _, n := range p.nodes {
		n.live, live = live[:n.width:n.width], live[n.width:]
	}
	for _, n := range out {
		for c := range n.live {
			n.live[c] = true
		}
	}
	// Consumers were created after their inputs, so walking backwards sees
	// every consumer's demand before the node it falls on.
	for i := len(p.nodes) - 1; i >= 0; i-- {
		p.nodes[i].demand()
	}
	footprints(p.nodes)
	shape := &planShape{nodes: len(p.nodes), pairs: p.pairTwins()}
	for _, n := range out {
		n.plan = shape
	}
	runtime.AddCleanup(shape, release, slices.Clone(p.held)) // the plan keeps the list: no spare capacity
	return out, nil
}

// pairTwins gives every node that reads B_old its twin and both ends of the
// pair their trail slots, and returns how many nodes it paired. Inputs come
// before consumers in p.nodes, so a node's inputs are paired before it is.
func (p *planner) pairTwins() (pairs int) {
	old := make([]bool, len(p.nodes)) // by id: the subtree reads SrcOld
	for _, n := range p.nodes {
		old[n.id] = n.op.Type == OpTable && n.op.Source == SrcOld
		for _, in := range n.in {
			old[n.id] = old[n.id] || old[in.id]
		}
		if !old[n.id] {
			continue
		}
		// An input without a twin leaves the signature unchanged: the lookup
		// finds n itself.
		p.sig = n.signature(p.sig[:0], true)
		t := p.byKey[lookupLocked(p.sig).keyOrZero()]
		if t == nil || t == n {
			continue
		}
		// A Project or GroupBy leaves the columns nobody reads NULL, and the
		// twin's tuples stand in for this node's: the twin must compute
		// every column this node's consumers read.
		if (n.op.Type == OpProject || n.op.Type == OpGroupBy) && !covers(t.live, n.live) {
			continue
		}
		if t.slot == 0 {
			pairs++
			t.slot = int32(pairs)
		}
		n.twin, t.twinned = t, true
		pairs++
		n.slot = int32(pairs)
	}
	return pairs
}

func covers(a, b []bool) bool {
	for i, l := range b {
		if l && !a[i] {
			return false
		}
	}
	return true
}

func (p *planner) build(o *Operator) (*node, error) {
	if n, ok := p.byOp[o]; ok {
		return n, nil
	}
	n := &node{op: o, width: int32(o.OutWidth())}
	for _, in := range o.Inputs {
		c, err := p.build(in)
		if err != nil {
			return nil, err
		}
		n.in = append(n.in, c)
	}
	n.id = int32(len(p.nodes))
	p.sig = n.signature(p.sig[:0], false)
	e := lookupLocked(p.sig)
	if dup := p.byKey[e.keyOrZero()]; dup != nil {
		p.byOp[o] = dup
		return dup, nil
	}
	if o.Type == OpJoin {
		j := &joinPlan{}
		for _, eq := range o.On {
			j.lcols = append(j.lcols, eq.L)
			j.rcols = append(j.rcols, eq.R)
		}
		if o.JoinKind == JoinInner && len(o.On) > 0 {
			j.probes[0] = newProbe(o.Inputs[1], j.rcols)
			j.probes[1] = newProbe(o.Inputs[0], j.lcols)
		}
		if r := o.Inputs[1]; r.Type == OpConstants && r.Consts.ix != nil && o.JoinKind != JoinRightAnti {
			if !slices.Equal(r.Consts.cols, j.rcols) {
				return nil, fmt.Errorf("xqgm: constants table indexed on columns %v, joined on %v", r.Consts.cols, j.rcols)
			}
			j.consts = r.Consts
		}
		n.join = j
	}
	e = internLocked(e, p.sig)
	p.held = append(p.held, e)
	n.key = e.key
	p.nodes = append(p.nodes, n)
	p.byOp[o], p.byKey[n.key] = n, n
	return n, nil
}

// signature appends to b everything evaluation depends on, so two nodes
// with equal signatures produce equal output. Inputs are named by key: they
// are already merged, in this plan and in every other. It runs once per
// operator of every installed plan, so it appends to the planner's buffer
// rather than going through fmt. With asTwin it renders the signature n's
// twin has: B_old read as the current table, and inputs named by their
// twins.
func (n *node) signature(b []byte, asTwin bool) []byte {
	o := n.op
	ints := func(sep byte, vs ...int) {
		for _, v := range vs {
			b = strconv.AppendInt(append(b, sep), int64(v), 10)
		}
	}
	expr := func(e Expr) {
		b = append(b, ' ')
		if e != nil {
			b = append(b, e.String()...)
		}
		b = append(b, ';')
	}
	ints(' ', int(o.Type))
	for _, in := range n.in {
		if asTwin && in.twin != nil {
			in = in.twin
		}
		b = strconv.AppendUint(append(b, '#'), uint64(in.key), 10)
	}
	switch o.Type {
	case OpTable:
		src := o.Source
		if asTwin && src == SrcOld {
			src = SrcBase
		}
		b = append(append(b, ' '), o.Table...)
		ints(' ', int(src))
	case OpConstants:
		b = fmt.Appendf(b, " %p", o) // identical to itself only
	case OpSelect:
		expr(o.Pred)
	case OpProject:
		for _, p := range o.Projs {
			expr(p.E)
		}
	case OpJoin:
		ints(' ', int(o.JoinKind))
		for _, eq := range o.On {
			ints(' ', eq.L, eq.R)
		}
		expr(o.JoinPred)
	case OpGroupBy:
		ints(' ', o.GroupCols...)
		ints('k', o.Inputs[0].Key...)
		for _, a := range o.Aggs {
			ints(' ', int(a.Func))
			expr(a.Arg)
		}
	case OpUnion:
		b = strconv.AppendBool(append(b, ' '), o.Distinct)
	case OpOrderBy:
		for _, oc := range o.OrderCols {
			ints(' ', oc.Col)
			b = strconv.AppendBool(b, oc.Desc)
		}
	case OpUnnest:
		ints(' ', o.UnnestCol)
	}
	return b
}

// demand marks, on n's inputs, the columns n reads to produce its own live
// columns.
func (n *node) demand() {
	o := n.op
	pass := func(k int) { // input k's columns are n's columns
		for c, l := range n.live {
			if l {
				n.in[k].live[c] = true
			}
		}
	}
	all := func(k int) {
		for c := range n.in[k].live {
			n.in[k].live[c] = true
		}
	}
	// reads marks the columns e references; an expression type this
	// package does not know could read anything.
	reads := func(e Expr) {
		RewriteExpr(e, func(x Expr) Expr {
			switch x := x.(type) {
			case *ColRef:
				if x.Input < len(n.in) && x.Col >= 0 && x.Col < int(n.in[x.Input].width) {
					n.in[x.Input].live[x.Col] = true
				}
			case *Lit, *Cmp, *Arith, *Logic, *Call, *IsNullExpr, *ElemCtor, *SeqCtor, *PathStep:
			default:
				for k := range n.in {
					all(k)
				}
			}
			return x
		})
	}
	switch o.Type {
	case OpSelect:
		pass(0)
		reads(o.Pred)
	case OpOrderBy:
		pass(0)
		for _, oc := range o.OrderCols {
			n.in[0].live[oc.Col] = true
		}
	case OpUnnest:
		pass(0)
		n.in[0].live[o.UnnestCol] = true
	case OpProject:
		for i, p := range o.Projs {
			if n.live[i] {
				reads(p.E)
			}
		}
	case OpJoin:
		// An anti join's absent side comes out NULL whatever it computed, so
		// it is read only to decide what matches.
		lw := int(n.in[0].width)
		for c, l := range n.live {
			if l && c < lw && o.JoinKind != JoinRightAnti {
				n.in[0].live[c] = true
			} else if l && c >= lw && o.JoinKind != JoinLeftAnti {
				n.in[1].live[c-lw] = true
			}
		}
		for _, eq := range o.On {
			n.in[0].live[eq.L] = true
			n.in[1].live[eq.R] = true
		}
		reads(o.JoinPred)
	case OpGroupBy:
		for _, c := range o.GroupCols {
			n.in[0].live[c] = true
		}
		for i, a := range o.Aggs {
			if n.live[len(o.GroupCols)+i] {
				reads(a.Arg)
			}
		}
		// The input's canonical key orders a group's rows.
		if o.Inputs[0].Key == nil {
			all(0) // rows order by the whole tuple
		}
		for _, c := range o.Inputs[0].Key {
			n.in[0].live[c] = true
		}
	case OpUnion:
		for k := range n.in {
			if o.Distinct {
				all(k) // duplicates are judged on every column
			} else {
				pass(k)
			}
		}
	}
}

// basePath describes an input subtree that reads a single base table,
// optionally through a Select and/or a column-preserving Project, so joins
// against it can use reldb's hash indexes.
type basePath struct {
	table    string
	src      TableSource
	residual Expr     // predicate over the base row, or nil
	colMap   []int    // output column -> base column
	cols     []string // base column names
	pk       []int    // base primary-key column indexes (for SrcOld probing)
}

func newProbe(inner *Operator, innerCols []int) *probe {
	bp := matchBasePath(inner)
	if bp == nil {
		return nil
	}
	pr := &probe{bp: bp}
	for _, c := range innerCols {
		pr.baseCols = append(pr.baseCols, bp.colMap[c])
	}
	return pr
}

func matchBasePath(o *Operator) *basePath {
	switch o.Type {
	case OpTable:
		// Base tables probe the index directly; B_old is probed as the
		// current table minus Δ-keyed rows plus matching ∇ rows.
		if o.Source != SrcBase && o.Source != SrcOld {
			return nil
		}
		// The indexed B_old probe masks Δ rows with a key set; without a
		// primary key the subtraction needs bag multiplicity, so fall back
		// to evalOldTable's full scan.
		if o.Source == SrcOld && len(o.TablePK) == 0 {
			return nil
		}
		if len(o.Names) != o.Width {
			return nil
		}
		cm := make([]int, o.Width)
		for i := range cm {
			cm[i] = i
		}
		return &basePath{table: o.Table, src: o.Source, colMap: cm, cols: o.Names, pk: o.TablePK}
	case OpSelect:
		bp := matchBasePath(o.Inputs[0])
		if bp == nil {
			return nil
		}
		// The select's predicate references its input's columns; remap to
		// base columns.
		m := map[int]int{}
		for out, base := range bp.colMap {
			m[out] = base
		}
		bp2 := *bp
		bp2.residual = And(bp.residual, SubstituteCols(o.Pred, m))
		return &bp2
	case OpProject:
		bp := matchBasePath(o.Inputs[0])
		if bp == nil {
			return nil
		}
		cm := make([]int, len(o.Projs))
		for i, p := range o.Projs {
			cr, ok := p.E.(*ColRef)
			if !ok || cr.Input != 0 {
				return nil
			}
			cm[i] = bp.colMap[cr.Col]
		}
		bp2 := *bp
		bp2.colMap = cm
		return &bp2
	default:
		return nil
	}
}

// tinyBuild is the most tuples a hash join's build side may have to be
// searched linearly instead of hashed: a key filter leaves most of an
// affected-node graph's joins one affected key to build on, and a map for it
// costs more than the search.
const tinyBuild = 8

// hashIndex buckets tuples by key columns without a slice per bucket: head
// maps a key to 1 + the index of its first tuple and next chains on from
// there, in input order. Tuples with a NULL key column are left out (NULL
// never equi-joins). With no key columns every tuple is in the one bucket,
// which makes a join without equi-pairs the same loop as a hash join.
//
// A build of at most tinyBuild tuples has no map (head is nil): keys holds
// the n tuples' keys and a lookup compares them in input order — the same
// equality, the same tuples, the same order. A tuple with a NULL key column
// keeps the zero key, a NULL's: no key looked up equals it, since a probe
// with a NULL key column looks nothing up.
type hashIndex struct {
	head map[xdm.CompKey]int32
	next []int32

	keys [tinyBuild]xdm.CompKey
	n    int32
}

// index builds h over rows: searched linearly when they are few enough,
// else hashed.
func (h *hashIndex) index(rows []Tuple, cols []int) {
	if len(rows) > tinyBuild {
		h.hash(rows, cols)
		return
	}
	h.n = int32(len(rows))
	for i, r := range rows {
		if !hasNull(r, cols) {
			h.keys[i] = xdm.ColsKey(r, cols)
		}
	}
}

func (h *hashIndex) hash(rows []Tuple, cols []int) {
	h.head, h.next = make(map[xdm.CompKey]int32, len(rows)), make([]int32, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		if hasNull(rows[i], cols) {
			continue
		}
		k := xdm.ColsKey(rows[i], cols)
		h.next[i] = h.head[k]
		h.head[k] = int32(i + 1)
	}
}

// first returns 1 + the index of the first tuple whose key is k, or 0.
func (h *hashIndex) first(k xdm.CompKey) int32 {
	if h.head == nil {
		return h.search(k, 0)
	}
	return h.head[k]
}

// after continues a lookup of k past i, the last value first or after
// returned for it: 1 + the index of the next tuple whose key is k, or 0.
func (h *hashIndex) after(i int32, k xdm.CompKey) int32 {
	if h.head == nil {
		return h.search(k, i)
	}
	return h.next[i-1]
}

// search is a tiny build's lookup: 1 + the index of the first tuple from
// index i on whose key is k, or 0.
func (h *hashIndex) search(k xdm.CompKey, i int32) int32 {
	for ; i < h.n; i++ {
		if h.keys[i] == k {
			return i + 1
		}
	}
	return 0
}

func hasNull(t Tuple, cols []int) bool {
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}
