package core

import (
	"slices"
	"sync"

	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// evalState is an evaluation context the engine lends to one statement or
// one commit's prepare phase at a time, with the transition tables it was
// rebound to and the database's write sequence when its outputs were
// computed. It keeps its output memory, maps and deltas map from one
// borrower to the next (see xqgm.EvalContext.Rebind).
type evalState struct {
	xqgm.EvalContext
	seq    uint64
	pool   *evalPool
	deltas map[string]*xqgm.Transition
	trs    []xqgm.Transition // what deltas points at
	invs   []Invocation      // a firing's activations, until it stages them
	// A firing's rows in activation order, with the keys and order they
	// were sorted by (see sortRows); and the slab its activations'
	// arguments are cut from, while it cuts them.
	sorted   []xqgm.Tuple
	sortKeys []rowKey
	sortOrd  []int32
	sortBuf  []byte
	args     []xdm.Value
	// A grouped member's constants and the environment its action's
	// arguments evaluate in, while they do.
	consts []xdm.Value
	env    xqgm.Env
	// The wave a statement-level firing stages on (see stage).
	wave wave
	// seen is a commit's activation dedup set across its plans (see
	// invoke), nil until the first commit this context served.
	seen map[activation]struct{}
}

// maxKeptSeen is the most activations a context's dedup set may have held
// to be cleared for the next commit rather than dropped: clearing a map
// costs its size, and a map never shrinks.
const maxKeptSeen = 1024

// maxIdleEvals is how many returned contexts an engine keeps for the next
// borrowers; a borrower that finds none builds one.
const maxIdleEvals = 4

// evalPool is the engine's free list of evaluation contexts. A borrower
// holds its context until reldb releases it — the statement's bodies or the
// commit's prepare phase are done — so a firing nested in a body, or a
// statement on another goroutine, never finds it here: each borrows another.
type evalPool struct {
	db   *reldb.DB
	idle int // how many returned contexts, and batch states, it keeps: maxIdleEvals
	mu   sync.Mutex
	free []*evalState
	// batches are the batch states of finished commits.
	batches []*batchState
}

// borrow takes a context off the free list, or builds one.
func (p *evalPool) borrow() *evalState {
	p.mu.Lock()
	var es *evalState
	if n := len(p.free); n > 0 {
		es, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if es == nil {
		es = &evalState{EvalContext: xqgm.EvalContext{DB: p.db}, pool: p, deltas: map[string]*xqgm.Transition{}}
	}
	return es
}

// statement borrows a context for a statement on table.
func (p *evalPool) statement(table string, inserted, deleted []reldb.Row) *evalState {
	es := p.borrow()
	es.trs = append(es.trs[:0], xqgm.Transition{Inserted: inserted, Deleted: deleted})
	es.deltas[table] = &es.trs[0]
	es.bind()
	return es
}

// commit borrows a context for a commit's net deltas.
func (p *evalPool) commit(deltas map[string]*reldb.NetDelta) *evalState {
	es := p.borrow()
	// Grown first, so no append below moves what deltas points at.
	es.trs = slices.Grow(es.trs[:0], len(deltas))
	for t, nd := range deltas { //quark:sorted each table's transition tables are filed under its name; trs's order is never read
		es.trs = append(es.trs, xqgm.Transition{Inserted: nd.Inserted, Deleted: nd.Deleted})
		es.deltas[t] = &es.trs[len(es.trs)-1]
	}
	es.bind()
	return es
}

// bind rebinds the context to its deltas, as of the database's write
// sequence now.
func (es *evalState) bind() {
	es.Rebind(es.deltas)
	es.seq = es.DB.WriteSeq()
}

// Release returns the context to the free list once reldb is done with the
// statement it served (see reldb.FireContext.EngineState). It forgets that
// statement's outputs and transition tables first, so an idle context keeps
// no row or node alive.
func (es *evalState) Release() {
	clear(es.deltas)
	clear(es.trs)
	clear(es.sorted)
	es.args = nil
	if len(es.seen) > maxKeptSeen {
		es.seen = nil
	} else {
		clear(es.seen)
	}
	es.Rebind(nil)
	p := es.pool
	p.mu.Lock()
	if len(p.free) < p.idle {
		p.free = append(p.free, es)
	}
	p.mu.Unlock()
}

// batch takes a batch state off the free list, or builds one.
func (p *evalPool) batch() *batchState {
	p.mu.Lock()
	var st *batchState
	if n := len(p.batches); n > 0 {
		st, p.batches[n-1] = p.batches[n-1], nil
		p.batches = p.batches[:n-1]
	}
	p.mu.Unlock()
	if st == nil {
		st = &batchState{pool: p}
		st.run = st.deliver
	}
	return st
}

// deliver runs the commit's wave, then returns the batch state to the free
// list: the wave handed what it delivered on, or keeps only its emptied
// slab, and the commit's context went back when its prepare phase ended.
// A commit rolled back after its prepare phase never runs its wave, and its
// batch state is left to the collector.
func (st *batchState) deliver() error {
	err := st.wave.run()
	st.wave.e = nil
	p := st.pool
	p.mu.Lock()
	if len(p.batches) < p.idle {
		p.batches = append(p.batches, st)
	}
	p.mu.Unlock()
	return err
}
