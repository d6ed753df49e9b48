package workload

import (
	"fmt"
	"math/rand"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/shard"
	"quark/internal/xdm"
)

// StreamParams configures GenStream. Fractions are probabilities per op;
// whatever probability is left over becomes a plain single-leaf update.
type StreamParams struct {
	// Ops is the number of operations to generate.
	Ops int
	// CrossShardFrac is the probability an op is a multi-root batch
	// transaction. Its roots are drawn without replacement, so with
	// several shards the batch usually spans shards.
	CrossShardFrac float64
	// BatchRoots is how many distinct roots a batch op touches (min 2).
	BatchRoots int
	// BatchSize is how many leaf sub-ops a batch op contains (min
	// BatchRoots; sub-ops round-robin over the chosen roots).
	BatchSize int
	// MoveFrac is the probability a single op re-parents a live leaf to a
	// different root — on a sharded engine, a row migration.
	MoveFrac float64
	// InsertFrac / DeleteFrac are the probabilities a single op inserts a
	// fresh leaf under a root / deletes a live leaf.
	InsertFrac, DeleteFrac float64
	// RebalanceFrac is the probability an op is a shard rebalance moving a
	// few routing groups to rotated shards. The single-engine oracle
	// ignores rebalance ops entirely — data movement must be
	// observationally invisible, which is exactly what the differential
	// fuzzer proves. Zero keeps the rng draw sequence of pre-elastic
	// streams intact, so existing pinned seeds reproduce byte-identically.
	RebalanceFrac float64
}

// DefaultStream returns fuzzer-oriented stream parameters: mostly
// updates, a healthy minority of batches, moves, inserts, and deletes.
func DefaultStream(ops int) StreamParams {
	return StreamParams{
		Ops:            ops,
		CrossShardFrac: 0.25,
		BatchRoots:     3,
		BatchSize:      6,
		MoveFrac:       0.10,
		InsertFrac:     0.10,
		DeleteFrac:     0.08,
	}
}

// OpKind enumerates leaf operations.
type OpKind uint8

// Leaf operation kinds.
const (
	OpUpdate OpKind = iota // set a live leaf's payload
	OpInsert               // insert a fresh leaf under Parent
	OpDelete               // delete a live leaf
	OpMove                 // re-parent a live leaf to Parent
)

// LeafOp is one primitive mutation of the leaf table.
type LeafOp struct {
	Kind    OpKind
	Leaf    int64
	Parent  int64   // insert/move target root (depth-2: the top id)
	Payload float64 // update/insert payload
}

// RebalanceOp asks a sharded engine to move the routing groups of the
// named roots to the shard Offset slots past their current one (modulo
// the live shard count, resolved at apply time). Engines without shards
// — the differential oracle — treat it as a no-op.
type RebalanceOp struct {
	Roots  []int64
	Offset int
}

// Op is one unit of the stream: a single statement (len(Batch) == 1),
// one transaction over several leaves/roots, or a rebalance.
type Op struct {
	Batch     []LeafOp
	Rebalance *RebalanceOp
}

// GenStream generates a deterministic, replayable update stream for the
// Depth == 2 workload: the same (p, sp, seed) always yields the same ops
// (see the package doc's key-space contract). The generator tracks
// liveness so deletes and moves always target existing leaves, inserts
// allocate ids that never collide, and payloads are stream-unique values
// >= 1000 so no generated update is a no-op.
func GenStream(p Params, sp StreamParams, seed int64) ([]Op, error) {
	if p.Depth != 2 {
		return nil, fmt.Errorf("workload: GenStream supports Depth == 2, got %d", p.Depth)
	}
	if sp.Ops <= 0 {
		return nil, fmt.Errorf("workload: StreamParams.Ops must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	numTop := p.NumTop()
	// Live leaves per root, mirroring genRows' initial layout.
	live := make([][]int64, numTop)
	for r := 0; r < numTop; r++ {
		for j := 0; j < p.Fanout; j++ {
			live[r] = append(live[r], int64(r*p.Fanout+j))
		}
	}
	nextID := int64(numTop * p.Fanout)
	payload := 1000.0
	nextPayload := func() float64 {
		payload++
		return payload
	}
	pickRoot := func() int {
		return rng.Intn(numTop)
	}
	pickLive := func(r int) (int64, bool) {
		if len(live[r]) == 0 {
			return 0, false
		}
		return live[r][rng.Intn(len(live[r]))], true
	}
	removeLive := func(r int, leaf int64) {
		for i, l := range live[r] {
			if l == leaf {
				live[r] = append(live[r][:i], live[r][i+1:]...)
				return
			}
		}
	}

	genOne := func() LeafOp {
		x := rng.Float64()
		r := pickRoot()
		switch {
		case x < sp.MoveFrac:
			if leaf, ok := pickLive(r); ok && numTop > 1 {
				to := (r + 1 + rng.Intn(numTop-1)) % numTop // always a different root
				removeLive(r, leaf)
				live[to] = append(live[to], leaf)
				return LeafOp{Kind: OpMove, Leaf: leaf, Parent: int64(to)}
			}
		case x < sp.MoveFrac+sp.InsertFrac:
			leaf := nextID
			nextID++
			live[r] = append(live[r], leaf)
			return LeafOp{Kind: OpInsert, Leaf: leaf, Parent: int64(r), Payload: nextPayload()}
		case x < sp.MoveFrac+sp.InsertFrac+sp.DeleteFrac:
			if leaf, ok := pickLive(r); ok {
				removeLive(r, leaf)
				return LeafOp{Kind: OpDelete, Leaf: leaf}
			}
		}
		// Fallthrough (and the empty-root fallback): a plain update.
		if leaf, ok := pickLive(r); ok {
			return LeafOp{Kind: OpUpdate, Leaf: leaf, Payload: nextPayload()}
		}
		// Root emptied by deletes: repopulate it so the stream stays busy.
		leaf := nextID
		nextID++
		live[r] = append(live[r], leaf)
		return LeafOp{Kind: OpInsert, Leaf: leaf, Parent: int64(r), Payload: nextPayload()}
	}

	var ops []Op
	for i := 0; i < sp.Ops; i++ {
		// The extra draw only happens when rebalances are requested, so a
		// RebalanceFrac of zero replays legacy streams unchanged.
		if sp.RebalanceFrac > 0 && rng.Float64() < sp.RebalanceFrac {
			k := 1 + rng.Intn(3)
			if k > numTop {
				k = numTop
			}
			perm := rng.Perm(numTop)[:k]
			roots := make([]int64, k)
			for j, r := range perm {
				roots[j] = int64(r)
			}
			ops = append(ops, Op{Rebalance: &RebalanceOp{Roots: roots, Offset: 1 + rng.Intn(7)}})
			continue
		}
		if rng.Float64() < sp.CrossShardFrac && numTop > 1 {
			nRoots := sp.BatchRoots
			if nRoots < 2 {
				nRoots = 2
			}
			if nRoots > numTop {
				nRoots = numTop
			}
			roots := rng.Perm(numTop)[:nRoots]
			size := sp.BatchSize
			if size < nRoots {
				size = nRoots
			}
			var batch []LeafOp
			for j := 0; j < size; j++ {
				r := roots[j%nRoots]
				if leaf, ok := pickLive(r); ok {
					batch = append(batch, LeafOp{Kind: OpUpdate, Leaf: leaf, Payload: nextPayload()})
				} else {
					leaf := nextID
					nextID++
					live[r] = append(live[r], leaf)
					batch = append(batch, LeafOp{Kind: OpInsert, Leaf: leaf, Parent: int64(r), Payload: nextPayload()})
				}
			}
			ops = append(ops, Op{Batch: batch})
			continue
		}
		ops = append(ops, Op{Batch: []LeafOp{genOne()}})
	}
	return ops, nil
}

// ApplyOp replays one stream op against an engine: a single statement for
// len(Batch) == 1, one transaction otherwise. Identical streams applied
// to the single and sharded engines must produce identical invocation
// streams — that is the fuzzer's claim.
func ApplyOp[T reldb.Writer](e core.Surface[T], p Params, op Op) error {
	if op.Rebalance != nil {
		if se, ok := any(e).(*shard.Engine); ok {
			return rebalance(se, p.TableName(0), op.Rebalance)
		}
		return nil // the oracle: data movement is observationally invisible
	}
	leafTable := p.TableName(p.Depth - 1)
	apply := func(w reldb.Writer, lo LeafOp) error {
		switch lo.Kind {
		case OpUpdate:
			_, err := w.UpdateByPK(leafTable, []xdm.Value{xdm.Int(lo.Leaf)}, func(r reldb.Row) reldb.Row {
				r[len(r)-1] = xdm.Float(lo.Payload)
				return r
			})
			return err
		case OpInsert:
			return w.Insert(leafTable, reldb.Row{xdm.Int(lo.Leaf), xdm.Int(lo.Parent), xdm.Float(lo.Payload)})
		case OpDelete:
			_, err := w.DeleteByPK(leafTable, xdm.Int(lo.Leaf))
			return err
		case OpMove:
			_, err := w.UpdateByPK(leafTable, []xdm.Value{xdm.Int(lo.Leaf)}, func(r reldb.Row) reldb.Row {
				r[1] = xdm.Int(lo.Parent)
				return r
			})
			return err
		default:
			return fmt.Errorf("workload: unknown op kind %d", lo.Kind)
		}
	}
	if len(op.Batch) == 1 {
		return apply(e, op.Batch[0])
	}
	return e.Batch(func(tx T) error {
		for _, lo := range op.Batch {
			if err := apply(tx, lo); err != nil {
				return err
			}
		}
		return nil
	})
}

// rebalance moves each of op's roots' groups to the shard op.Offset slots
// past its current one, all in one plan.
func rebalance(e *shard.Engine, table string, op *RebalanceOp) error {
	n := e.NumShards()
	if n < 2 {
		return nil
	}
	plan := shard.Plan{}
	for _, root := range op.Roots {
		key := shard.GroupKey(xdm.Int(root))
		from := e.GroupOwner(table, xdm.Int(root))
		plan.Moves = append(plan.Moves, shard.GroupMove{Table: table, Key: key, To: (from + op.Offset) % n})
	}
	_, err := e.Rebalance(plan)
	return err
}
