package core

import (
	"sort"
	"time"

	"quark/internal/grouping"
	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// compileMaterialized compiles the strawman pipeline the paper argues
// against in Section 1: the trigger path's result is fully materialized
// and, after every statement on any underlying table, recomputed and
// diffed by canonical key. It is expensive by design (cost grows with
// view size, not with the number of affected nodes), which is what makes
// it the correctness oracle for the translated-trigger pipeline: goldens
// are generated from it and mixed-mode runs compare against it. The
// planner never picks it; a group runs it only when SetGroupModes says so.
//
// Like compileGroup's translated modes, nothing installs here: the
// initial snapshot evaluates eagerly (the caller holds the table locks),
// so a group switching modes pays the snapshot cost during prepare and
// an aborted switch simply discards it.
func (e *Engine) compileMaterialized(g *group) (*groupBuild, error) {
	vw := g.nav.Op.OutWidth()
	// The members are snapshotted here: the body runs without the metadata
	// lock. Each evaluates the group's condition and arguments with its own
	// constants as input 1.
	members := g.members.Members()
	cc := &condCompiler{nav: g.nav, layout: identityLayout(g.nav)}
	cond, args, err := cc.template(g.cond, g.args)
	if err != nil {
		return nil, err
	}
	cond = grouping.ReadConsts(cond, 0)

	// Initial snapshot.
	snapshot, err := e.materializeSnapshot(g)
	if err != nil {
		return nil, err
	}
	state := &matState{rows: snapshot}

	body := func(ctx *reldb.FireContext) error {
		// Under a batched commit the body fires once per (table, event) of
		// the transaction, but the first firing already sees (and diffs
		// against) the final state; later firings of the same commit are
		// no-ops by construction, so skip the snapshot work outright.
		if ctx.Batch != nil {
			if state.lastBatch == ctx.Batch.Seq {
				return nil
			}
			state.lastBatch = ctx.Batch.Seq
		}
		e.fires.Add(1)
		g.stats.fires.Add(1)
		start := time.Now()                                             //quark:clock per-group eval time: evalNS is reported in GroupStats, never delivered bytes
		defer func() { g.stats.evalNS.Add(int64(time.Since(start))) }() //quark:clock per-group eval time: evalNS is reported in GroupStats, never delivered bytes
		after, err := e.materializeSnapshot(g)
		if err != nil {
			return err
		}
		if ctx.Stage != nil {
			// Prepare-phase staging: the snapshot publishes only when the
			// transaction commits. A rolled-back prepare must leave the
			// diff baseline untouched, or the next firing would diff
			// against state that never existed.
			ctx.Stage(func() error { state.rows = after; return nil })
		} else {
			defer func() { state.rows = after }()
		}
		if ctx.Batch != nil && ctx.Batch.Silent {
			// Silent data movement (shard rebalancing): the snapshot must
			// refresh — this shard gained or lost whole view elements — but
			// the change is placement, not data, so nothing is diffed and
			// nothing delivered.
			return nil
		}
		before := state.rows

		type pair struct {
			key      string
			old, new xqgm.Tuple
		}
		var fired []pair
		switch g.event {
		case reldb.EvUpdate:
			for k, nt := range after {
				if ot, ok := before[k]; ok && !tuplesEqual(ot, nt) {
					fired = append(fired, pair{k, ot, nt})
				}
			}
		case reldb.EvInsert:
			for k, nt := range after {
				if _, ok := before[k]; !ok {
					fired = append(fired, pair{k, nullTuple(vw), nt})
				}
			}
		case reldb.EvDelete:
			for k, ot := range before {
				if _, ok := after[k]; !ok {
					fired = append(fired, pair{k, ot, nullTuple(vw)})
				}
			}
		}
		// The diff maps iterate in random order; delivery order is part of
		// the conformance contract, so sort the Δ/∇ pairs by view key
		// before firing members.
		sort.Slice(fired, func(i, j int) bool { return fired[i].key < fired[j].key })
		g.stats.deltaRows.Add(int64(len(fired)))
		wave := e.firingWave(ctx)
		for _, p := range fired {
			row := make(xqgm.Tuple, 0, 2*vw)
			row = append(row, p.new...)
			row = append(row, p.old...)
			env := &xqgm.Env{}
			for _, m := range members {
				env.In = [2][]xdm.Value{row, m.Consts}
				if cond != nil {
					v, err := cond.Eval(env)
					if err != nil {
						return err
					}
					if v.IsNull() || !v.EffectiveBool() {
						continue
					}
				}
				avals := make([]xdm.Value, len(args))
				for i, ae := range args {
					v, err := ae.Eval(env)
					if err != nil {
						return err
					}
					avals[i] = v
				}
				g.stats.activations.Add(1)
				inv := Invocation{
					Trigger: m.Name,
					Event:   g.event,
					Old:     p.old[g.nav.NodeCol].AsNode(),
					New:     p.new[g.nav.NodeCol].AsNode(),
					Args:    avals,
				}
				if err := e.stageOrDeliver(ctx, wave, g.actionFn, inv); err != nil {
					return err
				}
			}
		}
		if ctx.Stage == nil && wave != nil {
			return wave.run()
		}
		return nil
	}

	// Fire on every event of every table the view reads.
	b := &groupBuild{mode: ModeMaterialized}
	for _, table := range xqgm.Tables(g.nav.Op) {
		for _, ev := range []reldb.Event{reldb.EvInsert, reldb.EvUpdate, reldb.EvDelete} {
			b.installs = append(b.installs, pendingTrigger{
				table: table, event: ev, prefix: "matTrig", body: body,
			})
		}
	}
	return b, nil
}

type matState struct {
	rows      map[string]xqgm.Tuple
	lastBatch int64
}

// materializeSnapshot evaluates the path graph and keys rows by canonical
// key.
func (e *Engine) materializeSnapshot(g *group) (map[string]xqgm.Tuple, error) {
	ectx := xqgm.NewEvalContext(e.db, nil)
	rows, err := ectx.Eval(g.nav.Op)
	if err != nil {
		return nil, err
	}
	out := make(map[string]xqgm.Tuple, len(rows))
	for _, r := range rows {
		ks := make([]xdm.Value, len(g.nav.KeyCols))
		for i, kc := range g.nav.KeyCols {
			ks[i] = r[kc]
		}
		out[xdm.TupleKey(ks)] = r
	}
	return out, nil
}

func tuplesEqual(a, b xqgm.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !xdm.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func nullTuple(w int) xqgm.Tuple {
	t := make(xqgm.Tuple, w)
	for i := range t {
		t[i] = xdm.Null
	}
	return t
}
