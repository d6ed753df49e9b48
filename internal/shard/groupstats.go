package shard

import (
	"sort"

	"quark/internal/core"
)

// GroupSigs returns the fleet's trigger-group signatures (identical on
// every shard; read from shard 0).
func (e *Engine) GroupSigs() []string {
	engines, _ := e.fleet()
	if len(engines) == 0 {
		return nil
	}
	return engines[0].GroupSigs()
}

// GroupStats aggregates per-group statistics across the fleet: counters
// sum (each shard holds a partition of the view), while mode and
// membership come from shard 0 (identical everywhere).
func (e *Engine) GroupStats() []core.GroupStat {
	engines, _ := e.fleet()
	var agg []core.GroupStat
	idx := map[string]int{}
	for _, ce := range engines {
		for _, gs := range ce.GroupStats() {
			i, ok := idx[gs.Sig]
			if !ok {
				idx[gs.Sig] = len(agg)
				agg = append(agg, gs)
				continue
			}
			a := &agg[i]
			a.Fires += gs.Fires
			a.EvalNS += gs.EvalNS
			a.DeltaRows += gs.DeltaRows
			a.Activations += gs.Activations
			a.RowsReused += gs.RowsReused
			a.JoinsSkipped += gs.JoinsSkipped
			a.NodesBuilt += gs.NodesBuilt
			a.OpsShared += gs.OpsShared
			a.OpsEvaluated += gs.OpsEvaluated
			a.RowsProduced += gs.RowsProduced
		}
	}
	sort.Slice(agg, func(i, j int) bool { return agg[i].Sig < agg[j].Sig })
	return agg
}
