package shard

import (
	"quark/internal/obs"
)

// shardObs is the fleet coordinator's resolved metric-handle set, held
// behind an atomic pointer on Engine: nil is the disabled fast path (one
// load + branch on the statement and commit paths, no clock reads).
type shardObs struct {
	reg        *obs.Registry
	routedStmt *obs.Counter   // quark_shard_stmt_routed_total: single-shard fast-path statements
	distStmt   *obs.Counter   // quark_shard_tx_total: distributed transactions (incl. rebalances)
	prepare    *obs.Histogram // quark_shard_prepare_ns: phase 1 (prepare-all) across the fleet
	commit     *obs.Histogram // quark_shard_commit_ns: phase 2 (commit-all) incl. directory fold
	rebalMoves *obs.Counter   // quark_shard_rebalance_moves_total: groups that changed placement
}

// EnableObs attaches one metrics registry to the whole fleet: every
// shard's core engine records into the same named series (histograms
// aggregate fleet-wide; see core.EnableObsShared), the shared dispatcher
// and outbox attach through their own Enable* paths, the 2PC phases and
// routing decisions of the coordinator get their own series, and
// rebalance/grow/shrink transitions emit structured events. Fleet-wide
// counter totals (fires, actions, relational-layer access paths) are
// exported as snapshot-time collectors summing over the live topology.
// Passing nil detaches. Call at setup time, like EnableAsyncDispatch;
// engines appended later by Grow attach automatically.
func (e *Engine) EnableObs(reg *obs.Registry) {
	engines, _ := e.fleet()
	if reg == nil {
		e.om.Store(nil)
		for _, ce := range engines {
			ce.EnableObsShared(nil)
		}
		return
	}
	m := &shardObs{
		reg:        reg,
		routedStmt: reg.Counter("quark_shard_stmt_routed_total"),
		distStmt:   reg.Counter("quark_shard_tx_total"),
		prepare:    reg.Histogram("quark_shard_prepare_ns", nil),
		commit:     reg.Histogram("quark_shard_commit_ns", nil),
		rebalMoves: reg.Counter("quark_shard_rebalance_moves_total"),
	}
	e.om.Store(m)
	for _, ce := range engines {
		ce.EnableObsShared(reg)
	}
	reg.Func("quark_core_fires_total", func() int64 {
		engines, _ := e.fleet()
		var t int64
		for _, ce := range engines {
			t += ce.Stats().Fires
		}
		return t
	})
	reg.Func("quark_core_actions_total", func() int64 {
		engines, _ := e.fleet()
		var t int64
		for _, ce := range engines {
			t += ce.Stats().Actions
		}
		return t
	})
	reg.Func("quark_reldb_statements_total", func() int64 {
		_, dbs := e.fleet()
		var t int64
		for _, db := range dbs {
			t += db.Stats().Statements
		}
		return t
	})
	reg.Func("quark_reldb_full_scans_total", func() int64 {
		_, dbs := e.fleet()
		var t int64
		for _, db := range dbs {
			t += db.Stats().FullScans
		}
		return t
	})
	reg.Func("quark_reldb_index_lookups_total", func() int64 {
		_, dbs := e.fleet()
		var t int64
		for _, db := range dbs {
			t += db.Stats().IndexLookups
		}
		return t
	})
	reg.GaugeFunc("quark_shard_shards", func() int64 { return int64(e.NumShards()) })
	reg.GaugeFunc("quark_shard_dir_entries", func() int64 { return int64(e.router.DirSize()) })
}

// ObsRegistry returns the attached registry (nil when disabled).
func (e *Engine) ObsRegistry() *obs.Registry {
	if m := e.om.Load(); m != nil {
		return m.reg
	}
	return nil
}

// Snapshot is the fleet's unified cross-layer observability snapshot:
// structural counters (Stats, with the per-shard breakdown, the shared
// dispatcher's queue counters, and the outbox watermarks) plus the
// attached registry's metrics, histograms, and recent events.
type Snapshot struct {
	Stats Stats        `json:"stats"`
	Obs   obs.Snapshot `json:"obs"`
}

// Snapshot captures the fleet and its registry in one call. With
// observability disabled the Obs half is empty but Stats is still live.
func (e *Engine) Snapshot() Snapshot {
	var reg *obs.Registry
	if m := e.om.Load(); m != nil {
		reg = m.reg
	}
	return Snapshot{Stats: e.Stats(), Obs: reg.Snapshot()}
}
