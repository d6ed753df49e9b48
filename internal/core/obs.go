package core

import (
	"quark/internal/obs"
)

// engineObs holds the engine's resolved metric handles. The pointer held
// in Engine.obsp is nil while observability is disabled, so every
// instrumented path pays one atomic load and a branch — no clock reads,
// no map lookups.
type engineObs struct {
	reg  *obs.Registry
	fire *obs.Histogram // quark_core_fire_ns: one trigger-plan evaluation + activation wave
	sink *obs.Histogram // quark_outbox_sink_ns: one durable delivery, sink or action only (not the ack)
}

// EnableObs attaches a metrics registry to the engine: trigger firing
// latency, sink delivery latency, the relational layer's
// statement/prepare/commit histograms (DB.AttachObs), and commit span
// traces on every BatchHandle. Counter totals
// (quark_core_fires_total, quark_core_actions_total) are exported as
// snapshot-time collectors over the engine's existing atomics. Passing
// nil detaches. Idempotent; not safe to race with in-flight statements —
// call it at setup time, like EnableAsyncDispatch.
func (e *Engine) EnableObs(reg *obs.Registry) {
	if reg == nil {
		e.obsp.Store(nil)
		e.db.AttachObs(nil)
		if d := e.dl.dispatcher.Load(); d != nil {
			d.AttachObs(nil)
		}
		if ob := e.dl.ob.Load(); ob != nil {
			ob.log.AttachObs(nil)
		}
		return
	}
	m := &engineObs{
		reg:  reg,
		fire: reg.Histogram("quark_core_fire_ns", nil),
		sink: reg.Histogram("quark_outbox_sink_ns", nil),
	}
	e.obsp.Store(m)
	e.db.AttachObs(reg)
	// Layers enabled before observability attach now; layers enabled
	// after pick the registry up in their Enable* call.
	if d := e.dl.dispatcher.Load(); d != nil {
		d.AttachObs(reg)
	}
	if ob := e.dl.ob.Load(); ob != nil {
		ob.log.AttachObs(reg)
	}
	reg.Func("quark_core_fires_total", func() int64 { return e.fires.Load() })
	reg.Func("quark_core_actions_total", func() int64 { return e.actsRun.Load() })
	reg.Func("quark_reldb_statements_total", func() int64 { return e.db.Stats().Statements })
	reg.Func("quark_reldb_trigger_fires_total", func() int64 { return e.db.Stats().TriggerFires })
	reg.Func("quark_reldb_full_scans_total", func() int64 { return e.db.Stats().FullScans })
	reg.Func("quark_reldb_index_lookups_total", func() int64 { return e.db.Stats().IndexLookups })
	reg.Func("quark_reldb_rows_read_total", func() int64 { return e.db.Stats().RowsRead })
}

// EngineSnapshot is the unified cross-layer observability snapshot:
// the engine's structural counters (Stats, which already folds in the
// relational layer's scan/lookup counters, the dispatcher's queue
// counters, and the outbox watermarks) plus the attached registry's
// metrics, histograms, and recent events.
type EngineSnapshot struct {
	Stats Stats        `json:"stats"`
	Obs   obs.Snapshot `json:"obs"`
}

// Snapshot captures the engine and its registry in one call. With
// observability disabled the Obs half is empty but Stats is still live.
func (e *Engine) Snapshot() EngineSnapshot {
	var reg *obs.Registry
	if m := e.obsp.Load(); m != nil {
		reg = m.reg
	}
	return EngineSnapshot{Stats: e.Stats(), Obs: reg.Snapshot()}
}
