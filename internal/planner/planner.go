// Package planner is the cost-based mode selector: it scores every
// trigger group from the engine's live per-group statistics
// (core.GroupStat) and picks which of the paper's three translations
// (UNGROUPED, GROUPED, GROUPED-AGG, Section 6) the group should run.
// MATERIALIZED — the strawman of Section 1 — is the engine's correctness
// oracle, not a candidate: the planner never picks it and leaves a group
// somebody explicitly put there alone.
//
// The cost model is deliberately coarse. One firing of a group costs one
// plan evaluation per member under UNGROUPED, and one shared evaluation
// plus a small constants-table join overhead per member under GROUPED;
// GROUPED-AGG discounts GROUPED by a fixed factor. The group's observed
// latency in the mode it is running scales the whole model once the group
// has fired enough to trust (Config.MinFires), so the current mode is
// costed at exactly what it measured and the others relative to it.
// Groups are decided independently, so decisions are deterministic in
// their input — which is what lets every shard of a fleet apply the same
// Decide output.
package planner

import (
	"strconv"

	"quark/internal/core"
	"quark/internal/obs"
)

// Cost-model constants (nanoseconds). Only their ratios matter: a warm
// group's observation sets the scale.
const (
	// defaultEvalNS is the assumed cost of one translated plan evaluation
	// (affected-node graph over the delta, with index support).
	defaultEvalNS = 25_000
	// memberJoinNS is the per-member overhead a grouped plan pays for the
	// constants-table join and per-member residual work.
	memberJoinNS = 200
	// aggFactor discounts GROUPED-AGG relative to GROUPED: deriving old
	// aggregates from new values and transition tables (§5.2) avoids the
	// OLD-side re-navigation.
	aggFactor = 0.8
)

// Config parameterizes the planner.
type Config struct {
	// MinFires is the observation threshold: a group that has fired fewer
	// times keeps its current mode (no thrash while cold). Defaults to 8.
	MinFires int64
	// Hysteresis is the relative cost improvement a switch must promise
	// (0.2 = 20% cheaper) before the planner moves a group off its
	// current mode. Defaults to 0.2; negative disables switching entirely.
	Hysteresis float64
}

// Planner implements core.ModePolicy.
type Planner struct {
	cfg Config
	reg *obs.Registry
}

// New builds a planner with cfg's zero values defaulted.
func New(cfg Config) *Planner {
	if cfg.MinFires == 0 {
		cfg.MinFires = 8
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 0.2
	}
	return &Planner{cfg: cfg}
}

// AttachObs makes the planner emit a "planner.decide" event per Decide
// call (group counts) on top of the mode.switch/replan events the engines
// emit themselves.
func (p *Planner) AttachObs(reg *obs.Registry) { p.reg = reg }

// modeCost estimates one firing's cost (ns) for a group running a
// translated mode, in each translated mode (indexed by core.Mode). For a
// warm group the entry of its current mode is its observed EvalNS/Fires.
// (Fires ticks once per plan evaluation, so an UNGROUPED group ticks it
// once per member per statement; reading that as the group's cost per
// firing under-costs the grouped modes for a group observed in UNGROUPED —
// an error in the direction the model takes anyway.)
func (p *Planner) modeCost(gs core.GroupStat) [3]float64 {
	members := max(float64(gs.Members), 1)
	var c [3]float64
	c[core.ModeUngrouped] = members * defaultEvalNS
	c[core.ModeGrouped] = defaultEvalNS + members*memberJoinNS
	c[core.ModeGroupedAgg] = aggFactor * c[core.ModeGrouped]
	if gs.Fires >= p.cfg.MinFires && gs.EvalNS > 0 {
		// Invert the current mode's own formula: scale the model so that
		// it costs the mode the group ran at what the group measured.
		k := float64(gs.EvalNS) / float64(gs.Fires) / c[gs.Mode]
		c[core.ModeUngrouped] *= k
		c[core.ModeGrouped] *= k
		c[core.ModeGroupedAgg] = aggFactor * c[core.ModeGrouped]
	}
	return c
}

// Decide implements core.ModePolicy: per group, the cheapest translated
// mode wins when it clears the hysteresis margin against the current
// mode's cost. Cold groups (< MinFires) and MATERIALIZED groups keep their
// mode.
func (p *Planner) Decide(stats []core.GroupStat) map[string]core.Mode {
	if p.cfg.Hysteresis < 0 {
		return nil
	}
	target := map[string]core.Mode{}
	warm := 0
	for _, gs := range stats {
		if gs.Fires < p.cfg.MinFires || gs.Mode == core.ModeMaterialized {
			continue
		}
		warm++
		costs := p.modeCost(gs)
		best := core.ModeGrouped
		for _, m := range []core.Mode{core.ModeGroupedAgg, core.ModeUngrouped} {
			if costs[m] < costs[best] {
				best = m
			}
		}
		if best != gs.Mode && costs[best] <= costs[gs.Mode]*(1-p.cfg.Hysteresis) {
			target[gs.Sig] = best
		}
	}
	if p.reg != nil {
		p.reg.Emit("planner.decide", map[string]string{
			"groups":   strconv.Itoa(len(stats)),
			"warm":     strconv.Itoa(warm),
			"switches": strconv.Itoa(len(target)),
		})
	}
	return target
}
