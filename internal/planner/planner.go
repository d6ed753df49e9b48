// Package planner is the mode selector: it reads every trigger group's live
// statistics (core.GroupStat) and picks which of the two translations
// (UNGROUPED, GROUPED, Section 6) the group should run. MATERIALIZED — the
// strawman of Section 1 — is the engine's correctness oracle, not a
// candidate: the planner never picks it and leaves a group somebody
// explicitly put there alone.
//
// The rule: a warm group (one that has fired at least minFires times)
// running UNGROUPED with two or more members moves to GROUPED. Nothing else
// ever moves. The reason is arithmetic, not measurement: one plan
// evaluation costs about the same in either mode (≈ 25 µs at the paper's
// defaults), UNGROUPED pays one per member and GROUPED pays one plus a
// constants-table join per member (≈ 200 ns). From two members GROUPED is
// cheaper by more than any margin worth holding a switch back for; for one
// member the two are a wash; and GROUPED → UNGROUPED would need
// 25,000·m ≤ 0.8·(25,000 + 200·m), which no m ≥ 1 satisfies. A group's
// measured latency would scale both costs alike, so it is not read.
// Groups are decided independently, so decisions are deterministic in
// their input — which is what lets every shard of a fleet apply the same
// Decide output.
package planner

import (
	"strconv"

	"quark/internal/core"
	"quark/internal/obs"
)

// minFires is the observation threshold: a group that has fired fewer times
// keeps its current mode (no thrash while cold).
const minFires = 8

// Planner implements core.ModePolicy.
type Planner struct {
	reg *obs.Registry
}

// New builds a planner.
func New() *Planner { return &Planner{} }

// AttachObs makes the planner emit a "planner.decide" event per Decide
// call (group counts) on top of the mode.switch/replan events the engines
// emit themselves.
func (p *Planner) AttachObs(reg *obs.Registry) { p.reg = reg }

// Decide implements core.ModePolicy with the rule of the package comment.
func (p *Planner) Decide(stats []core.GroupStat) map[string]core.Mode {
	target := map[string]core.Mode{}
	warm := 0
	for _, gs := range stats {
		if gs.Fires < minFires || gs.Mode == core.ModeMaterialized {
			continue
		}
		warm++
		if gs.Mode == core.ModeUngrouped && gs.Members >= 2 {
			target[gs.Sig] = core.ModeGrouped
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
