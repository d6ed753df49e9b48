package planner

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"quark/internal/core"
)

// group is a GroupStat that has fired `fires` times at nsPerFire each.
func group(sig string, mode core.Mode, members int, fires, nsPerFire int64) core.GroupStat {
	return core.GroupStat{
		Sig: sig, Mode: mode, ModeName: mode.String(), Members: members,
		Fires: fires, EvalNS: fires * nsPerFire,
	}
}

// A hot many-member group running UNGROUPED moves to the cheapest
// translation; a cold group is left alone.
func TestDecideMovesHotGroupOffUngrouped(t *testing.T) {
	p := New(Config{})
	stats := []core.GroupStat{
		group("hot", core.ModeUngrouped, 100, 1000, 150_000),
		group("cold", core.ModeUngrouped, 100, 2, 150_000),
	}
	target := p.Decide(stats)
	if target["hot"] != core.ModeGroupedAgg {
		t.Errorf("hot group -> %v, want GROUPED-AGG (target=%v)", target["hot"], target)
	}
	if _, ok := target["cold"]; ok {
		t.Errorf("cold group got a decision: %v", target["cold"])
	}
}

// The planner chooses among the translated modes only: it never targets
// MATERIALIZED, and a warm group somebody put there gets no target at all.
func TestDecideLeavesMaterializedToTheCaller(t *testing.T) {
	p := New(Config{})
	var stats []core.GroupStat
	for _, mode := range []core.Mode{core.ModeUngrouped, core.ModeGrouped, core.ModeGroupedAgg, core.ModeMaterialized} {
		for _, members := range []int{1, 8, 10_000} {
			for _, ns := range []int64{300, 25_000, 400_000_000} {
				sig := fmt.Sprintf("%s/%d/%d", mode, members, ns)
				stats = append(stats, group(sig, mode, members, 1000, ns))
			}
		}
	}
	target := p.Decide(stats)
	for _, gs := range stats {
		m, ok := target[gs.Sig]
		if ok && m == core.ModeMaterialized {
			t.Errorf("group %q (%d members) targeted MATERIALIZED", gs.Sig, gs.Members)
		}
		if ok && gs.Mode == core.ModeMaterialized {
			t.Errorf("warm MATERIALIZED group %q got target %v", gs.Sig, m)
		}
	}
}

// A group already in its cheapest mode produces no switch (no-op decisions
// are dropped), and hysteresis keeps near-ties in place.
func TestDecideHysteresisAndNoOps(t *testing.T) {
	steady := group("steady", core.ModeGroupedAgg, 3, 1000, 20_000)
	if target := New(Config{}).Decide([]core.GroupStat{steady}); len(target) != 0 {
		t.Errorf("steady group got a switch: %v", target)
	}
	// Near-tie: for a single-member group GROUPED-AGG models at
	// 0.8×(25000+200) = 20160 against UNGROUPED's 25000 — 19% better, which
	// the default 20% margin rejects and a 10% margin accepts.
	tie := group("tie", core.ModeUngrouped, 1, 1000, 25_000)
	if target := New(Config{}).Decide([]core.GroupStat{tie}); len(target) != 0 {
		t.Errorf("near-tie group switched: %v", target)
	}
	if target := New(Config{Hysteresis: 0.1}).Decide([]core.GroupStat{tie}); target["tie"] != core.ModeGroupedAgg {
		t.Errorf("10%% margin: near-tie group -> %v, want GROUPED-AGG", target)
	}
	if target := New(Config{Hysteresis: -1}).Decide([]core.GroupStat{group("hot", core.ModeUngrouped, 100, 1000, 150_000)}); len(target) != 0 {
		t.Errorf("negative hysteresis still switched: %v", target)
	}
}

// Decisions are deterministic in their input regardless of slice order —
// the property that lets every shard apply the same fleet-wide decision.
func TestDecideDeterministic(t *testing.T) {
	p := New(Config{})
	a := []core.GroupStat{
		group("g1", core.ModeGrouped, 3, 900, 30_000),
		group("g2", core.ModeGrouped, 3, 901, 30_000),
		group("g3", core.ModeUngrouped, 50, 50, 90_000),
	}
	b := []core.GroupStat{a[2], a[0], a[1]}
	t1, t2 := p.Decide(a), p.Decide(b)
	if !reflect.DeepEqual(t1, t2) {
		t.Errorf("order-dependent decision: %v vs %v", t1, t2)
	}
	if len(t1) == 0 {
		t.Error("expected at least one switch")
	}
}

// The mode a warm group is running is costed at what the group measured,
// so hysteresis compares a switch against an observed number. Includes the
// shape where the model's per-member overhead alone (10,000 × 200 ns)
// exceeds the observation.
func TestModeCostReproducesObservation(t *testing.T) {
	p := New(Config{})
	for _, mode := range []core.Mode{core.ModeUngrouped, core.ModeGrouped, core.ModeGroupedAgg} {
		for _, members := range []int{1, 3, 100, 10_000} {
			for _, ns := range []int64{700, 150_000, 74_000_000} {
				gs := group("g", mode, members, 64, ns)
				got := p.modeCost(gs)[mode]
				if want := float64(gs.EvalNS) / float64(gs.Fires); math.Abs(got-want) > 1e-9*want {
					t.Errorf("%s, %d members: modeCost = %v, observed %v", mode, members, got, want)
				}
			}
		}
	}
}
