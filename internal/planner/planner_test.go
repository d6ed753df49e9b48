package planner

import (
	"fmt"
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

// The whole rule as a decision table: a warm UNGROUPED group of two or more
// members moves to GROUPED, and no other group — cold or warm, in any mode,
// however slow its evaluations measured — gets a target. In particular the
// planner never targets MATERIALIZED, never moves a MATERIALIZED group and
// never leaves GROUPED.
func TestDecideMovesHotGroupOffUngrouped(t *testing.T) {
	var stats []core.GroupStat
	want := map[string]core.Mode{}
	for _, mode := range []core.Mode{core.ModeUngrouped, core.ModeGrouped, core.ModeMaterialized} {
		for _, members := range []int{1, 2, 100, 10_000} {
			for _, fires := range []int64{minFires - 1, minFires} { // cold, warm
				for _, ns := range []int64{0, 300, 400_000_000} {
					sig := fmt.Sprintf("%s/%d members/%d fires/%d ns", mode, members, fires, ns)
					stats = append(stats, group(sig, mode, members, fires, ns))
					if mode == core.ModeUngrouped && members >= 2 && fires >= minFires {
						want[sig] = core.ModeGrouped
					}
				}
			}
		}
	}
	got := New().Decide(stats)
	for _, gs := range stats {
		g, gok := got[gs.Sig]
		w, wok := want[gs.Sig]
		if gok != wok || g != w {
			t.Errorf("%s: target %v (%v), want %v (%v)", gs.Sig, g, gok, w, wok)
		}
	}
}

// The planner chooses among the translated modes only: it never targets
// MATERIALIZED, and a warm group somebody put there gets no target at all.
func TestDecideLeavesMaterializedToTheCaller(t *testing.T) {
	var stats []core.GroupStat
	for _, mode := range []core.Mode{core.ModeUngrouped, core.ModeGrouped, core.ModeMaterialized} {
		for _, members := range []int{1, 8, 10_000} {
			for _, ns := range []int64{300, 25_000, 400_000_000} {
				sig := fmt.Sprintf("%s/%d/%d", mode, members, ns)
				stats = append(stats, group(sig, mode, members, 1000, ns))
			}
		}
	}
	target := New().Decide(stats)
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

// A group already in its best mode produces no switch (no-op decisions are
// dropped), and a single-member UNGROUPED group — where the two translations
// are a wash — stays put however hot it is.
func TestDecideHysteresisAndNoOps(t *testing.T) {
	for _, gs := range []core.GroupStat{
		group("steady", core.ModeGrouped, 3, 1000, 20_000),
		group("big", core.ModeGrouped, 10_000, 1000, 400_000_000),
		group("tie", core.ModeUngrouped, 1, 1000, 25_000),
	} {
		if target := New().Decide([]core.GroupStat{gs}); len(target) != 0 {
			t.Errorf("%s group got a switch: %v", gs.Sig, target)
		}
	}
}

// Decisions are deterministic in their input regardless of slice order —
// the property that lets every shard apply the same fleet-wide decision.
func TestDecideDeterministic(t *testing.T) {
	p := New()
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
