package core_test

import (
	"testing"

	"quark/internal/core"
	"quark/internal/workload"
)

// oneMemberWork is what 200 leaf updates cost one trigger at fig17's
// 1-trigger point, in the work counters of every layer.
type oneMemberWork struct {
	RowsRead, IndexLookups     int64 // reldb
	NodesBuilt, RowsReused     int64 // the group's GroupStat
	OpsEvaluated, RowsProduced int64 // likewise: the xqgm work of the plan that fired
}

// TestOneMemberGroupedDoesNoMoreWork: a GROUPED group of one member reads
// the same rows, does the same index lookups and builds and reuses the same
// nodes as an UNGROUPED one, and evaluates no more operators: UNGROUPED runs
// its member's key filter (4 operators, 1 row each, per update) where
// GROUPED joins a one-row constants table. One member is the only case in
// which UNGROUPED could have been the cheaper mode to start a group in, and
// it is not, so an engine fixes its translation mode when it is built.
//
// The engine counts the operators and rows from the firings' own
// evaluations. The pinned figures are what a fresh context counted when it
// evaluated each plan a second time for the same updates, before the engine
// counted them; a change to them changes the plans' work, which the paper
// figures should then show too.
func TestOneMemberGroupedDoesNoMoreWork(t *testing.T) {
	const updates = 200
	measure := func(mode core.Mode) oneMemberWork {
		w, err := workload.Build(workload.Params{
			Depth: 2, LeafTuples: 128 * 64, Fanout: 64, NumTriggers: 1, NumSatisfied: 1,
		}, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			for i := 0; i < updates; i++ {
				if err := w.UpdateOneLeaf(); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm-up
		var got oneMemberWork
		db, gs := w.DB.Stats(), w.Engine.GroupStats()[0]
		run()
		db1, gs1 := w.DB.Stats(), w.Engine.GroupStats()[0]
		got.RowsRead, got.IndexLookups = db1.RowsRead-db.RowsRead, db1.IndexLookups-db.IndexLookups
		got.NodesBuilt, got.RowsReused = gs1.NodesBuilt-gs.NodesBuilt, gs1.RowsReused-gs.RowsReused
		got.OpsEvaluated, got.RowsProduced = gs1.OpsEvaluated-gs.OpsEvaluated, gs1.RowsProduced-gs.RowsProduced
		if w.Notifications != 2*updates {
			t.Fatalf("%v: %d notifications over %d updates, want one each", mode, w.Notifications, 2*updates)
		}
		return got
	}
	grouped, ungrouped := measure(core.ModeGrouped), measure(core.ModeUngrouped)
	t.Logf("per %d updates: GROUPED %+v, UNGROUPED %+v", updates, grouped, ungrouped)
	g, u := grouped, ungrouped
	g.OpsEvaluated, g.RowsProduced, u.OpsEvaluated, u.RowsProduced = 0, 0, 0, 0
	if g != u || grouped.OpsEvaluated > ungrouped.OpsEvaluated || grouped.RowsProduced > ungrouped.RowsProduced {
		t.Errorf("a one-member GROUPED group does other or more work than UNGROUPED:\nGROUPED   %+v\nUNGROUPED %+v", grouped, ungrouped)
	}
	if grouped.RowsRead == 0 || grouped.NodesBuilt == 0 || grouped.OpsEvaluated == 0 {
		t.Errorf("counted no work: %+v", grouped)
	}
	for _, c := range []struct {
		mode      core.Mode
		got       oneMemberWork
		ops, rows int64
	}{{core.ModeGrouped, grouped, 7600, 58000}, {core.ModeUngrouped, ungrouped, 8400, 58800}} {
		if c.got.OpsEvaluated != c.ops || c.got.RowsProduced != c.rows {
			t.Errorf("%v: %d operators evaluated and %d rows produced, want %d and %d",
				c.mode, c.got.OpsEvaluated, c.got.RowsProduced, c.ops, c.rows)
		}
	}
}
