package workload

import (
	"strings"
	"testing"

	"quark/internal/core"
)

// TestWorkloadEndToEnd: a small Table 2 instance fires exactly
// NumSatisfied notifications per leaf update in every mode.
func TestWorkloadEndToEnd(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeUngrouped, core.ModeGrouped} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			p := Params{Depth: 2, LeafTuples: 512, Fanout: 16, NumTriggers: 20, NumSatisfied: 3}
			w, err := Build(p, mode, 7)
			if err != nil {
				t.Fatal(err)
			}
			if w.DB.RowCount("vendor") != 512 || w.DB.RowCount("product") != 32 {
				t.Fatalf("rows: vendor=%d product=%d", w.DB.RowCount("vendor"), w.DB.RowCount("product"))
			}
			for i := 0; i < 5; i++ {
				if err := w.UpdateOneLeaf(); err != nil {
					t.Fatal(err)
				}
			}
			if w.Notifications != 5*3 {
				t.Errorf("notifications = %d, want 15 (5 updates x 3 satisfied)", w.Notifications)
			}
			st := w.Engine.Stats()
			if st.XMLTriggers != 20 {
				t.Errorf("XML triggers = %d", st.XMLTriggers)
			}
			if mode == core.ModeUngrouped && st.SQLTriggers < 20 {
				t.Errorf("ungrouped SQL triggers = %d, want >= 20", st.SQLTriggers)
			}
			if mode != core.ModeUngrouped && st.SQLTriggers >= 20 {
				t.Errorf("%s SQL triggers = %d, want shared (< 20)", mode, st.SQLTriggers)
			}
		})
	}
}

// TestWorkloadDepths: deeper hierarchies build, evaluate, and fire.
func TestWorkloadDepths(t *testing.T) {
	for _, depth := range []int{2, 3, 4, 5} {
		p := Params{Depth: depth, LeafTuples: 256, Fanout: 16, NumTriggers: 10, NumSatisfied: 1}
		w, err := Build(p, core.ModeGrouped, 11)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		// The view materializes with nested levels.
		doc, err := w.Engine.EvalView("doc")
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		tops := doc.ChildElements("e0")
		if len(tops) == 0 {
			t.Fatalf("depth %d: empty view", depth)
		}
		// Verify nesting depth by following e1/e2/... chains.
		cur := tops[0]
		for lvl := 1; lvl < depth; lvl++ {
			name := "e" + string(rune('0'+lvl))
			kids := cur.ChildElements(name)
			if len(kids) == 0 {
				t.Fatalf("depth %d: no %s under %s", depth, name, cur.Name)
			}
			cur = kids[0]
		}
		before := w.Notifications
		if err := w.UpdateOneLeaf(); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if w.Notifications != before+1 {
			t.Errorf("depth %d: notifications = %d, want %d", depth, w.Notifications, before+1)
		}
	}
}

// TestWorkloadSatisfiedCounts: varying NumSatisfied changes exactly the
// number of fired actions.
func TestWorkloadSatisfiedCounts(t *testing.T) {
	for _, sat := range []int{1, 5, 10} {
		p := Params{Depth: 2, LeafTuples: 256, Fanout: 16, NumTriggers: 40, NumSatisfied: sat}
		w, err := Build(p, core.ModeGrouped, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.UpdateOneLeaf(); err != nil {
			t.Fatal(err)
		}
		if w.Notifications != sat {
			t.Errorf("satisfied=%d: notifications = %d", sat, w.Notifications)
		}
	}
}

// TestViewSourceShape: generated XQuery contains the paper's count
// predicate on the lowest level.
func TestViewSourceShape(t *testing.T) {
	src := ViewSource(Params{Depth: 2})
	if !strings.Contains(src, "count($s1) >= 2") {
		t.Errorf("depth-2 view missing count predicate:\n%s", src)
	}
	src = ViewSource(Params{Depth: 4})
	if !strings.Contains(src, "count($s3) >= 2") {
		t.Errorf("depth-4 view should count the leaf level:\n%s", src)
	}
	if strings.Contains(src, "count($s1)") {
		t.Errorf("depth-4 view should not count level 1:\n%s", src)
	}
}

// TestUpdatesTouchOnlyAffectedData: with GROUPED mode on a larger dataset,
// a single leaf update reads a bounded number of rows (the Figure 23
// property: cost independent of data size).
func TestUpdatesTouchOnlyAffectedData(t *testing.T) {
	p := Params{Depth: 2, LeafTuples: 8192, Fanout: 16, NumTriggers: 50, NumSatisfied: 1}
	w, err := Build(p, core.ModeGrouped, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.UpdateOneLeaf(); err != nil { // warm-up
		t.Fatal(err)
	}
	w.DB.ResetStats()
	if err := w.UpdateOneLeaf(); err != nil {
		t.Fatal(err)
	}
	st := w.DB.Stats()
	if st.FullScans != 0 {
		t.Errorf("full scans per update = %d, want 0", st.FullScans)
	}
	if st.RowsRead > 512 {
		t.Errorf("rows read per update = %d, want bounded (dataset has 8192 leaves)", st.RowsRead)
	}
}
