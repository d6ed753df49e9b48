package core_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"quark/internal/core"
)

// Budgets per registered GROUPED member, measured on an engine with little
// data, so what grows is the membership. A member is a handle in its
// group's store: a name (a 16 B header in one slice, its bytes, the one
// pointer), a 12 B slot of row and join-order links, 4 B in its row's
// handle list and an 8 B slot, at most half full, in the engine's name
// index; slices grow by up to 2x, and a row's constants and map entries
// are shared by its members. As a heap object with its own constants, an
// entry in a map by name and a TrigIDs label rendered per join, a member
// held 314 B, 237 of them scanned, and a row of k members kept every label
// it had had: about 25 KB per member for 8,000 members in one row.
const (
	memberHeapBudget = 160
	memberScanBudget = 96
)

// heapNow collects and returns the live heap and the heap the collector
// scans.
func heapNow() (live, scanned float64) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// registerMembers has n triggers join one GROUPED group, the i-th watching
// constant constOf(i), and records into perCall the bytes the calls in
// [lo, hi) allocated, on average, for each window given.
func registerMembers(t *testing.T, e *core.Engine, n int, constOf func(int) string, windows map[[2]int]*float64) {
	t.Helper()
	var ms runtime.MemStats
	var at uint64
	for i := 0; i < n; i++ {
		for w, perCall := range windows {
			switch i {
			case w[0]:
				runtime.ReadMemStats(&ms)
				at = ms.TotalAlloc
			case w[1]:
				runtime.ReadMemStats(&ms)
				*perCall = float64(ms.TotalAlloc-at) / float64(w[1]-w[0])
			}
		}
		src := fmt.Sprintf(`CREATE TRIGGER m%d AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' DO notify(NEW_NODE)`, i, constOf(i))
		if err := e.CreateTrigger(src); err != nil {
			t.Fatal(err)
		}
	}
}

// 8,000 members share one constant, so one row lists them all. Neither
// what the row retains nor what a join allocates grows with the row.
func TestSameConstantMembersStayLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const n = 8000
	w := membershipSetup(t, core.ModeGrouped)
	before, _ := heapNow()
	var early, late float64
	registerMembers(t, w.Engine, n+1, func(int) string { return w.TopNames[0] },
		map[[2]int]*float64{{500, 1000}: &early, {7500, 8000}: &late})
	after, _ := heapNow()
	runtime.KeepAlive(w)
	perMember := (after - before) / n
	t.Logf("retained heap per member: %.1f B (budget %d); bytes allocated per join around the 1,000th: %.0f, the 8,000th: %.0f",
		perMember, memberHeapBudget, early, late)
	if perMember > memberHeapBudget {
		t.Errorf("a member of a shared row retains %.1f B, budget is %d", perMember, memberHeapBudget)
	}
	if late > 1.25*early {
		t.Errorf("the 8,000th join allocates %.0f B, the 1,000th %.0f: a join costs more as its row grows", late, early)
	}
}

// 10,000 members over 2,048 rows, paper-default's shape, leave the heap
// the collector scans nearly alone.
func TestMembersLeaveTheScannedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const n, rows = 10_000, 2048
	w := membershipSetup(t, core.ModeGrouped)
	live0, scan0 := heapNow()
	registerMembers(t, w.Engine, n, func(i int) string { return fmt.Sprintf("name %d", i%rows) }, nil)
	live1, scan1 := heapNow()
	runtime.KeepAlive(w)
	heap, scan := (live1-live0)/n, (scan1-scan0)/n
	t.Logf("per member: heap %.1f B (budget %d), scannable heap %.1f B (budget %d)", heap, memberHeapBudget, scan, memberScanBudget)
	if heap > memberHeapBudget {
		t.Errorf("a member retains %.1f B, budget is %d", heap, memberHeapBudget)
	}
	if scan > memberScanBudget {
		t.Errorf("a member adds %.1f B to the scanned heap, budget is %d", scan, memberScanBudget)
	}
}
