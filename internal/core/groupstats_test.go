package core

import (
	"fmt"
	"io"
	"testing"
	"time"

	"quark/internal/obs"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

// newTwoGroupCatalogEngine builds a catalog engine in mode with two
// structural trigger families: two UPDATE triggers keyed by product name
// (one group) and one nested-count trigger (a second group).
func newTwoGroupCatalogEngine(t *testing.T, mode Mode) (*Engine, *[]notification) {
	t.Helper()
	e, log := newCatalogEngine(t, mode)
	for i, nm := range []string{"CRT 15", "LCD 19"} {
		err := e.CreateTrigger(fmt.Sprintf(`
			CREATE TRIGGER Name%d AFTER UPDATE ON view('catalog')/product
			WHERE OLD_NODE/@name = '%s' DO notifySmith(NEW_NODE)`, i, nm))
		if err != nil {
			t.Fatal(err)
		}
	}
	err := e.CreateTrigger(`
		CREATE TRIGGER Cheap AFTER UPDATE ON view('catalog')/product
		WHERE count(NEW_NODE/vendor[./price < 210]) >= 2
		DO notifySmith(NEW_NODE)`)
	if err != nil {
		t.Fatal(err)
	}
	return e, log
}

func discountP1(t *testing.T, e *Engine, price float64) {
	t.Helper()
	if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(price)
		return r
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPerGroupStats: the always-on per-group counters flow out through
// GroupStats and Stats.PerGroup, and every group reports its engine's mode.
func TestPerGroupStats(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			e, _ := newTwoGroupCatalogEngine(t, mode)
			discountP1(t, e, 75)
			discountP1(t, e, 60)

			var fires, evalNS int64
			for _, gs := range e.GroupStats() {
				fires += gs.Fires
				evalNS += gs.EvalNS
				if gs.Mode != mode || gs.ModeName != mode.String() {
					t.Errorf("group %q reports mode %v (%q), want the engine's %v", gs.Sig, gs.Mode, gs.ModeName, mode)
				}
			}
			if fires == 0 || evalNS == 0 {
				t.Errorf("per-group counters empty: fires=%d evalNS=%d", fires, evalNS)
			}
			if st := e.Stats(); len(st.PerGroup) != 2 {
				t.Errorf("Stats.PerGroup has %d entries, want 2", len(st.PerGroup))
			}
		})
	}
}

// TestGroupStatsTakesNoTableLock: GroupStats, a /metrics scrape and
// /snapshot's Snapshot all return while an open batch holds every table's
// write lock — observability never queues behind a writer.
func TestGroupStatsTakesNoTableLock(t *testing.T) {
	e, _ := newTwoGroupCatalogEngine(t, ModeGrouped)
	reg := obs.New()
	e.EnableObs(reg)
	h, err := e.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		n := len(e.GroupStats())
		_ = reg.WritePrometheus(io.Discard)
		n += len(e.Snapshot().Stats.PerGroup)
		done <- n
	}()
	select {
	case n := <-done:
		if n != 4 {
			t.Errorf("saw %d group rows across GroupStats and Snapshot, want 2+2", n)
		}
	case <-time.After(10 * time.Second):
		t.Error("GroupStats / metrics scrape blocked behind an open batch")
	}
	if err := h.Rollback(); err != nil {
		t.Fatal(err)
	}
}
