package core

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"
	"time"

	"quark/internal/fixtures"
	"quark/internal/obs"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

// newAdaptiveCatalogEngine builds a GROUPED engine (no policy) with the
// two structural trigger families used across these tests: two UPDATE
// triggers keyed by product name (one group) and one nested-count trigger
// (second group).
func newAdaptiveCatalogEngine(t *testing.T) (*Engine, *[]notification) {
	t.Helper()
	e, log := newCatalogEngine(t, ModeGrouped)
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

// dumpDB serializes the full relational image deterministically, for
// byte-identical before/after comparisons.
func dumpDB(e *Engine) string {
	var sb []byte
	for _, name := range e.DB().Schema().TableNames() {
		sb = append(sb, name...)
		sb = append(sb, ":\n"...)
		var rows []string
		for _, r := range e.DB().AllRows(name) {
			rows = append(rows, fmt.Sprint(r))
		}
		sort.Strings(rows)
		for _, r := range rows {
			sb = append(sb, r...)
			sb = append(sb, '\n')
		}
	}
	return string(sb)
}

func firedNames(log *[]notification) []string {
	var out []string
	for _, n := range *log {
		out = append(out, n.Trigger+"/"+n.NewKey)
	}
	return out
}

// TestAdaptiveMixedModes: an engine running its groups in different
// modes at once fires identically to a uniform engine.
func TestAdaptiveMixedModes(t *testing.T) {
	oracle, oracleLog := newCatalogEngine(t, ModeMaterialized)
	for i, nm := range []string{"CRT 15", "LCD 19"} {
		err := oracle.CreateTrigger(fmt.Sprintf(`
			CREATE TRIGGER Name%d AFTER UPDATE ON view('catalog')/product
			WHERE OLD_NODE/@name = '%s' DO notifySmith(NEW_NODE)`, i, nm))
		if err != nil {
			t.Fatal(err)
		}
	}
	err := oracle.CreateTrigger(`
		CREATE TRIGGER Cheap AFTER UPDATE ON view('catalog')/product
		WHERE count(NEW_NODE/vendor[./price < 210]) >= 2
		DO notifySmith(NEW_NODE)`)
	if err != nil {
		t.Fatal(err)
	}

	e, log := newAdaptiveCatalogEngine(t)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sigs := e.GroupSigs()
	if len(sigs) != 2 {
		t.Fatalf("groups = %d (%v), want 2", len(sigs), sigs)
	}
	// One group materialized, the other UNGROUPED: a genuinely mixed mix.
	if err := e.SetGroupMode(sigs[0], ModeMaterialized); err != nil {
		t.Fatal(err)
	}
	if err := e.SetGroupMode(sigs[1], ModeUngrouped); err != nil {
		t.Fatal(err)
	}
	if m, ok := e.GroupMode(sigs[0]); !ok || m != ModeMaterialized {
		t.Fatalf("GroupMode(%q) = %v,%v", sigs[0], m, ok)
	}

	discountP1(t, e, 75)
	discountP1(t, oracle, 75)
	if got, want := firedNames(log), firedNames(oracleLog); !reflect.DeepEqual(got, want) {
		t.Errorf("mixed-mode firings = %v, oracle = %v", got, want)
	}
}

// TestAdaptiveRuntimeSwitch: flipping a live group's mode mid-workload
// changes nothing observable — no spurious firings during the silent
// migration, identical firings before and after.
func TestAdaptiveRuntimeSwitch(t *testing.T) {
	e, log := newAdaptiveCatalogEngine(t)
	discountP1(t, e, 75)
	before := len(*log)
	if before == 0 {
		t.Fatal("warmup update fired nothing")
	}

	for _, m := range []Mode{ModeMaterialized, ModeUngrouped, ModeGrouped, ModeMaterialized, ModeGrouped} {
		target := map[string]Mode{}
		for _, sig := range e.GroupSigs() {
			target[sig] = m
		}
		changes, err := e.SetGroupModes(target)
		if err != nil {
			t.Fatalf("switch to %v: %v", m, err)
		}
		if len(changes) == 0 {
			t.Fatalf("switch to %v reported no changes", m)
		}
		if len(*log) != before {
			t.Fatalf("silent switch to %v fired %d notifications", m, len(*log)-before)
		}
		*log = nil
		before = 0
		discountP1(t, e, 75) // no-op value change still exercises the plans
		discountP1(t, e, 60) // real change: CRT 15 goes from 75 to 60
		got := firedNames(log)
		want := []string{"Name0/CRT 15", "Cheap/CRT 15"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after switch to %v fired %v, want %v", m, got, want)
		}
		discountP1(t, e, 75) // restore for next round
		*log = nil
		before = 0
	}
}

// TestAdaptiveAbortIsByteIdentical: a prepared mode switch that aborts
// leaves the engine exactly as it was — same modes, same relational
// image, same subsequent firings.
func TestAdaptiveAbortIsByteIdentical(t *testing.T) {
	e, log := newAdaptiveCatalogEngine(t)
	discountP1(t, e, 75)
	*log = nil

	imgBefore := dumpDB(e)
	modesBefore := map[string]Mode{}
	for _, sig := range e.GroupSigs() {
		modesBefore[sig], _ = e.GroupMode(sig)
	}

	target := map[string]Mode{}
	for _, sig := range e.GroupSigs() {
		target[sig] = ModeMaterialized
	}
	sw, err := e.PrepareGroupModes(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Changes()) == 0 {
		t.Fatal("prepared switch reported no changes")
	}
	if err := sw.Abort(); err != nil {
		t.Fatal(err)
	}

	if img := dumpDB(e); img != imgBefore {
		t.Error("abort changed the relational image")
	}
	for sig, m := range modesBefore {
		if got, _ := e.GroupMode(sig); got != m {
			t.Errorf("abort changed group %q mode %v -> %v", sig, m, got)
		}
	}
	if len(*log) != 0 {
		t.Errorf("aborted switch fired %d notifications", len(*log))
	}
	// The engine still works and fires exactly as before.
	discountP1(t, e, 60)
	got := firedNames(log)
	want := []string{"Name0/CRT 15", "Cheap/CRT 15"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-abort firings = %v, want %v", got, want)
	}
}

// TestAdaptiveSeededModes: modes seeded before triggers exist are adopted
// when the group appears (the replay path shards use after restart/grow).
func TestAdaptiveSeededModes(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := newAdaptiveCatalogEngine(t)
	if err := probe.Flush(); err != nil {
		t.Fatal(err)
	}
	sigs := probe.GroupSigs()

	e := NewEngine(db, ModeGrouped)
	for _, sig := range sigs {
		if err := e.SeedGroupMode(sig, ModeMaterialized); err != nil {
			t.Fatal(err)
		}
	}
	e.RegisterAction("notifySmith", func(inv Invocation) error { return nil })
	if _, err := e.CreateView("catalog", catalogSrc); err != nil {
		t.Fatal(err)
	}
	err = e.CreateTrigger(`
		CREATE TRIGGER Name0 AFTER UPDATE ON view('catalog')/product
		WHERE OLD_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, sig := range e.GroupSigs() {
		if m, _ := e.GroupMode(sig); m != ModeMaterialized {
			t.Errorf("seeded group %q mode = %v, want MATERIALIZED", sig, m)
		}
	}
	if got := e.SeededModes(); len(got) != len(sigs) {
		t.Errorf("SeededModes = %v, want %d entries", got, len(sigs))
	}
}

// TestAdaptivePerGroupStats: the always-on per-group counters flow out
// through GroupStats and Stats.PerGroup.
func TestAdaptivePerGroupStats(t *testing.T) {
	e, _ := newAdaptiveCatalogEngine(t)
	sigs := e.GroupSigs()
	if err := e.SetGroupMode(sigs[0], ModeMaterialized); err != nil {
		t.Fatal(err)
	}
	discountP1(t, e, 75)
	discountP1(t, e, 60)

	var fires, evalNS int64
	for _, gs := range e.GroupStats() {
		fires += gs.Fires
		evalNS += gs.EvalNS
		if gs.ModeName != gs.Mode.String() {
			t.Errorf("ModeName %q != %v", gs.ModeName, gs.Mode)
		}
	}
	if fires == 0 || evalNS == 0 {
		t.Errorf("per-group counters empty: fires=%d evalNS=%d", fires, evalNS)
	}
	st := e.Stats()
	if len(st.PerGroup) != len(sigs) {
		t.Errorf("Stats.PerGroup has %d entries, want %d", len(st.PerGroup), len(sigs))
	}
}

// TestAdaptivePolicyReplan: Replan applies the policy's decision.
type fixedPolicy struct{ want Mode }

func (p fixedPolicy) Decide(stats []GroupStat) map[string]Mode {
	out := map[string]Mode{}
	for _, gs := range stats {
		if gs.Mode != p.want {
			out[gs.Sig] = p.want
		}
	}
	return out
}

func TestAdaptivePolicyReplan(t *testing.T) {
	e, log := newAdaptiveCatalogEngine(t)
	e.SetModePolicy(fixedPolicy{want: ModeMaterialized})
	discountP1(t, e, 75)
	*log = nil
	changes, err := e.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2 {
		t.Fatalf("replan changes = %d, want 2", len(changes))
	}
	for _, sig := range e.GroupSigs() {
		if m, _ := e.GroupMode(sig); m != ModeMaterialized {
			t.Errorf("group %q mode = %v after replan", sig, m)
		}
	}
	if len(*log) != 0 {
		t.Errorf("replan fired %d notifications", len(*log))
	}
	// Second replan is a no-op.
	if changes, err = e.Replan(); err != nil || len(changes) != 0 {
		t.Errorf("second replan = %v, %v; want no changes", changes, err)
	}
}

// TestPolicyAfterTriggers: a policy installed after triggers exist — on an
// engine whose groups started UNGROUPED — takes effect at the next Replan,
// and the group keeps its identity and keeps firing.
func TestPolicyAfterTriggers(t *testing.T) {
	e, log := newCatalogEngine(t, ModeUngrouped)
	for i, nm := range []string{"CRT 15", "LCD 19"} {
		err := e.CreateTrigger(fmt.Sprintf(`
			CREATE TRIGGER T%d AFTER UPDATE ON view('catalog')/product
			WHERE OLD_NODE/@name = '%s' DO notifySmith(NEW_NODE)`, i, nm))
		if err != nil {
			t.Fatal(err)
		}
	}
	discountP1(t, e, 75)
	sigs := e.GroupSigs()
	if len(sigs) != 1 {
		t.Fatalf("groups = %v, want one structural group", sigs)
	}
	*log = nil

	e.SetModePolicy(fixedPolicy{want: ModeGrouped})
	changes, err := e.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].From != ModeUngrouped || changes[0].To != ModeGrouped {
		t.Fatalf("replan changes = %+v, want one UNGROUPED -> GROUPED", changes)
	}
	if m, _ := e.GroupMode(sigs[0]); m != ModeGrouped {
		t.Errorf("group mode = %v after replan", m)
	}
	if got := e.GroupSigs(); !reflect.DeepEqual(got, sigs) {
		t.Errorf("group signatures changed across the switch: %v -> %v", sigs, got)
	}
	discountP1(t, e, 60)
	if got, want := firedNames(log), []string{"T0/CRT 15"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after replan fired %v, want %v", got, want)
	}
}

// TestGroupStatsTakesNoTableLock: GroupStats, a /metrics scrape and
// /snapshot's Snapshot all return while an open batch holds every table's
// write lock — observability never queues behind a writer.
func TestGroupStatsTakesNoTableLock(t *testing.T) {
	e, _ := newAdaptiveCatalogEngine(t)
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
