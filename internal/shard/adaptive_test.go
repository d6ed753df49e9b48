package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"quark/internal/core"
	"quark/internal/obs"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

// fleetConfig is a GROUPED n-shard fleet over the catalog schema (dir may
// be empty).
func fleetConfig(n int, dir string) Config {
	return Config{
		Shards: n,
		Mode:   core.ModeGrouped,
		Routing: []TableRouting{
			{Table: "product", ByColumns: []string{"pname"}},
			{Table: "vendor", ViaParent: "product"},
		},
		Dir: dir,
	}
}

// newAdaptiveFleet builds a fleetConfig fleet with one watch trigger over
// the product map view, returning the engine and a pointer to the firing
// log.
func newAdaptiveFleet(t *testing.T, n int, dir string) (*Engine, *[]string, *sync.Mutex) {
	t.Helper()
	e, err := New(catalogSchema(t), fleetConfig(n, dir))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	e.RegisterAction("notify", func(inv core.Invocation) error {
		mu.Lock()
		got = append(got, inv.Trigger)
		mu.Unlock()
		return nil
	})
	if err := e.CreateView("m", `<m>{for $q in view('default')/product/row return <p name={$q/pname} mfr={$q/mfr}></p>}</m>`); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger(`CREATE TRIGGER watch AFTER UPDATE ON view('m')/p DO notify(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e, &got, &mu
}

func seedProducts(t *testing.T, e *Engine) {
	t.Helper()
	mustInsert(t, e, "product",
		row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"),
		row("P3", "OLED 27", "LG"), row("P4", "Plasma 42", "Panasonic"))
}

func touchAllProducts(t *testing.T, e *Engine, mfr string) {
	t.Helper()
	for _, pid := range []string{"P1", "P2", "P3", "P4"} {
		changed, err := e.UpdateByPK("product", []xdm.Value{xdm.Str(pid)}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Str(mfr)
			return r
		})
		if err != nil || !changed {
			t.Fatalf("update %s: changed=%v err=%v", pid, changed, err)
		}
	}
}

// TestShardFleetModeSwitch: a fleet-wide mode switch flips every shard in
// one step — all shards agree afterwards, the switch itself fires
// nothing, and triggers keep firing correctly in the new mode.
func TestShardFleetModeSwitch(t *testing.T) {
	e, got, mu := newAdaptiveFleet(t, 4, "")
	reg := obs.New()
	e.EnableObs(reg)
	seedProducts(t, e)
	touchAllProducts(t, e, "ACME")
	mu.Lock()
	if len(*got) != 4 {
		t.Fatalf("warmup fired %d, want 4", len(*got))
	}
	*got = nil
	mu.Unlock()

	sigs := e.GroupSigs()
	if len(sigs) != 1 {
		t.Fatalf("group sigs = %v, want 1", sigs)
	}
	for _, m := range []core.Mode{core.ModeMaterialized, core.ModeUngrouped, core.ModeGrouped} {
		changes, err := e.SetGroupModes(map[string]core.Mode{sigs[0]: m})
		if err != nil {
			t.Fatalf("switch to %v: %v", m, err)
		}
		if len(changes) != 1 {
			t.Fatalf("switch to %v: changes = %v", m, changes)
		}
		mu.Lock()
		if len(*got) != 0 {
			t.Fatalf("silent switch to %v fired %d notifications", m, len(*got))
		}
		mu.Unlock()
		// Every shard agrees.
		for i := 0; i < e.NumShards(); i++ {
			if sm, ok := e.Shard(i).GroupMode(sigs[0]); !ok || sm != m {
				t.Fatalf("shard %d mode = %v,%v; want %v", i, sm, ok, m)
			}
		}
		touchAllProducts(t, e, "ACME-"+m.String())
		mu.Lock()
		if len(*got) != 4 {
			t.Fatalf("in mode %v fired %d, want 4", m, len(*got))
		}
		*got = nil
		mu.Unlock()
	}
	snap := reg.Snapshot()
	if snap.Counters["quark_planner_mode_switches_total"] != 3 {
		t.Errorf("mode switch counter = %d, want 3", snap.Counters["quark_planner_mode_switches_total"])
	}
	var fleet, perShard int
	for _, ev := range snap.Events {
		if ev.Kind != "mode.switch" {
			continue
		}
		if ev.Fields["scope"] == "fleet" {
			fleet++
		} else {
			perShard++
		}
	}
	if fleet != 3 {
		t.Errorf("fleet mode.switch events = %d, want 3", fleet)
	}
	if perShard != 3*e.NumShards() {
		t.Errorf("per-shard mode.switch events = %d, want %d", perShard, 3*e.NumShards())
	}
}

// TestShardModeSwitchBadTarget: an invalid target aborts cleanly — the
// fleet keeps its modes and keeps firing.
func TestShardModeSwitchBadTarget(t *testing.T) {
	e, got, mu := newAdaptiveFleet(t, 2, "")
	seedProducts(t, e)
	sigs := e.GroupSigs()
	before, _ := e.GroupMode(sigs[0])
	if _, err := e.SetGroupModes(map[string]core.Mode{sigs[0]: core.Mode(9)}); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if m, _ := e.GroupMode(sigs[0]); m != before {
		t.Errorf("failed switch changed mode %v -> %v", before, m)
	}
	touchAllProducts(t, e, "ACME")
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 4 {
		t.Errorf("after failed switch fired %d, want 4", len(*got))
	}
}

// TestShardModesPersistAndRestart: committed mode decisions survive a
// restart — a fresh engine over the same directory comes up with every
// group seeded to its pre-restart mode.
func TestShardModesPersistAndRestart(t *testing.T) {
	dir := t.TempDir()
	e, _, _ := newAdaptiveFleet(t, 2, dir)
	seedProducts(t, e)
	sigs := e.GroupSigs()
	if _, err := e.SetGroupModes(map[string]core.Mode{sigs[0]: core.ModeMaterialized}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, got, mu := newAdaptiveFleet(t, 2, dir)
	if m, ok := e2.GroupMode(sigs[0]); !ok || m != core.ModeMaterialized {
		t.Fatalf("reopened group mode = %v,%v; want MATERIALIZED", m, ok)
	}
	for i := 0; i < e2.NumShards(); i++ {
		if sm, ok := e2.Shard(i).GroupMode(sigs[0]); !ok || sm != core.ModeMaterialized {
			t.Fatalf("reopened shard %d mode = %v,%v", i, sm, ok)
		}
	}
	seedProducts(t, e2)
	touchAllProducts(t, e2, "ACME")
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 4 {
		t.Errorf("reopened fleet fired %d, want 4", len(*got))
	}
}

// TestShardKillMidModeSwitch: the disk image mid-protocol is wholly
// pre-switch (the decision file is written only after commit-all), so a
// process killed between prepare and commit recovers to the old modes,
// and one that survives commit recovers to the new — never in between.
func TestShardKillMidModeSwitch(t *testing.T) {
	dir := t.TempDir()
	e, _, _ := newAdaptiveFleet(t, 2, dir)
	seedProducts(t, e)
	sigs := e.GroupSigs()

	// State A on disk.
	if _, err := e.SetGroupModes(map[string]core.Mode{sigs[0]: core.ModeUngrouped}); err != nil {
		t.Fatal(err)
	}
	pre, err := os.ReadFile(filepath.Join(dir, "modes.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	// Kill seam: capture the decision file between prepare-all and
	// commit-all of the A -> B switch.
	var crash []byte
	e.SetReplanBarrier(func() {
		b, err := os.ReadFile(filepath.Join(dir, "modes.ckpt"))
		if err != nil {
			t.Error(err)
		}
		crash = b
	})
	if _, err := e.SetGroupModes(map[string]core.Mode{sigs[0]: core.ModeMaterialized}); err != nil {
		t.Fatal(err)
	}
	if crash == nil {
		t.Fatal("replan barrier never fired")
	}
	if string(crash) != string(pre) {
		t.Fatal("mid-protocol disk image diverged from the pre-switch state")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the crash image: wholly pre-switch (state A).
	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, "modes.ckpt"), crash, 0o644); err != nil {
		t.Fatal(err)
	}
	ec, _, _ := newAdaptiveFleet(t, 2, crashDir)
	if m, ok := ec.GroupMode(sigs[0]); !ok || m != core.ModeUngrouped {
		t.Fatalf("crash image recovered to %v,%v; want pre-switch UNGROUPED", m, ok)
	}

	// Recovery from the live directory: wholly post-switch (state B).
	e2, _, _ := newAdaptiveFleet(t, 2, dir)
	if m, ok := e2.GroupMode(sigs[0]); !ok || m != core.ModeMaterialized {
		t.Fatalf("committed image recovered to %v,%v; want post-switch MATERIALIZED", m, ok)
	}
}

// writeModes writes a modes.ckpt holding enc the way persistModesLocked
// frames it.
func writeModes(t *testing.T, dir string, enc map[string]int) {
	t.Helper()
	buf, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, modesCkptName), outbox.Frame(buf), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardModesLegacyFile: a decision file written while 2 was a mode
// (GROUPED-AGG, GROUPED plus the §5.2 rewrite) still loads — 2 as GROUPED, and
// MATERIALIZED keeps the value 3 it was persisted under.
func TestShardModesLegacyFile(t *testing.T) {
	const lg = `CREATE TRIGGER lg AFTER UPDATE ON view('m')/p WHERE NEW_NODE/@mfr = 'LG' DO notify(NEW_NODE)`
	dir := t.TempDir()
	e, _, _ := newAdaptiveFleet(t, 2, dir)
	if err := e.CreateTrigger(lg); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sigs := e.GroupSigs()
	if len(sigs) != 2 {
		t.Fatalf("group sigs = %v, want 2", sigs)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	writeModes(t, dir, map[string]int{sigs[0]: 2, sigs[1]: 3})

	e2, got, mu := newAdaptiveFleet(t, 2, dir)
	if err := e2.CreateTrigger(lg); err != nil {
		t.Fatal(err)
	}
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	for sig, want := range map[string]core.Mode{sigs[0]: core.ModeGrouped, sigs[1]: core.ModeMaterialized} {
		if m, ok := e2.GroupMode(sig); !ok || m != want {
			t.Errorf("group %q came up %v,%v; want %v", sig, m, ok, want)
		}
		for i := 0; i < e2.NumShards(); i++ {
			if m, ok := e2.Shard(i).GroupMode(sig); !ok || m != want {
				t.Errorf("shard %d: group %q came up %v,%v; want %v", i, sig, m, ok, want)
			}
		}
	}
	seedProducts(t, e2)
	touchAllProducts(t, e2, "ACME")
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 4 {
		t.Errorf("reopened fleet fired %d, want 4", len(*got))
	}
}

// TestShardModesRejectUnknown: any other value than a mode or the legacy 2
// fails New rather than seeding a group with a mode nobody can run.
func TestShardModesRejectUnknown(t *testing.T) {
	dir := t.TempDir()
	writeModes(t, dir, map[string]int{"some group": 7})
	e, err := New(catalogSchema(t), fleetConfig(2, dir))
	if err == nil {
		_ = e.Close()
		t.Fatal("a decision file naming mode 7 was accepted")
	}
	if !strings.Contains(err.Error(), "unknown mode 7") {
		t.Errorf("error = %v, want it to name unknown mode 7", err)
	}
}

// fleetPolicy drives every warm group to one mode (test double).
type fleetPolicy struct{ want core.Mode }

func (p fleetPolicy) Decide(stats []core.GroupStat) map[string]core.Mode {
	out := map[string]core.Mode{}
	for _, gs := range stats {
		if gs.Mode != p.want {
			out[gs.Sig] = p.want
		}
	}
	return out
}

// TestShardReplanAndGrow: a policy-driven replan applies fleet-wide, and
// shards added by Grow afterwards come up in the agreed modes.
func TestShardReplanAndGrow(t *testing.T) {
	e, got, mu := newAdaptiveFleet(t, 2, "")
	e.SetModePolicy(fleetPolicy{want: core.ModeMaterialized})
	seedProducts(t, e)
	changes, err := e.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 {
		t.Fatalf("replan changes = %v, want 1", changes)
	}
	sigs := e.GroupSigs()
	if err := e.Grow(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if m, ok := e.Shard(i).GroupMode(sigs[0]); !ok || m != core.ModeMaterialized {
			t.Fatalf("post-grow shard %d mode = %v,%v; want MATERIALIZED", i, m, ok)
		}
	}
	touchAllProducts(t, e, "ACME")
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 4 {
		t.Errorf("post-grow fleet fired %d, want 4", len(*got))
	}
}
