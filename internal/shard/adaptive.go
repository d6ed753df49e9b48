package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"quark/internal/core"
	"quark/internal/outbox"
)

// Fleet-wide per-group translation modes: every shard compiles the same
// trigger groups (registrations replicate), so a group's mode is a
// fleet-level agreement — a group half-flipped across shards would break
// the deterministic (shard, storage-key) activation order the golden
// conformance runs pin. SetGroupModes therefore flips a group on all
// shards in one two-phase step: phase 1 prepares the switch on every
// shard in shard order (each shard compiles the new plans under its own
// metadata + all-table locks and holds them), phase 2 commits them all.
// Any prepare failure aborts every prepared shard, leaving the fleet
// byte-identical. The committed decision set persists (one atomic frame
// file next to the routing directory) only after commit-all, so a crash
// anywhere in the protocol leaves the on-disk image wholly pre- or
// wholly post-switch — never between.

// modesCkptName is the persisted planner-decision file inside Config.Dir:
// one CRC frame (outbox format) holding a JSON map of group signature ->
// int(core.Mode). Replaced atomically via tmp + rename after every
// committed fleet mode switch. Files written while 2 was a mode still
// load: 2 reads as GROUPED.
const modesCkptName = "modes.ckpt"

// SetModePolicy installs the policy Replan consults (nil: manual
// SetGroupModes control only). The policy lives only on the coordinator:
// shards never replan independently, because the fleet must agree on
// every group's mode.
func (e *Engine) SetModePolicy(p core.ModePolicy) {
	e.adMu.Lock()
	e.policy = p
	e.adMu.Unlock()
}

// SetReplanBarrier installs a hook that runs between a fleet mode
// switch's prepare-all and commit-all phases (the kill-mid-migration
// tests' crash seam, mirroring SetRebalanceBarrier).
func (e *Engine) SetReplanBarrier(fn func()) { e.replanBarrier = fn }

// GroupSigs returns the fleet's trigger-group signatures (identical on
// every shard; read from shard 0).
func (e *Engine) GroupSigs() []string {
	engines, _ := e.fleet()
	if len(engines) == 0 {
		return nil
	}
	return engines[0].GroupSigs()
}

// GroupMode returns a group's fleet-agreed mode (from shard 0; the
// two-phase switch keeps all shards identical).
func (e *Engine) GroupMode(sig string) (core.Mode, bool) {
	engines, _ := e.fleet()
	if len(engines) == 0 {
		return 0, false
	}
	return engines[0].GroupMode(sig)
}

// GroupStats aggregates per-group statistics across the fleet: counters
// sum (each shard holds a partition of the view), while mode and
// membership come from shard 0 (identical everywhere). The
// result is the planner's input for fleet-wide replans.
func (e *Engine) GroupStats() []core.GroupStat {
	engines, _ := e.fleet()
	var agg []core.GroupStat
	idx := map[string]int{}
	for _, ce := range engines {
		for _, gs := range ce.GroupStats() {
			i, ok := idx[gs.Sig]
			if !ok {
				idx[gs.Sig] = len(agg)
				agg = append(agg, gs)
				continue
			}
			a := &agg[i]
			a.Fires += gs.Fires
			a.EvalNS += gs.EvalNS
			a.DeltaRows += gs.DeltaRows
			a.Activations += gs.Activations
			a.RowsReused += gs.RowsReused
			a.JoinsSkipped += gs.JoinsSkipped
			a.NodesBuilt += gs.NodesBuilt
			a.OpsShared += gs.OpsShared
			a.Builds += gs.Builds
		}
	}
	sort.Slice(agg, func(i, j int) bool { return agg[i].Sig < agg[j].Sig })
	return agg
}

// SetGroupModes flips the listed groups to their target modes on every
// shard in one two-phase step (see the package comment above). Returns
// the transitions actually performed (empty when every target was
// already current).
func (e *Engine) SetGroupModes(target map[string]core.Mode) ([]core.ModeChange, error) {
	engines, _ := e.fleet()
	var prepared []*core.ModeSwitch
	abort := func() {
		for _, sw := range prepared {
			_ = sw.Abort()
		}
	}
	// Phase 1: prepare every shard in shard order. Each prepared switch
	// holds its shard's metadata and table locks, so writers drain out
	// shard by shard exactly as beginAll's distributed transactions do —
	// the same (shard, table) order keeps the protocol deadlock-free
	// against them.
	for si, ce := range engines {
		sw, err := ce.PrepareGroupModes(target)
		if err != nil {
			abort()
			if m := e.om.Load(); m != nil {
				m.reg.Emit("mode.switch.abort", map[string]string{
					"shard": strconv.Itoa(si), "err": err.Error(),
				})
			}
			return nil, err
		}
		prepared = append(prepared, sw)
	}
	if e.replanBarrier != nil {
		e.replanBarrier()
	}
	// Phase 2: commit all. Commit on a prepared switch installs
	// pre-compiled plans and commits an empty silent transaction; the
	// failure modes left are invariant violations, not data races, so a
	// commit error is surfaced but the remaining shards still commit
	// (matching the distributed transaction's phase-2 contract).
	var changes []core.ModeChange
	var firstErr error
	for i, sw := range prepared {
		if i == 0 {
			changes = sw.Changes()
		}
		if err := sw.Commit(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	e.adMu.Lock()
	if e.groupModes == nil {
		e.groupModes = map[string]core.Mode{}
	}
	for sig, m := range target {
		e.groupModes[sig] = m
	}
	err := e.persistModesLocked()
	e.adMu.Unlock()
	if err != nil {
		return changes, err
	}
	if m := e.om.Load(); m != nil && len(changes) > 0 {
		m.reg.Counter("quark_planner_mode_switches_total").Add(int64(len(changes)))
		for _, c := range changes {
			// Per-shard core engines emit their own mode.switch events on
			// this shared registry; the fleet-level one is scope-tagged.
			m.reg.Emit("mode.switch", map[string]string{
				"sig": c.Sig, "from": c.FromName, "to": c.ToName, "scope": "fleet",
			})
		}
	}
	return changes, nil
}

// SetGroupMode flips one group fleet-wide.
func (e *Engine) SetGroupMode(sig string, m core.Mode) error {
	_, err := e.SetGroupModes(map[string]core.Mode{sig: m})
	return err
}

// Replan consults the installed policy with fresh fleet-wide GroupStats
// and applies whatever mode changes it decides. The decision runs once,
// on aggregated numbers, and the resulting target applies to all shards
// in one two-phase switch — shards never diverge.
func (e *Engine) Replan() ([]core.ModeChange, error) {
	e.adMu.Lock()
	p := e.policy
	e.adMu.Unlock()
	if p == nil {
		return nil, nil
	}
	target := p.Decide(e.GroupStats())
	if len(target) == 0 {
		return nil, nil
	}
	changes, err := e.SetGroupModes(target)
	if err != nil {
		return nil, err
	}
	if m := e.om.Load(); m != nil {
		m.reg.Counter("quark_planner_replans_total").Inc()
		m.reg.Emit("replan", map[string]string{"switches": strconv.Itoa(len(changes))})
	}
	return changes, nil
}

// persistModesLocked writes the committed decision set as one atomic CRC
// frame (tmp + rename). Caller holds adMu. A no-op without a persistence
// directory. Written only after commit-all, so the disk image is always
// wholly pre- or wholly post-switch.
func (e *Engine) persistModesLocked() error {
	if e.store == nil {
		return nil
	}
	enc := make(map[string]int, len(e.groupModes))
	for sig, m := range e.groupModes {
		enc[sig] = int(m)
	}
	buf, err := json.Marshal(enc)
	if err != nil {
		return err
	}
	path := filepath.Join(e.store.Dir(), modesCkptName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, outbox.Frame(buf), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadModes adopts a persisted decision set at New: every decision seeds
// every shard, so groups created by the caller's re-registration come up
// in their pre-restart modes. A fleet that never switched modes has no
// file and loads nothing. The policy is not persisted: callers install it
// again on restart as they re-register everything else.
func (e *Engine) loadModes(dir string) error {
	b, err := os.ReadFile(filepath.Join(dir, modesCkptName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var enc map[string]int
	decoded := false
	if _, err := outbox.ScanFrames(b, func(payload []byte) error {
		if decoded {
			return nil
		}
		decoded = true
		return json.Unmarshal(payload, &enc)
	}); err != nil {
		return err
	}
	if !decoded && len(b) > 0 {
		return fmt.Errorf("shard: persisted mode file corrupt")
	}
	modes := make(map[string]core.Mode, len(enc))
	for sig, m := range enc { //quark:sorted decode+validate: builds a map and rejects bad entries; order-independent outcome
		if m == 2 { // retired GROUPED-AGG: GROUPED's plan plus the §5.2 rewrite
			m = int(core.ModeGrouped)
		}
		mode := core.Mode(m)
		if int(mode) != m || !mode.Valid() {
			return fmt.Errorf("shard: persisted mode file names unknown mode %d for group %q", m, sig)
		}
		modes[sig] = mode
	}
	engines, _ := e.fleet()
	for _, ce := range engines {
		for sig, m := range modes { //quark:sorted seeding per-group modes; groups are independent and seeds commute
			if err := ce.SeedGroupMode(sig, m); err != nil {
				return err
			}
		}
	}
	e.adMu.Lock()
	e.groupModes = modes
	e.adMu.Unlock()
	return nil
}
