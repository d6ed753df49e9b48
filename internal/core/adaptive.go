package core

import (
	"fmt"
	"sort"
)

// This file is the engine's per-group mode surface: a group's translation
// mode is a runtime property, with abort-safe migration between modes.
//
// The paper fixes the translation strategy per system (Section 6 compares
// its translations as separate engines). Here the engine's mode is nothing
// but the seed for new groups, and a policy (internal/planner) re-picks
// each group's mode from its live groupStats — including mid-workload. The migration protocol reuses the
// silent-transaction machinery built for shard rebalancing: a mode
// switch is a silent batch that compiles the new plans (evaluating the
// materialized snapshot if the target mode needs one) while every table
// is write-locked, then either installs everything atomically (Commit)
// or discards the build leaving the engine byte-identical (Abort).

// ModePolicy decides, from the live per-group statistics, which
// translation mode every group should run. Decide returns the target
// mode per group signature; omitted signatures keep their current mode.
// Implementations must be deterministic in their input — Replan calls
// Decide on every shard-stat refresh, and the sharded engine requires
// all shards to agree.
type ModePolicy interface {
	Decide(stats []GroupStat) map[string]Mode
}

// GroupStat is one trigger group's row in Stats.PerGroup and the
// planner's input. Counters are cumulative since engine start and
// survive rebuilds and mode switches.
type GroupStat struct {
	Sig      string `json:"sig"`
	Mode     Mode   `json:"mode"`
	ModeName string `json:"mode_name"`
	Members  int    `json:"members"`

	Fires        int64 `json:"fires"`         // plan/body evaluations
	EvalNS       int64 `json:"eval_ns"`       // wall time spent evaluating
	DeltaRows    int64 `json:"delta_rows"`    // transition rows seen
	Activations  int64 `json:"activations"`   // member activations delivered/staged
	RowsReused   int64 `json:"rows_reused"`   // OLD-side rows taken from the NEW side instead of computed
	JoinsSkipped int64 `json:"joins_skipped"` // joins that left their right input unevaluated: the left one was empty
	NodesBuilt   int64 `json:"nodes_built"`   // XML nodes the evaluations constructed
	OpsShared    int64 `json:"ops_shared"`    // operator outputs taken from another group's evaluation
	Builds       int64 `json:"builds"`        // plan (re)compilations
}

// SetModePolicy installs the policy Replan consults (nil: manual
// SetGroupModes control only). It may be called at any time.
func (e *Engine) SetModePolicy(p ModePolicy) {
	e.mu.Lock()
	e.policy = p
	e.mu.Unlock()
}

// SeedGroupMode pre-assigns a mode to a group signature. A group that
// already exists is re-targeted (it rebuilds at the next flush); a group
// that does not exist yet adopts the mode at creation. The shard layer
// uses the seeding half for restart adoption: persisted planner
// decisions replay before the application re-registers its triggers.
func (e *Engine) SeedGroupMode(sig string, m Mode) error {
	if !m.Valid() {
		return fmt.Errorf("core: unknown mode %d", m)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seedModes == nil {
		e.seedModes = map[string]Mode{}
	}
	e.seedModes[sig] = m
	if g, ok := e.groups[sig]; ok && g.mode != m {
		g.mode = m
		e.dirty = true
		e.dirtyGroups[sig] = true
	}
	return nil
}

// SeededModes returns the seed-mode map (for fleet replication: Grow
// replays it onto new shards). The returned map is a copy.
func (e *Engine) SeededModes() map[string]Mode {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]Mode, len(e.seedModes))
	for sig, m := range e.seedModes {
		out[sig] = m
	}
	return out
}

// GroupSigs returns all trigger-group signatures, sorted.
func (e *Engine) GroupSigs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := append([]string(nil), e.order...)
	sort.Strings(out)
	return out
}

// GroupMode returns the group's current translation mode.
func (e *Engine) GroupMode(sig string) (Mode, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	g, ok := e.groups[sig]
	if !ok {
		return 0, false
	}
	return g.mode, true
}

// GroupStats samples every group's counters. It takes the metadata read
// lock only — never a table lock — so a /metrics scrape or /snapshot does
// not queue behind an open batch.
func (e *Engine) GroupStats() []GroupStat {
	e.mu.RLock()
	defer e.mu.RUnlock()
	stats := make([]GroupStat, 0, len(e.order))
	for _, sig := range e.order {
		g := e.groups[sig]
		stats = append(stats, GroupStat{
			Sig:          sig,
			Mode:         g.mode,
			ModeName:     g.mode.String(),
			Members:      len(g.members),
			Fires:        g.stats.fires.Load(),
			EvalNS:       g.stats.evalNS.Load(),
			DeltaRows:    g.stats.deltaRows.Load(),
			Activations:  g.stats.activations.Load(),
			RowsReused:   g.stats.rowsReused.Load(),
			JoinsSkipped: g.stats.joinsSkipped.Load(),
			NodesBuilt:   g.stats.nodesBuilt.Load(),
			OpsShared:    g.stats.opsShared.Load(),
			Builds:       g.stats.builds.Load(),
		})
	}
	return stats
}

// ModeChange records one group's mode transition for callers and events.
type ModeChange struct {
	Sig      string `json:"sig"`
	From, To Mode   `json:"-"`
	FromName string `json:"from"`
	ToName   string `json:"to"`
}

// ModeSwitch is a prepared, not-yet-installed mode migration: the new
// plans are compiled (including any materialized snapshots, evaluated
// while the switch's silent transaction holds every table's write lock)
// but nothing is installed. Commit installs everything atomically
// against the plan cache; Abort discards the builds and leaves the
// engine byte-identical — no SQL trigger, index, snapshot, or counter
// visible to queries has changed. The sharded engine prepares one
// ModeSwitch per shard and commits them in its two-phase step.
type ModeSwitch struct {
	e       *Engine
	h       *BatchHandle
	builds  map[string]*groupBuild
	changes []ModeChange
	seeds   map[string]Mode
	done    bool
}

// PrepareGroupModes compiles the plan builds that would move each listed
// group to its target mode. Groups already in their target mode are
// skipped; signatures with no live group become seed modes at Commit
// (restart adoption). On error everything compiled so far is discarded
// and the engine is untouched.
//
// Lock protocol: the engine's global order is the metadata lock before
// table locks (every statement path acquires its table footprint while
// holding e.mu), so the switch takes e.mu first, then write-locks every
// table — and HOLDS BOTH until Commit or Abort. The window is exactly a
// Flush's critical section stretched across the two-phase step: the data
// the prepared snapshots saw cannot change, no trigger can register, and
// a fleet coordinator can prepare every shard before committing any.
func (e *Engine) PrepareGroupModes(target map[string]Mode) (*ModeSwitch, error) {
	for sig, m := range target { //quark:sorted validation only: any order rejects the same bad entry set
		if !m.Valid() {
			return nil, fmt.Errorf("core: unknown mode %d for group %q", m, sig)
		}
	}
	e.mu.Lock()
	if err := e.flushLocked(); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	unlock := e.acquireLocks(allOf(e.lockOrder), nil)
	h := &BatchHandle{e: e, tx: e.db.Begin(), unlock: unlock}
	if m := e.obsp.Load(); m != nil {
		h.span = m.reg.StartSpan("modeswitch")
	}
	abort := func() {
		_ = h.Rollback()
		e.mu.Unlock()
	}
	if err := h.SetSilent(); err != nil {
		abort()
		return nil, err
	}
	sw := &ModeSwitch{e: e, h: h, builds: map[string]*groupBuild{}, seeds: map[string]Mode{}}
	sigs := make([]string, 0, len(target))
	for sig := range target {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		m := target[sig]
		g, ok := e.groups[sig]
		if !ok {
			sw.seeds[sig] = m
			continue
		}
		if g.mode == m {
			continue
		}
		b, err := e.compileGroup(g, m)
		if err != nil {
			abort()
			return nil, fmt.Errorf("core: preparing mode switch of group %q to %s: %w", sig, m, err)
		}
		sw.builds[sig] = b
		sw.changes = append(sw.changes, ModeChange{
			Sig: sig, From: g.mode, To: m,
			FromName: g.mode.String(), ToName: m.String(),
		})
	}
	return sw, nil
}

// Changes lists the transitions this switch will install (empty when
// every target was already current).
func (sw *ModeSwitch) Changes() []ModeChange { return sw.changes }

// Commit installs the prepared builds atomically: old SQL triggers drop,
// new ones install, the groups adopt their new modes, and the read-set
// tables recompute — all under the metadata and table locks the prepare
// has been holding, then the silent transaction commits (firing
// nothing) and everything releases. Seed-only signatures land in the
// seed map. The prepare's locks guarantee the groups are exactly as
// compiled: no trigger registered or dropped in between.
func (sw *ModeSwitch) Commit() error {
	if sw.done {
		return fmt.Errorf("core: mode switch already finished")
	}
	sw.done = true
	e := sw.e
	defer e.mu.Unlock()
	if len(sw.seeds) > 0 && e.seedModes == nil {
		e.seedModes = map[string]Mode{}
	}
	for sig, m := range sw.seeds {
		e.seedModes[sig] = m
	}
	sigs := make([]string, 0, len(sw.builds))
	for sig := range sw.builds {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		b := sw.builds[sig]
		g, ok := e.groups[sig]
		if !ok {
			continue // unreachable under the held locks; defensive
		}
		if err := e.installGroup(g, b); err != nil {
			_ = sw.h.Rollback()
			return fmt.Errorf("core: installing mode switch of group %q: %w", sig, err)
		}
	}
	e.recomputeReadSets()
	if err := sw.h.Commit(); err != nil {
		return err
	}
	if m := e.obsp.Load(); m != nil {
		for _, c := range sw.changes {
			m.reg.Emit("mode.switch", map[string]string{
				"sig": c.Sig, "from": c.FromName, "to": c.ToName,
			})
		}
	}
	return nil
}

// Abort discards the prepared builds and rolls the silent transaction
// back, releasing the prepare's locks. The engine is byte-identical to
// before the prepare: compilation had no side effects, and the snapshot
// evaluations were pure reads.
func (sw *ModeSwitch) Abort() error {
	if sw.done {
		return fmt.Errorf("core: mode switch already finished")
	}
	sw.done = true
	defer sw.e.mu.Unlock()
	return sw.h.Rollback()
}

// SetGroupModes migrates the listed groups to their target modes in one
// atomic, abort-safe step (prepare + commit).
func (e *Engine) SetGroupModes(target map[string]Mode) ([]ModeChange, error) {
	sw, err := e.PrepareGroupModes(target)
	if err != nil {
		return nil, err
	}
	if err := sw.Commit(); err != nil {
		return nil, err
	}
	return sw.changes, nil
}

// SetGroupMode migrates one group.
func (e *Engine) SetGroupMode(sig string, m Mode) error {
	_, err := e.SetGroupModes(map[string]Mode{sig: m})
	return err
}

// Replan consults the installed policy with fresh GroupStats and applies
// whatever mode changes it decides, returning them (nil when the policy
// is absent or content). This is the single-engine form of the shard
// layer's fleet-wide replan.
func (e *Engine) Replan() ([]ModeChange, error) {
	e.mu.RLock()
	p := e.policy
	e.mu.RUnlock()
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
	if m := e.obsp.Load(); m != nil && len(changes) > 0 {
		m.reg.Emit("replan", map[string]string{"switches": fmt.Sprint(len(changes))})
	}
	return changes, nil
}
