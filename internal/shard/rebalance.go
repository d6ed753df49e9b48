package shard

import (
	"fmt"
	"sort"
	"strings"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/trigger"
	"quark/internal/xdm"
)

// Elastic rebalancing: routing GROUPS — a root row plus its co-located
// FK subtree — move between live shards while writers keep committing.
// A move is a silent distributed transaction: the group's rows are
// deleted on the donor and inserted on the recipient under the same
// two-phase protocol ordinary cross-shard statements use, but the firing
// wave is suppressed (reldb.Tx.SetSilent), so data movement produces no
// observable trigger activity — the invocation stream with a rebalance
// interleaved is byte-identical to the stream without it, which is
// exactly what the rebalance fuzzer proves differentially. The directory
// flip (row entries plus the group's sticky assignment) folds atomically
// at commit and persists as one delta frame; an abort leaves fleet and
// directory byte-identical to their pre-transaction state.

// Group is one routing group as reported by Groups: a root table, the
// tuple key of its routing-column values, and its current placement.
type Group struct {
	Table string
	Key   string
	Shard int
}

// GroupMove names one group's destination in a rebalance Plan.
type GroupMove struct {
	// Table is the ROOT table whose group moves.
	Table string
	// Key is the routing tuple key (GroupKey of the routing-column
	// values) naming the group.
	Key string
	// To is the destination shard.
	To int
}

// Plan is a set of group moves applied as ONE distributed transaction:
// either every move commits (and the directory flips atomically) or none
// does. Duplicate entries for the same group are collapsed, last wins.
type Plan struct {
	Moves []GroupMove
}

// GroupKey renders routing-column values as a group key for GroupMove.
func GroupKey(vals ...xdm.Value) string { return xdm.TupleKey(vals) }

// Groups lists every routing group with a sticky assignment, sorted by
// (table, key). Every group that has ever held a row is assigned (the
// statement and transaction paths pin placements on insert), so this is
// the fleet's group inventory; assignments outlive their last row until
// a Shrink or rebalance retires them.
func (e *Engine) Groups() []Group {
	as := e.router.AssignSnapshot()
	out := make([]Group, 0, len(as))
	for k, s := range as {
		i := strings.IndexByte(k, 0)
		if i < 0 {
			continue
		}
		out = append(out, Group{Table: k[:i], Key: k[i+1:], Shard: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// GroupOwner reports which shard a root table's routing group currently
// places on (sticky assignment, or the hash seed for a new group).
func (e *Engine) GroupOwner(table string, vals ...xdm.Value) int {
	return e.router.placeGroup(dirKey(table, xdm.TupleKey(vals)), nil)
}

// SetRebalanceBarrier installs a hook that runs between a rebalance
// transaction's prepare-all and commit-all phases. Crash-recovery tests
// use it to capture the persisted state mid-protocol; production code
// leaves it unset.
func (e *Engine) SetRebalanceBarrier(fn func()) { e.rebalanceBarrier = fn }

// Rebalance applies the plan as one silent distributed transaction and
// reports how many groups actually changed placement. Moves that name a
// group already on its destination only pin the assignment. An error
// rolls every shard back and leaves fleet and directory untouched.
func (e *Engine) Rebalance(p Plan) (int, error) {
	if len(p.Moves) == 0 {
		return 0, nil
	}
	n := e.NumShards()
	// Validate and dedupe (last entry for a group wins), and collect the
	// lock footprint: each moved table plus its transitive FK children,
	// which the subtree migration writes on both shards.
	moves := make([]GroupMove, 0, len(p.Moves))
	seen := map[string]int{}
	tables := map[string]bool{}
	for _, m := range p.Moves {
		rt, err := e.router.route(m.Table)
		if err != nil {
			return 0, err
		}
		if rt.parent != "" {
			return 0, fmt.Errorf("shard: rebalance moves routing groups of root tables; %q routes via parent %q", m.Table, rt.parent)
		}
		if m.To < 0 || m.To >= n {
			return 0, fmt.Errorf("shard: rebalance targets shard %d of %d", m.To, n)
		}
		if i, dup := seen[dirKey(m.Table, m.Key)]; dup {
			moves[i] = m
			continue
		}
		seen[dirKey(m.Table, m.Key)] = len(moves)
		moves = append(moves, m)
		for _, t := range e.router.writeFootprint(m.Table) {
			tables[t] = true
		}
	}
	footprint := make([]string, 0, len(tables))
	for t := range tables {
		footprint = append(footprint, t)
	}
	sort.Strings(footprint)

	tx, err := e.beginAll(footprint)
	if err != nil {
		return 0, err
	}
	tx.barrier = e.rebalanceBarrier
	for _, h := range tx.hs {
		if err := h.SetSilent(); err != nil {
			tx.rollback()
			return 0, err
		}
	}
	moved := 0
	for _, m := range moves {
		rt, _ := e.router.route(m.Table)
		gk := dirKey(m.Table, m.Key)
		// Overlay-aware source: an earlier move in this plan may already
		// have staged the group elsewhere.
		from := e.router.placeGroup(gk, tx.ov)
		if from == m.To {
			tx.ov.assign(gk, m.To) // pin an unassigned-but-correct group
			continue
		}
		if err := tx.moveGroup(rt, gk, from, m.To); err != nil {
			tx.rollback()
			return 0, err
		}
		moved++
	}
	if err := tx.commit(); err != nil {
		return 0, err
	}
	return moved, nil
}

// moveGroup migrates every root row of the group (and, through migrate,
// its co-located subtree) from shard `from` to shard `to` inside the open
// transaction, then points the group's sticky assignment at `to`. A group
// with no rows (a lingering assignment) just moves its assignment.
func (tx *Tx) moveGroup(rt *route, gk string, from, to int) error {
	var roots []reldb.Row
	if err := tx.dbs[from].Scan(rt.def.Name, func(r reldb.Row) bool {
		if groupKeyOf(rt, r) == gk {
			roots = append(roots, r.Copy())
		}
		return true
	}); err != nil {
		return err
	}
	for _, row := range roots {
		if err := tx.migrate(from, to, rt, row, row); err != nil {
			return err
		}
	}
	tx.ov.assign(gk, to)
	return nil
}

// Grow extends the fleet to n shards: fresh engines are built with every
// retained registration replayed (actions, views, triggers), wired into
// the shared dispatcher and outbox when enabled, and appended to the
// topology; then the placement modulus flips and existing groups stream
// to the n-shard hash layout in small chunks — each chunk one rebalance
// transaction, so writers keep committing between chunks and per-trigger
// FIFO and global outbox order are preserved throughout. Finishes with a
// directory checkpoint.
func (e *Engine) Grow(n int) error {
	cur := e.NumShards()
	if n <= cur {
		return fmt.Errorf("shard: Grow(%d) from %d shards", n, cur)
	}
	e.regMu.Lock()
	actions := append([]namedAction(nil), e.actions...)
	views := append([]namedView(nil), e.views...)
	specs := append([]*trigger.Spec(nil), e.trigSpecs...)
	e.regMu.Unlock()
	var newEngines []*core.Engine
	var newDBs []*reldb.DB
	for i := cur; i < n; i++ {
		db, err := reldb.Open(e.schema)
		if err != nil {
			return err
		}
		ce := core.NewEngine(db, e.mode)
		for _, a := range actions {
			ce.RegisterAction(a.name, a.fn)
		}
		for _, v := range views {
			if err := ce.CreateView(v.name, v.src); err != nil {
				return err
			}
		}
		for _, sp := range specs {
			if err := ce.CreateTriggerSpec(sp); err != nil {
				return err
			}
		}
		ce.ShareDelivery(e.Shard(0))
		newEngines = append(newEngines, ce)
		newDBs = append(newDBs, db)
	}
	e.topo.Lock()
	e.engines = append(append([]*core.Engine(nil), e.engines...), newEngines...)
	e.dbs = append(append([]*reldb.DB(nil), e.dbs...), newDBs...)
	e.topo.Unlock()
	e.router.setShards(n)
	if err := e.streamToLayout(n); err != nil {
		return err
	}
	return e.CheckpointDirectory()
}

// Shrink contracts the fleet to n shards: the placement modulus flips
// FIRST (new groups immediately avoid the retiring shards), then every
// group placed on a retiring shard streams to its hash slot under the
// new modulus, chunk by chunk with writers interleaving. Once the
// retiring stores are verified empty and the fleet's queued deliveries
// drained, they drop from the topology, and the directory checkpoints.
func (e *Engine) Shrink(n int) error {
	cur := e.NumShards()
	if n >= cur || n < 1 {
		return fmt.Errorf("shard: Shrink(%d) from %d shards", n, cur)
	}
	e.router.setShards(n)
	for {
		var moves []GroupMove
		for _, g := range e.Groups() {
			if g.Shard >= n {
				moves = append(moves, GroupMove{Table: g.Table, Key: g.Key, To: hashMod(g.Key, n)})
				if len(moves) == rebalanceChunk {
					break
				}
			}
		}
		if len(moves) == 0 {
			break
		}
		if _, err := e.Rebalance(Plan{Moves: moves}); err != nil {
			return err
		}
	}
	_, dbs := e.fleet()
	for k, s := range e.router.DirSnapshot() { //quark:sorted validation only: any order rejects the same bad entry set
		if s >= n {
			return fmt.Errorf("shard: Shrink(%d) left directory entry %q on retiring shard %d", n, k, s)
		}
	}
	for si := n; si < cur; si++ {
		for _, t := range e.schema.Tables() {
			empty := true
			if err := dbs[si].Scan(t.Name, func(reldb.Row) bool {
				empty = false
				return false
			}); err != nil {
				return err
			}
			if !empty {
				return fmt.Errorf("shard: Shrink(%d) left rows of %s on retiring shard %d", n, t.Name, si)
			}
		}
	}
	// The retiring shards share the fleet's delivery: what they queued
	// drains with it, which is left running for the shards that stay.
	e.Drain()
	e.topo.Lock()
	e.engines = append([]*core.Engine(nil), e.engines[:n]...)
	e.dbs = append([]*reldb.DB(nil), e.dbs[:n]...)
	e.topo.Unlock()
	return e.CheckpointDirectory()
}

// rebalanceChunk bounds how many groups one streaming transaction moves,
// so Grow/Shrink never hold the fleet's table locks for the whole
// migration — writers commit between chunks.
const rebalanceChunk = 8

// streamToLayout moves every group not on its n-shard hash slot there,
// one chunk-sized rebalance transaction at a time.
func (e *Engine) streamToLayout(n int) error {
	for {
		var moves []GroupMove
		for _, g := range e.Groups() {
			if target := hashMod(g.Key, n); g.Shard != target {
				moves = append(moves, GroupMove{Table: g.Table, Key: g.Key, To: target})
				if len(moves) == rebalanceChunk {
					break
				}
			}
		}
		if len(moves) == 0 {
			return nil
		}
		if _, err := e.Rebalance(Plan{Moves: moves}); err != nil {
			return err
		}
	}
}

// CheckpointDirectory writes the router's full state as a new checkpoint
// and truncates the delta log; a no-op without a persistence directory.
func (e *Engine) CheckpointDirectory() error {
	if e.store == nil {
		return nil
	}
	return e.store.Checkpoint(e.router.state())
}

// RebuildDirectory reconstructs directory and group assignments from the
// shard stores (the recovery path for a corrupt checkpoint: every row's
// entry points at the shard actually holding it, every root row pins its
// group where it lives) and checkpoints the rebuilt state.
func (e *Engine) RebuildDirectory() error {
	_, dbs := e.fleet()
	dir := map[string]int{}
	assign := map[string]int{}
	for si, db := range dbs {
		for _, t := range e.schema.Tables() {
			rt, err := e.router.route(t.Name)
			if err != nil {
				return err
			}
			if err := db.Scan(t.Name, func(r reldb.Row) bool {
				dir[dirKey(t.Name, pkKeyOf(rt, r))] = si
				if rt.parent == "" {
					assign[groupKeyOf(rt, r)] = si
				}
				return true
			}); err != nil {
				return err
			}
		}
	}
	e.router.adopt(dir, assign)
	return e.CheckpointDirectory()
}

// VerifyDirectory proves the routing metadata consistent with the data:
// every row has a directory entry pointing at the shard holding it and
// every entry has its row (exact both directions); every root row's
// group places on the shard its rows occupy; every assignment targets a
// live shard; and every child row whose parent exists co-locates with
// it. The rebalance fuzzer runs this after every operation.
func (e *Engine) VerifyDirectory() error {
	_, dbs := e.fleet()
	n := len(dbs)
	remaining := e.router.DirSnapshot()
	for gk, s := range e.router.AssignSnapshot() { //quark:sorted validation only: any order rejects the same bad entry set
		if s < 0 || s >= n {
			return fmt.Errorf("shard: assignment %q targets shard %d of %d", gk, s, n)
		}
	}
	for si, db := range dbs {
		for _, t := range e.schema.Tables() {
			rt, err := e.router.route(t.Name)
			if err != nil {
				return err
			}
			var verr error
			if err := db.Scan(t.Name, func(r reldb.Row) bool {
				k := dirKey(t.Name, pkKeyOf(rt, r))
				owner, ok := remaining[k]
				if !ok {
					// Either never recorded or already consumed by an
					// earlier shard holding the same key (a duplicate).
					verr = fmt.Errorf("shard: row %q on shard %d has no (unconsumed) directory entry", k, si)
					return false
				}
				if owner != si {
					verr = fmt.Errorf("shard: row %q lives on shard %d but the directory says %d", k, si, owner)
					return false
				}
				delete(remaining, k)
				if rt.parent == "" {
					if p := e.router.placeGroup(groupKeyOf(rt, r), nil); p != si {
						verr = fmt.Errorf("shard: root row %q on shard %d but its group places on %d", k, si, p)
						return false
					}
				} else {
					ks := make([]xdm.Value, len(rt.fkIdx))
					for i, c := range rt.fkIdx {
						ks[i] = r[c]
					}
					if ps, ok := e.router.lookup(rt.parent, xdm.TupleKey(ks), nil); ok && ps != si {
						verr = fmt.Errorf("shard: child row %q on shard %d but its parent lives on %d", k, si, ps)
						return false
					}
				}
				return true
			}); err != nil {
				return err
			}
			if verr != nil {
				return verr
			}
		}
	}
	if len(remaining) > 0 {
		for k, s := range remaining { //quark:sorted any leftover entry is fatal; which one surfaces first is diagnostic detail
			return fmt.Errorf("shard: directory entry %q -> shard %d has no row", k, s)
		}
	}
	return nil
}
