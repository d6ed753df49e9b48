package shard

import (
	"fmt"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

// Tx is one distributed transaction: an open core.BatchHandle per shard
// plus a directory overlay. Mutations route exactly like their statement
// counterparts — a row whose routing key leaves its shard migrates inside
// the transaction — and commit fires each shard's merged deltas in shard
// order (each shard's own firing is storage-key ordered, giving the
// deterministic (shard, storage-key) activation order the conformance
// suite pins down). A Tx is not safe for concurrent use.
type Tx struct {
	e   *Engine
	dbs []*reldb.DB // fleet snapshot taken at begin (see Engine.fleet)
	hs  []*core.BatchHandle
	ov  *dirOps
	// barrier, when set, runs between prepare-all and commit-all (the
	// rebalance crash tests' seam; see Engine.SetRebalanceBarrier).
	barrier func()
}

// Insert routes each row to its owner (overlay-aware, so a parent
// inserted earlier in this transaction resolves) and inserts it there.
func (tx *Tx) Insert(table string, rows ...reldb.Row) error {
	rt, err := tx.e.router.route(table)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(rt.def.Columns) {
			return tx.hs[0].Tx().Insert(table, row) // canonical arity error
		}
		k := pkKeyOf(rt, row)
		o := tx.e.router.ownerForRow(rt, row, tx.ov)
		if cur, ok := tx.e.router.lookup(table, k, tx.ov); ok && cur != o {
			// Fleet-wide PK uniqueness: the owning reldb only sees its own
			// rows, so a cross-shard duplicate is the router's to reject.
			return fmt.Errorf("shard: duplicate primary key in table %s (row exists on shard %d)", table, cur)
		}
		if err := tx.hs[o].Tx().Insert(table, row); err != nil {
			return err
		}
		tx.ov.record(dirKey(table, k), o)
		if rt.parent == "" {
			tx.ov.assign(groupKeyOf(rt, row), o)
		}
	}
	return nil
}

// UpdateByPK updates one row wherever it lives, migrating it (and its
// co-located subtree) when the post-image belongs to another shard. set
// must be pure: it is probed against a copy to compute the post-image.
func (tx *Tx) UpdateByPK(table string, key []xdm.Value, set func(reldb.Row) reldb.Row) (bool, error) {
	rt, err := tx.e.router.route(table)
	if err != nil {
		return false, err
	}
	pk := xdm.TupleKey(key)
	owner, ok := tx.e.router.lookup(table, pk, tx.ov)
	if !ok {
		return false, nil
	}
	cur, found, err := tx.dbs[owner].GetByPK(table, key...)
	if err != nil || !found {
		return false, err
	}
	return tx.updateRow(rt, owner, cur.Copy(), set)
}

// updateRow applies one row's update on shard owner: in place when the
// post-image stays, as a cross-shard migration otherwise. cur must be a
// private copy of the current row.
func (tx *Tx) updateRow(rt *route, owner int, cur reldb.Row, set func(reldb.Row) reldb.Row) (bool, error) {
	next := set(cur.Copy())
	if len(next) != len(rt.def.Columns) {
		return tx.hs[owner].Tx().UpdateByPK(rt.def.Name, pkVals(rt, cur), set)
	}
	newOwner := tx.e.router.ownerForRow(rt, next, tx.ov)
	oldKey := pkKeyOf(rt, cur)
	if nk := pkKeyOf(rt, next); nk != oldKey {
		// Fleet-wide PK uniqueness on PK moves: the destination shard's
		// reldb only detects collisions with its own rows.
		if cur, ok := tx.e.router.lookup(rt.def.Name, nk, tx.ov); ok && cur != newOwner {
			return false, fmt.Errorf("shard: duplicate primary key in table %s (row exists on shard %d)", rt.def.Name, cur)
		}
	}
	if newOwner == owner {
		changed, err := tx.hs[owner].Tx().UpdateByPK(rt.def.Name, pkVals(rt, cur), set)
		if err == nil && changed {
			if nk := pkKeyOf(rt, next); nk != oldKey {
				tx.ov.remove(dirKey(rt.def.Name, oldKey))
				tx.ov.record(dirKey(rt.def.Name, nk), owner)
			}
			if rt.parent == "" {
				tx.ov.assign(groupKeyOf(rt, next), owner)
			}
		}
		return changed, err
	}
	if err := tx.migrate(owner, newOwner, rt, cur, next); err != nil {
		return false, err
	}
	return true, nil
}

// Update applies a predicate update across every shard. All shards are
// scanned for matches BEFORE any row is touched, so a row migrating into
// a later shard is never double-processed.
func (tx *Tx) Update(table string, pred func(reldb.Row) bool, set func(reldb.Row) reldb.Row) (int, error) {
	rt, err := tx.e.router.route(table)
	if err != nil {
		return 0, err
	}
	type match struct {
		shard int
		row   reldb.Row
	}
	var matches []match
	for si := range tx.hs {
		if err := tx.dbs[si].Scan(table, func(r reldb.Row) bool {
			if pred(r) {
				matches = append(matches, match{si, r.Copy()})
			}
			return true
		}); err != nil {
			return 0, err
		}
	}
	n := 0
	for _, m := range matches {
		if _, err := tx.updateRow(rt, m.shard, m.row, set); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Delete applies a predicate delete on every shard, dropping the deleted
// rows' directory entries.
func (tx *Tx) Delete(table string, pred func(reldb.Row) bool) (int, error) {
	rt, err := tx.e.router.route(table)
	if err != nil {
		return 0, err
	}
	n := 0
	for si := range tx.hs {
		var keys []string
		if err := tx.dbs[si].Scan(table, func(r reldb.Row) bool {
			if pred(r) {
				keys = append(keys, pkKeyOf(rt, r))
			}
			return true
		}); err != nil {
			return 0, err
		}
		if len(keys) == 0 {
			continue
		}
		removed, err := tx.hs[si].Tx().Delete(table, pred)
		if err != nil {
			return n, err
		}
		n += removed
		for _, k := range keys {
			tx.ov.remove(dirKey(table, k))
		}
	}
	return n, nil
}

// DeleteByPK deletes one row from its owning shard.
func (tx *Tx) DeleteByPK(table string, key ...xdm.Value) (bool, error) {
	if _, err := tx.e.router.route(table); err != nil {
		return false, err
	}
	pk := xdm.TupleKey(key)
	owner, ok := tx.e.router.lookup(table, pk, tx.ov)
	if !ok {
		return false, nil
	}
	removed, err := tx.hs[owner].Tx().DeleteByPK(table, key...)
	if err == nil && removed {
		tx.ov.remove(dirKey(table, pk))
	}
	return removed, err
}

// migrate moves one row from shard `from` to shard `to` inside the open
// transaction: the row's pre-image (and, when its referenced key columns
// are unchanged, the co-located subtree hanging off it) is deleted on the
// old shard child-first and the post-image (plus subtree) inserted on the
// new shard parent-first. Each side's net deltas then equal the global
// statement's change restricted to that shard, which is what keeps
// view-level events identical to single-engine execution.
func (tx *Tx) migrate(from, to int, rt *route, oldRow, newRow reldb.Row) error {
	type node struct {
		rt  *route
		row reldb.Row // pre-image on the old shard
		ins reldb.Row // row to insert on the new shard
	}
	nodes := []node{{rt: rt, row: oldRow, ins: newRow}}
	visited := map[string]bool{dirKey(rt.def.Name, pkKeyOf(rt, oldRow)): true}

	// The subtree follows only if the migrating row still owns it: if the
	// update changed the columns its children reference, the children now
	// dangle (exactly as they would on a single engine) and stay put.
	refsUnchanged := true
	for _, cr := range rt.children {
		for _, ri := range cr.refIdx {
			if !xdm.Equal(oldRow[ri], newRow[ri]) {
				refsUnchanged = false
			}
		}
	}
	if refsUnchanged {
		// Breadth-first over the FK-children graph, parent before child.
		for i := 0; i < len(nodes); i++ {
			cur := nodes[i]
			for _, cr := range cur.rt.children {
				crt, err := tx.e.router.route(cr.table)
				if err != nil {
					return err
				}
				refVals := make([]xdm.Value, len(cr.refIdx))
				for j, ri := range cr.refIdx {
					refVals[j] = cur.row[ri]
				}
				var kids []reldb.Row
				if err := tx.dbs[from].Scan(cr.table, func(r reldb.Row) bool {
					for j, fi := range cr.fkIdx {
						if !xdm.Equal(r[fi], refVals[j]) {
							return true
						}
					}
					kids = append(kids, r.Copy())
					return true
				}); err != nil {
					return err
				}
				for _, kid := range kids {
					k := dirKey(cr.table, pkKeyOf(crt, kid))
					if visited[k] {
						return fmt.Errorf("shard: cycle in foreign-key children while migrating %s", rt.def.Name)
					}
					visited[k] = true
					nodes = append(nodes, node{rt: crt, row: kid, ins: kid})
				}
			}
		}
	}

	// Delete child-first on the old shard.
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := nodes[i]
		if _, err := tx.hs[from].Tx().DeleteByPK(nd.rt.def.Name, pkVals(nd.rt, nd.row)...); err != nil {
			return err
		}
	}
	// Insert parent-first on the new shard, re-pointing the directory.
	for _, nd := range nodes {
		if err := tx.hs[to].Tx().Insert(nd.rt.def.Name, nd.ins); err != nil {
			return err
		}
		oldK := dirKey(nd.rt.def.Name, pkKeyOf(nd.rt, nd.row))
		newK := dirKey(nd.rt.def.Name, pkKeyOf(nd.rt, nd.ins))
		// Record BOTH sides, even when the key is unchanged: the fold
		// applies deletes before sets, so the set entry wins for a same-PK
		// migration (see dirOps.record).
		tx.ov.remove(oldK)
		tx.ov.record(newK, to)
		if nd.rt.parent == "" {
			tx.ov.assign(groupKeyOf(nd.rt, nd.ins), to)
		}
	}
	return nil
}

// commit drives the two-phase protocol. Phase 1 prepares every shard in
// shard order: FK/PK checks already passed at mutation time, each shard
// computes its merged net deltas, evaluates its trigger conditions, and
// stages the resulting invocation set — nothing is delivered. Any prepare
// error rolls EVERY shard back and discards the directory overlay, so a
// mid-fleet failure leaves fleet and directory byte-identical to their
// pre-transaction state (the partial-commit window the non-two-phase
// protocol had is closed). Phase 2 commits every shard: the staged
// deliveries run in shard order, each shard's in log order. A delivery
// error in phase 2 can no longer unwind state anywhere — the remaining
// shards still commit (their data and the single-engine AFTER-trigger
// contract both demand it), the full overlay folds, and the first error
// surfaces to the caller.
func (tx *Tx) commit() error {
	for si, h := range tx.hs {
		if err := h.Prepare(); err != nil {
			tx.rollback()
			return fmt.Errorf("shard %d prepare: %w", si, err)
		}
	}
	if tx.barrier != nil {
		tx.barrier()
	}
	var firstErr error
	for si, h := range tx.hs {
		if err := h.Commit(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d commit: %w", si, err)
		}
	}
	tx.e.router.commit(tx.ov)
	return firstErr
}

// rollback rolls every shard back and discards the directory overlay.
func (tx *Tx) rollback() {
	for _, h := range tx.hs {
		_ = h.Rollback()
	}
}

// pkVals extracts the row's primary-key values.
func pkVals(rt *route, row reldb.Row) []xdm.Value {
	ks := make([]xdm.Value, len(rt.pkIdx))
	for i, c := range rt.pkIdx {
		ks[i] = row[c]
	}
	return ks
}
