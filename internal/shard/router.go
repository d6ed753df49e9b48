// Package shard partitions the trigger engine horizontally: a Router
// hash-partitions the data hierarchy's root keys across N embedded engine
// instances — each with its own reldb store, compiled trigger plans, and
// table locks — and a shard.Engine mirrors the core Engine API on top,
// routing single-row statements to the owning shard and running
// cross-shard statements as distributed transactions committed in
// deterministic (shard, storage-key) order.
//
// # Partitioning model
//
// Every table is either a ROOT or a CHILD of the hierarchy:
//
//   - A root table routes each row by the hash of its routing columns
//     (TableRouting.ByColumns; default: the primary key). The routing
//     columns pick the unit of distribution — e.g. the paper's catalog
//     view groups products by NAME, so product routes "by pname" and all
//     products sharing a name land on one shard.
//   - A child table routes each row to the shard of the parent row its
//     foreign key references, resolved through the router's directory.
//     Children therefore always co-locate with their ancestors.
//
// The correctness contract this buys: if the routing columns are chosen
// so that every XML view element's provenance (the base rows any one
// element is computed from) lives on a single shard, then each shard's
// locally-evaluated view is exactly the slice of the global view it owns,
// per-shard trigger firing equals global firing restricted to owned
// elements, and the union of the shards' invocation streams equals the
// single-engine stream (internal/conformance proves this differentially
// and with a seeded fuzzer). Views that aggregate across routing groups
// are outside the contract.
//
// # Row movement
//
// An update that changes a row's routing key (a root's routing column, a
// child's foreign key, directly or via a primary-key move) may change its
// owner. The engine detects this before applying and, when the owner
// changes, executes the statement as a distributed transaction that
// deletes the row (and, for a root whose referenced key is unchanged, its
// co-located subtree) on the old shard and inserts the post-image on the
// new one. Net transition tables on each side then show exactly the
// global change restricted to that shard's elements, so view-level events
// still come out identical to the single-engine execution.
//
// # Directory
//
// The router maintains an in-memory directory mapping (table, primary
// key) -> shard for every row routed through the sharded engine. Child
// inserts resolve their parent through it, so parents must be inserted
// before children; a child whose parent is unknown routes by the hash of
// its foreign-key value (a deterministic orphan placement).
//
// Concurrency contract: statements that touch the same routing GROUP —
// the same row, a row and its ancestors, or a row and a statement that
// changes an ancestor's routing key — must be serialized by the
// application. The router resolves ownership from the directory before a
// statement takes its shard's locks, so e.g. a child insert racing its
// parent's cross-shard migration can target the parent's previous shard
// and fail there. Statements on disjoint routing groups need no external
// coordination, which is the sharding win; the precheck is not
// transactional across groups, matching the usual contract of
// hash-sharded stores.
package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"quark/internal/schema"
	"quark/internal/xdm"
)

// TableRouting overrides how one table routes.
type TableRouting struct {
	// Table is the table the entry configures.
	Table string
	// ByColumns makes the table a root: rows route by the hash of these
	// columns' values. Mutually exclusive with ViaParent.
	ByColumns []string
	// ViaParent makes the table a child of the named parent table: rows
	// route to the shard owning the parent row their foreign key
	// references.
	ViaParent string
}

// route is one table's resolved routing rule.
type route struct {
	def   *schema.Table
	pkIdx []int
	// Root tables: byIdx are the routed column indexes.
	byIdx []int
	// Child tables: parent is the parent table, fkIdx the foreign-key
	// column indexes in this table referencing the parent's primary key.
	parent string
	fkIdx  []int
	// children are the tables routing via this one (subtree migration).
	children []childRef
}

type childRef struct {
	table  string
	fkIdx  []int // FK column indexes in the child
	refIdx []int // referenced column indexes in this (parent) table
}

// Router owns the partitioning function: static per-table routing rules
// plus two pieces of dynamic state — the (table, primary key) -> shard
// directory, and the sticky (root table, routing tuple) -> shard group
// assignment. The hash of a root's routing columns only SEEDS a new
// group's placement; once placed, the group's assignment is authoritative
// until a Rebalance moves it. That decoupling is what makes the shard
// count elastic: changing the placement modulus (Grow/Shrink) never
// implicitly moves an existing group, and a rebalanced group never
// "snaps back" to its hash slot on its next write.
type Router struct {
	routes map[string]*route

	mu     sync.RWMutex
	n      int            // placement modulus (changes under Grow/Shrink)
	dir    map[string]int // table + "\x00" + pk tuple-key -> shard
	assign map[string]int // root table + "\x00" + routing tuple-key -> shard
	store  *DirStore      // nil: in-memory only; else every change appends a delta
}

// NewRouter resolves the routing rules for every table of the schema.
// Tables without an explicit TableRouting entry default to: child via the
// first foreign key's referenced table, or root by primary key when the
// table has no foreign keys. Every routed table must have a primary key,
// and a child's foreign key must reference its parent's primary key
// (that is what the directory is keyed by).
func NewRouter(s *schema.Schema, n int, overrides []TableRouting) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	ov := map[string]TableRouting{}
	for _, o := range overrides {
		ov[o.Table] = o
	}
	r := &Router{n: n, routes: map[string]*route{}, dir: map[string]int{}, assign: map[string]int{}}
	for _, t := range s.Tables() {
		if len(t.PrimaryKey) == 0 {
			return nil, fmt.Errorf("shard: table %q has no primary key; sharding routes rows by key", t.Name)
		}
		rt := &route{def: t, pkIdx: t.PKIndexes()}
		spec, hasSpec := ov[t.Name]
		switch {
		case hasSpec && len(spec.ByColumns) > 0 && spec.ViaParent != "":
			return nil, fmt.Errorf("shard: table %q declares both ByColumns and ViaParent", t.Name)
		case hasSpec && len(spec.ByColumns) > 0:
			for _, c := range spec.ByColumns {
				ci := t.ColIndex(c)
				if ci < 0 {
					return nil, fmt.Errorf("shard: table %q has no routing column %q", t.Name, c)
				}
				rt.byIdx = append(rt.byIdx, ci)
			}
		case hasSpec && spec.ViaParent != "":
			fk, err := fkTo(t, spec.ViaParent)
			if err != nil {
				return nil, err
			}
			rt.parent = spec.ViaParent
			rt.fkIdx = fkIdx(t, fk)
		case len(t.ForeignKeys) > 0:
			rt.parent = t.ForeignKeys[0].RefTable
			rt.fkIdx = fkIdx(t, t.ForeignKeys[0])
		default:
			rt.byIdx = append([]int(nil), rt.pkIdx...)
		}
		r.routes[t.Name] = rt
	}
	// Validate parent links and build the child lists for migration.
	// Child lists drive subtree-migration order, so build them from a
	// sorted walk rather than raw map iteration.
	names := make([]string, 0, len(r.routes))
	for name := range r.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rt := r.routes[name]
		if rt.parent == "" {
			continue
		}
		prt, ok := r.routes[rt.parent]
		if !ok {
			return nil, fmt.Errorf("shard: table %q routes via unknown parent %q", name, rt.parent)
		}
		fk, err := fkTo(rt.def, rt.parent)
		if err != nil {
			return nil, err
		}
		if !sameStrings(fk.RefColumns, prt.def.PrimaryKey) {
			return nil, fmt.Errorf("shard: table %q's foreign key to %q must reference its primary key", name, rt.parent)
		}
		refIdx := make([]int, len(fk.RefColumns))
		for i, c := range fk.RefColumns {
			refIdx[i] = prt.def.ColIndex(c)
		}
		prt.children = append(prt.children, childRef{table: name, fkIdx: rt.fkIdx, refIdx: refIdx})
	}
	return r, nil
}

func fkTo(t *schema.Table, parent string) (schema.ForeignKey, error) {
	for _, fk := range t.ForeignKeys {
		if fk.RefTable == parent {
			return fk, nil
		}
	}
	return schema.ForeignKey{}, fmt.Errorf("shard: table %q has no foreign key to %q", t.Name, parent)
}

func fkIdx(t *schema.Table, fk schema.ForeignKey) []int {
	out := make([]int, len(fk.Columns))
	for i, c := range fk.Columns {
		out[i] = t.ColIndex(c)
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Shards returns the placement modulus (the live shard count).
func (r *Router) Shards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// setShards changes the placement modulus. Existing groups keep their
// sticky assignments — only NEW groups hash against the new count — so
// the flip is safe while data is still mid-migration.
func (r *Router) setShards(n int) {
	r.mu.Lock()
	r.n = n
	r.appendDeltaLocked([]DirOp{{Op: OpShards, Shard: n}})
	r.mu.Unlock()
}

func (r *Router) route(table string) (*route, error) {
	rt, ok := r.routes[table]
	if !ok {
		return nil, fmt.Errorf("shard: unknown table %q", table)
	}
	return rt, nil
}

// pkKeyOf renders the row's primary-key tuple key.
func pkKeyOf(rt *route, row []xdm.Value) string {
	ks := make([]xdm.Value, len(rt.pkIdx))
	for i, c := range rt.pkIdx {
		ks[i] = row[c]
	}
	return xdm.TupleKey(ks)
}

func dirKey(table, pkKey string) string { return table + "\x00" + pkKey }

// groupKeyOf renders a root-table row's routing-group key: the table name
// plus the tuple key of its routing-column values. It is the assignment
// map's key and the Key a rebalance Plan names a group by.
func groupKeyOf(rt *route, row []xdm.Value) string {
	ks := make([]xdm.Value, len(rt.byIdx))
	for i, c := range rt.byIdx {
		ks[i] = row[c]
	}
	return dirKey(rt.def.Name, xdm.TupleKey(ks))
}

// hashKey maps a canonical key string to a shard.
func (r *Router) hashKey(s string) int {
	r.mu.RLock()
	n := r.n
	r.mu.RUnlock()
	return hashMod(s, n)
}

func hashMod(s string, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211 // FNV-1a 64
	}
	return int(h % uint64(n))
}

// dirOps is the uncommitted directory overlay of one distributed
// transaction: lookups consult it before the committed directory, and
// commit folds it in atomically once every shard's prepare succeeded
// (an aborted transaction discards it untouched — under the two-phase
// protocol the directory either folds completely or not at all).
type dirOps struct {
	set map[string]int
	del map[string]struct{}
	// aset records group assignments the transaction places or moves
	// (sticky placement of new groups, destination of a rebalance).
	aset map[string]int
}

func newDirOps() *dirOps {
	return &dirOps{set: map[string]int{}, del: map[string]struct{}{}, aset: map[string]int{}}
}

// record notes a row's (new) owner. An existing del entry for the same
// key is kept: a same-PK cross-shard migration is del on one shard AND
// set on another, and the fold applies deletes before sets, so the set
// side wins.
func (o *dirOps) record(key string, shard int) {
	o.set[key] = shard
}

func (o *dirOps) remove(key string) {
	delete(o.set, key)
	o.del[key] = struct{}{}
}

// assign records a routing group's (new) placement in the overlay.
func (o *dirOps) assign(groupKey string, shard int) {
	o.aset[groupKey] = shard
}

// lookup finds a row's recorded shard, overlay first.
func (r *Router) lookup(table, pkKey string, ov *dirOps) (int, bool) {
	k := dirKey(table, pkKey)
	if ov != nil {
		if s, ok := ov.set[k]; ok {
			return s, true
		}
		if _, gone := ov.del[k]; gone {
			return 0, false
		}
	}
	r.mu.RLock()
	s, ok := r.dir[k]
	r.mu.RUnlock()
	return s, ok
}

// ownerForRow computes which shard owns the given (post-image) row: root
// tables place by sticky group assignment (hash of the routing columns
// only seeds a NEW group); child tables resolve the referenced parent
// through the directory, falling back to the parent group's placement
// when the parent row is unknown (deterministic orphan placement that
// still co-locates with the parent once it arrives — insert parents
// before children to co-locate through the directory proper).
func (r *Router) ownerForRow(rt *route, row []xdm.Value, ov *dirOps) int {
	if rt.parent == "" {
		return r.placeGroup(groupKeyOf(rt, row), ov)
	}
	ks := make([]xdm.Value, len(rt.fkIdx))
	for i, c := range rt.fkIdx {
		ks[i] = row[c]
	}
	parentKey := xdm.TupleKey(ks)
	if s, ok := r.lookup(rt.parent, parentKey, ov); ok {
		return s
	}
	// Orphan fallback: place where the parent itself would. When the
	// parent is a root routed by its primary key, the FK value IS its
	// routing tuple, so the orphan follows the parent group's sticky
	// assignment (or its hash seed) and parent + orphan converge on one
	// shard even across rebalances.
	if prt, ok := r.routes[rt.parent]; ok && prt.parent == "" && sameInts(prt.byIdx, prt.pkIdx) {
		return r.placeGroup(dirKey(rt.parent, parentKey), ov)
	}
	return r.hashKey(parentKey)
}

// placeGroup resolves a routing group's shard: overlay assignment, then
// the committed assignment, then — for a brand-new group — the hash of
// the routing tuple (the part of the group key after the table prefix,
// matching the pre-elastic placement function exactly).
func (r *Router) placeGroup(groupKey string, ov *dirOps) int {
	if ov != nil {
		if s, ok := ov.aset[groupKey]; ok {
			return s
		}
	}
	r.mu.RLock()
	s, ok := r.assign[groupKey]
	n := r.n
	r.mu.RUnlock()
	if ok {
		return s
	}
	seed := groupKey
	if i := strings.IndexByte(groupKey, 0); i >= 0 {
		seed = groupKey[i+1:]
	}
	return hashMod(seed, n)
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// record installs a committed row's owner.
func (r *Router) record(table, pkKey string, shard int) {
	r.mu.Lock()
	r.dir[dirKey(table, pkKey)] = shard
	r.appendDeltaLocked([]DirOp{{Op: OpSet, Key: dirKey(table, pkKey), Shard: shard}})
	r.mu.Unlock()
}

// recordAssign installs a committed group assignment, skipping the write
// (and its delta frame) when the placement is already recorded.
func (r *Router) recordAssign(groupKey string, shard int) {
	r.mu.Lock()
	if s, ok := r.assign[groupKey]; !ok || s != shard {
		r.assign[groupKey] = shard
		r.appendDeltaLocked([]DirOp{{Op: OpAssign, Key: groupKey, Shard: shard}})
	}
	r.mu.Unlock()
}

// forget drops a committed row's directory entry.
func (r *Router) forget(table, pkKey string) {
	r.mu.Lock()
	delete(r.dir, dirKey(table, pkKey))
	r.appendDeltaLocked([]DirOp{{Op: OpDel, Key: dirKey(table, pkKey)}})
	r.mu.Unlock()
}

// rekey moves a committed row's entry to a new primary key.
func (r *Router) rekey(table, oldKey, newKey string, shard int) {
	r.mu.Lock()
	delete(r.dir, dirKey(table, oldKey))
	r.dir[dirKey(table, newKey)] = shard
	r.appendDeltaLocked([]DirOp{
		{Op: OpDel, Key: dirKey(table, oldKey)},
		{Op: OpSet, Key: dirKey(table, newKey), Shard: shard},
	})
	r.mu.Unlock()
}

// commit folds a transaction's overlay into the committed directory,
// deletes first so a migration's set side lands last, then the group
// assignments. Under the two-phase protocol it is only called after
// every shard committed its data, so the fold is always total — and it
// persists as ONE delta frame, so the persisted directory is atomic per
// transaction (a kill replays either none or all of a commit's routing
// changes). An aborted transaction never folds.
func (r *Router) commit(ov *dirOps) {
	r.mu.Lock()
	ops := make([]DirOp, 0, len(ov.del)+len(ov.set)+len(ov.aset))
	for _, k := range sortedKeys(ov.del) {
		delete(r.dir, k)
		ops = append(ops, DirOp{Op: OpDel, Key: k})
	}
	for _, k := range sortedKeyInts(ov.set) {
		r.dir[k] = ov.set[k]
		ops = append(ops, DirOp{Op: OpSet, Key: k, Shard: ov.set[k]})
	}
	for _, k := range sortedKeyInts(ov.aset) {
		if s, ok := r.assign[k]; ok && s == ov.aset[k] {
			continue
		}
		r.assign[k] = ov.aset[k]
		ops = append(ops, DirOp{Op: OpAssign, Key: k, Shard: ov.aset[k]})
	}
	if len(ops) > 0 {
		r.appendDeltaLocked(ops)
	}
	r.mu.Unlock()
}

// appendDeltaLocked streams routing changes to the persistence store (a
// no-op for an in-memory router). Persistence errors are sticky on the
// store and surface at the next checkpoint — routing itself never fails
// on a disk error, matching the outbox's best-effort auto-compaction
// stance.
func (r *Router) appendDeltaLocked(ops []DirOp) {
	if r.store != nil {
		r.store.AppendDelta(ops)
	}
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeyInts(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeFootprint returns the tables a distributed statement on table may
// write: the table itself plus its transitive FK children (a routing-key
// change migrates the row's co-located subtree, which writes the child
// tables on both shards).
func (r *Router) writeFootprint(table string) []string {
	out := []string{table}
	seen := map[string]bool{table: true}
	for i := 0; i < len(out); i++ {
		rt := r.routes[out[i]]
		if rt == nil {
			continue
		}
		for _, cr := range rt.children {
			if !seen[cr.table] {
				seen[cr.table] = true
				out = append(out, cr.table)
			}
		}
	}
	return out
}

// DirSize reports the number of directory entries (for stats).
func (r *Router) DirSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.dir)
}

// DirSnapshot returns a copy of the routing directory, keyed by
// table + "\x00" + primary-key tuple key. Tests and consistency checkers
// use it to prove an aborted transaction left the directory untouched and
// that every entry agrees with the shard actually holding the row.
func (r *Router) DirSnapshot() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.dir))
	for k, s := range r.dir {
		out[k] = s
	}
	return out
}

// AssignSnapshot returns a copy of the sticky group-assignment map, keyed
// by root table + "\x00" + routing tuple key.
func (r *Router) AssignSnapshot() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.assign))
	for k, s := range r.assign {
		out[k] = s
	}
	return out
}

// state snapshots the router's full dynamic state for a checkpoint.
func (r *Router) state() DirState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := DirState{Shards: r.n, Dir: make(map[string]int, len(r.dir)), Assign: make(map[string]int, len(r.assign))}
	for k, s := range r.dir {
		st.Dir[k] = s
	}
	for k, s := range r.assign {
		st.Assign[k] = s
	}
	return st
}

// adopt replaces the router's dynamic state wholesale (restart from a
// persisted directory, or a rebuild from the stores). The store is not
// written — callers checkpoint explicitly afterwards.
func (r *Router) adopt(dir, assign map[string]int) {
	r.mu.Lock()
	r.dir = dir
	r.assign = assign
	r.mu.Unlock()
}

// attachStore wires the persistence store; every later directory change
// appends a delta to it.
func (r *Router) attachStore(s *DirStore) {
	r.mu.Lock()
	r.store = s
	r.mu.Unlock()
}
