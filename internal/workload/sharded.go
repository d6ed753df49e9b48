package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/shard"
	"quark/internal/xdm"
)

// ShardedSetup is the sharded counterpart of Setup: the same schema,
// data, view, and trigger population over a shard.Engine. With the same
// Params and seed, every shard's union of rows equals the single-engine
// Setup's data exactly (genRows is shared), which is what lets the
// conformance fuzzer compare the two engines op for op.
type ShardedSetup struct {
	Params   Params
	Schema   *schema.Schema
	Engine   *shard.Engine
	ViewSrc  string
	TopNames []string
	// Notifications counts action invocations; atomic because shards can
	// fire concurrently under concurrent writers.
	Notifications atomic.Int64

	rng *rand.Rand
}

// BuildSharded mirrors Build over a sharded engine with n shards. The
// hierarchy partitions by top-level id (the top table routes by its
// primary key; every deeper level follows its foreign key), so each top
// element's whole subtree — the provenance of one view element — lives on
// one shard, the invariant that makes per-shard firing equal global
// firing.
func BuildSharded(p Params, mode core.Mode, n int, seed int64) (*ShardedSetup, error) {
	return BuildShardedDir(p, mode, n, seed, "")
}

// BuildShardedDir is BuildSharded with a directory-persistence path (see
// shard.Config.Dir); empty keeps the routing directory in memory only.
func BuildShardedDir(p Params, mode core.Mode, n int, seed int64, dir string) (*ShardedSetup, error) {
	if p.Depth < 2 {
		return nil, fmt.Errorf("workload: depth must be >= 2")
	}
	s := BuildSchema(p)
	e, err := shard.New(s, shard.Config{Shards: n, Mode: mode, Dir: dir})
	if err != nil {
		return nil, err
	}
	w := &ShardedSetup{Params: p, Schema: s, Engine: e, rng: rand.New(rand.NewSource(seed))}
	if w.TopNames, err = loadRows(p, w.rng, e); err != nil {
		return nil, err
	}
	w.ViewSrc, err = install(e, p, w.TopNames, func(core.Invocation) error {
		w.Notifications.Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// LeafTable returns the leaf table's name.
func (w *ShardedSetup) LeafTable() string { return w.Params.TableName(w.Params.Depth - 1) }

// UpdateLeafOn performs one single-row payload update of the given leaf
// (routed to its owning shard). payload should differ from the current
// value; see the package doc's no-op caveat.
func (w *ShardedSetup) UpdateLeafOn(leafID int64, payload float64) error {
	_, err := w.Engine.UpdateByPK(w.LeafTable(), []xdm.Value{xdm.Int(leafID)}, func(r reldb.Row) reldb.Row {
		r[len(r)-1] = xdm.Float(payload)
		return r
	})
	return err
}
