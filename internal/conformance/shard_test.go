package conformance

import (
	"os"
	"path/filepath"
	"testing"

	"quark/internal/core"
)

// shardCounts are the fleet sizes the sharded conformance suite sweeps.
// N=1 pins the degenerate fleet to the single engine; N=2 and N=4 split
// the catalog's routing groups across shards, exercising distributed
// statements and cross-shard migrations in every scenario that moves
// rows between groups.
var shardCounts = []int{1, 2, 4}

// TestGoldenSharded runs the MATERIALIZED oracle on the sharded engine
// and requires the notification log to be byte-identical to the
// committed single-engine goldens, for every scenario, shard count, and
// execution style: the sharding layer must be observationally invisible.
func TestGoldenSharded(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range shardCounts {
				single, err := RunStyle(sc, core.ModeMaterialized, RunOpts{Shards: n})
				if err != nil {
					t.Fatalf("shards=%d single: %v", n, err)
				}
				batched, err := RunStyle(sc, core.ModeMaterialized, RunOpts{Shards: n, Batched: true})
				if err != nil {
					t.Fatalf("shards=%d batched: %v", n, err)
				}
				got := "== single ==\n" + single + "== batched ==\n" + batched
				if got != string(want) {
					t.Errorf("shards=%d diverges from single-engine golden:\n%s", n, diffText(string(want), got))
				}
			}
		})
	}
}

// TestGoldenShardedRebalance is the rebalance dress rehearsal: every
// scenario replays in every mode on N in {2, 4} shards with one forced
// routing-group migration injected before every unit, in both execution
// styles, and the notification log must STILL be byte-identical to the
// committed single-engine goldens — rebalancing is silent data movement,
// so a stream with migrations interleaved is indistinguishable from one
// without.
func TestGoldenShardedRebalance(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range core.Modes {
				for _, n := range []int{2, 4} {
					single, err := RunStyle(sc, mode, RunOpts{Shards: n, Rebalance: true})
					if err != nil {
						t.Fatalf("%s shards=%d single: %v", mode, n, err)
					}
					batched, err := RunStyle(sc, mode, RunOpts{Shards: n, Batched: true, Rebalance: true})
					if err != nil {
						t.Fatalf("%s shards=%d batched: %v", mode, n, err)
					}
					got := "== single ==\n" + single + "== batched ==\n" + batched
					if got != string(want) {
						t.Errorf("%s shards=%d with rebalances diverges from single-engine golden:\n%s", mode, n, diffText(string(want), got))
					}
				}
			}
		})
	}
}

// TestShardedDifferential requires every translation mode on the sharded
// engine to reproduce the single-engine oracle's log, across shard
// counts, both execution styles, and the async + replayed-outbox delivery
// paths (shared dispatcher / shared log spanning shards).
func TestShardedDifferential(t *testing.T) {
	modes := []core.Mode{core.ModeUngrouped, core.ModeGrouped}
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			oracles := map[bool]string{}
			for _, batched := range []bool{false, true} {
				oracle, err := Run(sc, core.ModeMaterialized, batched)
				if err != nil {
					t.Fatalf("oracle batched=%v: %v", batched, err)
				}
				oracles[batched] = oracle
			}
			for _, n := range shardCounts {
				for _, opts := range []RunOpts{
					{Shards: n}, {Shards: n, Batched: true},
					{Shards: n, Async: true},
					{Shards: n, Batched: true, Async: true, Replayed: true},
				} {
					style := "single"
					if opts.Batched {
						style = "batched"
					}
					if opts.Async {
						style += "+async"
					}
					if opts.Replayed {
						style += "+replayed"
					}
					for _, mode := range modes {
						got, err := RunStyle(sc, mode, opts)
						if err != nil {
							t.Fatalf("shards=%d %s/%s: %v", n, mode, style, err)
						}
						if got != oracles[opts.Batched] {
							t.Errorf("shards=%d %s/%s diverges from oracle:\n%s",
								n, mode, style, diffText(oracles[opts.Batched], got))
						}
					}
				}
			}
		})
	}
}
