package conformance

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"quark/internal/core"
	"quark/internal/shard"
	"quark/internal/workload"
	"quark/internal/xdm"
)

var errInjected = errors.New("conformance: injected failure")

// fleetState renders every shard's rows (sorted per table) plus the
// routing directory as one canonical string, for byte-identical
// before/after comparison around aborted transactions.
func fleetState(e *shard.Engine, tables []string) string {
	var sb strings.Builder
	for si := 0; si < e.NumShards(); si++ {
		db := e.Shard(si).DB()
		for _, tbl := range tables {
			lines := []string{}
			for _, r := range db.AllRows(tbl) {
				lines = append(lines, xdm.TupleKey(r))
			}
			sort.Strings(lines)
			fmt.Fprintf(&sb, "shard %d %s [%d]\n", si, tbl, len(lines))
			for _, l := range lines {
				fmt.Fprintf(&sb, "  %q\n", l)
			}
		}
	}
	dir := e.Router().DirSnapshot()
	keys := make([]string, 0, len(dir))
	for k := range dir {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "dir %q -> %d\n", k, dir[k])
	}
	return sb.String()
}

// checkFleetAgainstOracle requires the fleet's union of rows to equal the
// oracle's, table by table (multiset comparison on canonical row keys).
func checkFleetAgainstOracle(t *testing.T, i int, seed int64, oracle *workload.Setup, sharded *workload.ShardedSetup, tables []string) {
	t.Helper()
	for _, tbl := range tables {
		var want, got []string
		for _, r := range oracle.DB.AllRows(tbl) {
			want = append(want, xdm.TupleKey(r))
		}
		for si := 0; si < sharded.Engine.NumShards(); si++ {
			for _, r := range sharded.Engine.Shard(si).DB().AllRows(tbl) {
				got = append(got, xdm.TupleKey(r))
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("op %d: table %s diverges from oracle (%d rows vs %d) [replay: -seed %d]",
				i, tbl, len(got), len(want), seed)
		}
	}
}

// checkDirectoryInvariant requires the routing directory to agree exactly
// with the rows the shards actually hold: every row's entry points at its
// shard, and there are no entries for rows that do not exist. It runs
// after every op — in particular after every aborted transaction.
func checkDirectoryInvariant(t *testing.T, i int, seed int64, e *shard.Engine, tables []string) {
	t.Helper()
	total := 0
	for _, tbl := range tables {
		for si := 0; si < e.NumShards(); si++ {
			for _, r := range e.Shard(si).DB().AllRows(tbl) {
				total++
				owner, ok := e.OwnerOf(tbl, r[0])
				if !ok {
					t.Fatalf("op %d: directory lost %s row id=%s held by shard %d [replay: -seed %d]",
						i, tbl, r[0].Lexical(), si, seed)
				}
				if owner != si {
					t.Fatalf("op %d: directory says %s id=%s is on shard %d but shard %d holds it [replay: -seed %d]",
						i, tbl, r[0].Lexical(), owner, si, seed)
				}
			}
		}
	}
	if ds := e.Router().DirSize(); ds != total {
		t.Fatalf("op %d: directory holds %d entries for %d rows (stale or missing entries) [replay: -seed %d]",
			i, ds, total, seed)
	}
}

// TestShardFuzzFailureInjection is the failure-injection half of the
// sharded fuzzer: the same seeded stream runs with faults injected into
// the two-phase protocol, and every op must leave the fleet all-or-nothing
// against the single-engine oracle.
//
//   - phase=prepare: every third op arms a prepare-phase failure on a
//     rotating shard k. An op that trips it (any distributed transaction —
//     prepare runs on every shard) must leave all shards AND the routing
//     directory byte-identical to their pre-op state; the op is then
//     replayed for real and must match the oracle.
//   - phase=commit: every third op arms a one-shot action failure. A
//     delivery error during phase 2 must surface WITHOUT unwinding state
//     anywhere: the whole fleet still commits, matching the oracle's
//     AFTER-trigger contract (data stands when an action errs).
//
// After every op the fleet is diffed against the oracle and the directory
// consistency invariant is re-checked.
func TestShardFuzzFailureInjection(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 128, Fanout: 16, NumTriggers: 16, NumSatisfied: 2}
	sp := workload.DefaultStream(*fuzzOps)
	for _, n := range []int{2, 4} {
		for _, phase := range []string{"prepare", "commit"} {
			t.Run(fmt.Sprintf("shards=%d/%s", n, phase), func(t *testing.T) {
				seed := *fuzzSeed
				t.Logf("replay with: go test ./internal/conformance -run TestShardFuzzFailureInjection -seed %d -fuzzops %d", seed, *fuzzOps)
				fuzzFailures(t, p, sp, n, phase, seed)
			})
		}
	}
}

func fuzzFailures(t *testing.T, p workload.Params, sp workload.StreamParams, shards int, phase string, seed int64) {
	t.Helper()
	ops, err := workload.GenStream(p, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := workload.Build(p, core.ModeGrouped, seed)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := workload.BuildSharded(p, core.ModeGrouped, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Engine.RegisterAction("notify", func(core.Invocation) error { return nil })
	// failArm makes the NEXT sharded delivery fail (one-shot), injecting a
	// commit-phase action error.
	var failArm atomic.Bool
	sharded.Engine.RegisterAction("notify", func(core.Invocation) error {
		if failArm.CompareAndSwap(true, false) {
			return errInjected
		}
		return nil
	})

	tables := []string{p.TableName(0), p.TableName(1)}
	injected, aborted := 0, 0
	for i, op := range ops {
		// prepare: arm every op (only distributed transactions prepare, so
		// this aborts-and-retries every one in the stream, on a rotating
		// shard). commit: arm every third op — the one-shot action failure
		// trips on whatever the next delivery is.
		inject := phase == "prepare" || i%3 == 0
		k := i % shards
		if inject {
			switch phase {
			case "prepare":
				sharded.Engine.Shard(k).SetPrepareCheck(func([]core.Invocation) error { return errInjected })
			case "commit":
				failArm.Store(true)
			}
		}
		pre := fleetState(sharded.Engine, tables)
		err := workload.ApplyOp(sharded.Engine, p, op)
		if inject && phase == "prepare" {
			sharded.Engine.Shard(k).SetPrepareCheck(nil)
		}
		failArm.Store(false)
		if err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("op %d (%+v): unexpected error %v [replay: -seed %d]", i, op, err, seed)
			}
			injected++
			if phase == "prepare" {
				aborted++
				// The acceptance bar: an aborted distributed transaction
				// leaves every shard and the directory byte-identical.
				if post := fleetState(sharded.Engine, tables); post != pre {
					t.Fatalf("op %d (%+v): aborted transaction left partial state [replay: -seed %d]:\n--- before ---\n%s\n--- after ---\n%s",
						i, op, seed, pre, post)
				}
				// Retry disarmed: the op must now apply cleanly.
				if err := workload.ApplyOp(sharded.Engine, p, op); err != nil {
					t.Fatalf("op %d (%+v): replay after abort: %v [replay: -seed %d]", i, op, err, seed)
				}
			}
			// phase=commit: the error surfaced but the fleet committed; the
			// oracle comparison below proves it committed COMPLETELY.
		}
		if err := workload.ApplyOp(oracle.Engine, p, op); err != nil {
			t.Fatalf("op %d (%+v) on oracle: %v [replay: -seed %d]", i, op, err, seed)
		}
		checkFleetAgainstOracle(t, i, seed, oracle, sharded, tables)
		checkDirectoryInvariant(t, i, seed, sharded.Engine, tables)
	}
	if injected == 0 {
		t.Fatalf("stream tripped no injected failures; the run proved nothing [replay: -seed %d]", seed)
	}
	t.Logf("%d ops, %d injected failures (%d aborted transactions)", len(ops), injected, aborted)
}
