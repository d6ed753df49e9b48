package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/shard"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// checkDirPersistence proves the persisted directory round-trips: the
// state reconstructed from the checkpoint + delta files on disk must
// equal the router's live state, after every operation. Opening a second
// DirStore over the engine's live directory is safe — reads see only
// complete frames because ops apply serially here.
func checkDirPersistence(t *testing.T, i int, seed int64, e *shard.Engine, dir string) {
	t.Helper()
	s, st, err := shard.OpenDirStore(dir)
	if err != nil {
		t.Fatalf("op %d: reopening directory store: %v [replay: -seed %d]", i, err, seed)
	}
	_ = s.Close()
	if st.Shards != e.Router().Shards() {
		t.Fatalf("op %d: persisted shard count %d, live %d [replay: -seed %d]", i, st.Shards, e.Router().Shards(), seed)
	}
	if live := e.Router().DirSnapshot(); !reflect.DeepEqual(st.Dir, live) {
		t.Fatalf("op %d: persisted directory diverges from live (%d vs %d entries) [replay: -seed %d]",
			i, len(st.Dir), len(live), seed)
	}
	if live := e.Router().AssignSnapshot(); !reflect.DeepEqual(st.Assign, live) {
		t.Fatalf("op %d: persisted assignments diverge from live (%d vs %d entries) [replay: -seed %d]",
			i, len(st.Assign), len(live), seed)
	}
}

// TestShardFuzzRebalance is the elastic-rebalancing differential fuzzer:
// a seeded stream with rebalance ops interleaved runs against a fleet
// that GROWS 4 -> 16 a third of the way in and SHRINKS 16 -> 6 at two
// thirds, while the single-engine oracle sees the same stream with every
// rebalance ignored. Every op's invocation set and per-trigger delivery
// order must match the oracle exactly (zero missed, duplicated, or
// spurious invocations — data movement is observationally invisible),
// and after EVERY op the directory-consistency invariant
// (Engine.VerifyDirectory) and the persistence round-trip (state on disk
// == live state) are re-proved. Runs sync, async, and outbox delivery.
func TestShardFuzzRebalance(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 128, Fanout: 16, NumTriggers: 16, NumSatisfied: 2}
	sp := workload.DefaultStream(*fuzzOps)
	sp.RebalanceFrac = 0.12
	for _, style := range []fuzzStyle{fuzzSync, fuzzAsync, fuzzOutbox} {
		t.Run(style.String(), func(t *testing.T) {
			seed := *fuzzSeed
			t.Logf("replay with: go test ./internal/conformance -run TestShardFuzzRebalance -seed %d -fuzzops %d", seed, *fuzzOps)
			fuzzRebalance(t, p, sp, style, seed)
		})
	}
}

func fuzzRebalance(t *testing.T, p workload.Params, sp workload.StreamParams, style fuzzStyle, seed int64) {
	t.Helper()
	ops, err := workload.GenStream(p, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	rebalances := 0
	for _, op := range ops {
		if op.Rebalance != nil {
			rebalances++
		}
	}
	if rebalances == 0 {
		t.Fatalf("stream has no rebalance ops; the run would prove nothing [replay: -seed %d]", seed)
	}

	oracle, err := workload.Build(p, core.ModeGrouped, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sharded, err := workload.BuildShardedDir(p, core.ModeGrouped, 4, seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	var oCap, sCap capture
	oracle.Engine.RegisterAction("notify", oCap.action)
	sharded.Engine.RegisterAction("notify", sCap.action)

	oDrain, sDrain := func() {}, func() {}
	var sLog *outbox.Log
	switch style {
	case fuzzAsync, fuzzOutbox:
		cfg := dispatch.Config{Workers: 4, QueueCap: 256, Policy: dispatch.Block}
		if err := oracle.Engine.EnableAsyncDispatch(cfg); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Engine.EnableAsyncDispatch(cfg); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = oracle.Engine.Close() }()
		defer func() { _ = sharded.Engine.Close() }()
		oDrain, sDrain = oracle.Engine.Drain, sharded.Engine.Drain
		if style == fuzzOutbox {
			// The outbox co-locates with the directory files: outbox.Open
			// ignores dir.ckpt / dir.delta, DirStore never reads seg-*.log.
			sLog, err = outbox.Open(dir, outbox.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer sLog.Close()
			if err := sharded.Engine.EnableOutbox(sLog, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	tables := []string{p.TableName(0), p.TableName(1)}
	growAt, shrinkAt := len(ops)/3, 2*len(ops)/3
	for i, op := range ops {
		switch i {
		case growAt:
			if err := sharded.Engine.Grow(16); err != nil {
				t.Fatalf("op %d: Grow(16): %v [replay: -seed %d]", i, err, seed)
			}
		case shrinkAt:
			if err := sharded.Engine.Shrink(6); err != nil {
				t.Fatalf("op %d: Shrink(6): %v [replay: -seed %d]", i, err, seed)
			}
		}
		if err := workload.ApplyOp(oracle.Engine, p, op); err != nil {
			t.Fatalf("op %d (%+v) on oracle: %v [replay: -seed %d]", i, op, err, seed)
		}
		oDrain()
		if err := workload.ApplyOp(sharded.Engine, p, op); err != nil {
			t.Fatalf("op %d (%+v) on sharded: %v [replay: -seed %d]", i, op, err, seed)
		}
		sDrain()
		want, got := oCap.take(), sCap.take()
		if sortedJoin(want) != sortedJoin(got) {
			t.Fatalf("op %d (%+v) diverges [replay: -seed %d]:\noracle:\n  %s\nsharded:\n  %s",
				i, op, seed, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
		}
		wantSeq, gotSeq := perTrigger(want), perTrigger(got)
		for trig, ws := range wantSeq {
			if strings.Join(ws, "\n") != strings.Join(gotSeq[trig], "\n") {
				t.Fatalf("op %d: trigger %s delivery order diverges [replay: -seed %d]:\noracle:\n  %s\nsharded:\n  %s",
					i, trig, seed, strings.Join(ws, "\n  "), strings.Join(gotSeq[trig], "\n  "))
			}
		}
		if err := sharded.Engine.VerifyDirectory(); err != nil {
			t.Fatalf("op %d (%+v): %v [replay: -seed %d]", i, op, err, seed)
		}
		checkDirPersistence(t, i, seed, sharded.Engine, dir)
	}
	if n := sharded.Engine.NumShards(); n != 6 {
		t.Fatalf("fleet ended at %d shards, want 6 [replay: -seed %d]", n, seed)
	}
	checkFleetAgainstOracle(t, len(ops), seed, oracle, sharded, tables)
	if sLog != nil {
		sharded.Engine.Drain()
		st := sLog.Stats()
		if st.Acked != st.NextSeq-1 {
			t.Errorf("sharded outbox: acked %d of %d appended [replay: -seed %d]", st.Acked, st.NextSeq-1, seed)
		}
	}
	t.Logf("%d ops (%d rebalances), fleet 4 -> 16 -> 6", len(ops), rebalances)
}

// TestShardGrowShrink is the grow-shrink smoke: a plain stream (no
// rebalance ops) with the fleet grown 4 -> 8 a third of the way in and
// shrunk back 8 -> 4 at two thirds, differentially against the oracle,
// with the directory invariant checked after every op.
func TestShardGrowShrink(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 128, Fanout: 16, NumTriggers: 16, NumSatisfied: 2}
	sp := workload.DefaultStream(*fuzzOps)
	seed := *fuzzSeed
	ops, err := workload.GenStream(p, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := workload.Build(p, core.ModeGrouped, seed)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := workload.BuildSharded(p, core.ModeGrouped, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	var oCap, sCap capture
	oracle.Engine.RegisterAction("notify", oCap.action)
	sharded.Engine.RegisterAction("notify", sCap.action)
	tables := []string{p.TableName(0), p.TableName(1)}
	for i, op := range ops {
		switch i {
		case len(ops) / 3:
			if err := sharded.Engine.Grow(8); err != nil {
				t.Fatalf("op %d: Grow(8): %v [replay: -seed %d]", i, err, seed)
			}
		case 2 * len(ops) / 3:
			if err := sharded.Engine.Shrink(4); err != nil {
				t.Fatalf("op %d: Shrink(4): %v [replay: -seed %d]", i, err, seed)
			}
		}
		if err := workload.ApplyOp(oracle.Engine, p, op); err != nil {
			t.Fatalf("op %d on oracle: %v [replay: -seed %d]", i, err, seed)
		}
		if err := workload.ApplyOp(sharded.Engine, p, op); err != nil {
			t.Fatalf("op %d on sharded: %v [replay: -seed %d]", i, err, seed)
		}
		if want, got := sortedJoin(oCap.take()), sortedJoin(sCap.take()); want != got {
			t.Fatalf("op %d diverges [replay: -seed %d]:\noracle:\n%s\nsharded:\n%s", i, seed, want, got)
		}
		if err := sharded.Engine.VerifyDirectory(); err != nil {
			t.Fatalf("op %d: %v [replay: -seed %d]", i, err, seed)
		}
	}
	if n := sharded.Engine.NumShards(); n != 4 {
		t.Fatalf("fleet ended at %d shards, want 4", n)
	}
	checkFleetAgainstOracle(t, len(ops), seed, oracle, sharded, tables)
}

// TestShardRebalanceAbortIdentical proves an aborted rebalance leaves the
// fleet AND the directory byte-identical: a prepare failure armed on one
// shard must fail the whole plan with no row moved, no directory entry
// touched, and no assignment changed; disarmed, the same plan applies.
func TestShardRebalanceAbortIdentical(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 64, Fanout: 8, NumTriggers: 8, NumSatisfied: 2}
	sharded, err := workload.BuildSharded(p, core.ModeGrouped, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded.Engine.RegisterAction("notify", func(core.Invocation) error { return nil })
	groups := sharded.Engine.Groups()
	if len(groups) < 3 {
		t.Fatalf("expected at least 3 routing groups, have %d", len(groups))
	}
	n := sharded.Engine.NumShards()
	plan := shard.Plan{}
	for _, g := range groups[:3] {
		plan.Moves = append(plan.Moves, shard.GroupMove{Table: g.Table, Key: g.Key, To: (g.Shard + 1) % n})
	}
	tables := []string{p.TableName(0), p.TableName(1)}
	pre := fleetState(sharded.Engine, tables)
	preAssign := sharded.Engine.Router().AssignSnapshot()

	sharded.Engine.Shard(2).SetPrepareCheck(func([]core.Invocation) error { return errInjected })
	if _, err := sharded.Engine.Rebalance(plan); err == nil {
		t.Fatal("armed prepare failure did not abort the rebalance")
	}
	sharded.Engine.Shard(2).SetPrepareCheck(nil)
	if post := fleetState(sharded.Engine, tables); post != pre {
		t.Fatalf("aborted rebalance left partial state:\n--- before ---\n%s\n--- after ---\n%s", pre, post)
	}
	if postAssign := sharded.Engine.Router().AssignSnapshot(); !reflect.DeepEqual(preAssign, postAssign) {
		t.Fatal("aborted rebalance changed group assignments")
	}

	moved, err := sharded.Engine.Rebalance(plan)
	if err != nil {
		t.Fatalf("disarmed rebalance: %v", err)
	}
	if moved != 3 {
		t.Fatalf("disarmed rebalance moved %d groups, want 3", moved)
	}
	for _, m := range plan.Moves {
		if got := sharded.Engine.GroupOwner(m.Table, xdm.Int(rootIDForKey(t, p, m.Key))); got != m.To {
			t.Fatalf("group %q owned by shard %d after rebalance, want %d", m.Key, got, m.To)
		}
	}
	if err := sharded.Engine.VerifyDirectory(); err != nil {
		t.Fatal(err)
	}
}

// rootIDForKey recovers which top-table id a group key names (the
// workload's top table routes by its integer primary key).
func rootIDForKey(t *testing.T, p workload.Params, key string) int64 {
	t.Helper()
	for id := int64(0); id < int64(p.NumTop()); id++ {
		if shard.GroupKey(xdm.Int(id)) == key {
			return id
		}
	}
	t.Fatalf("group key %q names no known root", key)
	return 0
}

// snapshotDirFiles copies the directory-persistence files' raw bytes —
// the "disk image" a kill at that instant would leave behind.
func snapshotDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{"dir.ckpt", "dir.delta"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		out[name] = append([]byte(nil), b...)
	}
	return out
}

// TestShardRebalanceKillMidCommit kills a rebalance between its prepare
// and commit phases (the barrier seam) and proves the crash image on
// disk is byte-identical to the pre-rebalance state: the directory flip
// happens at commit, so a process that dies mid-protocol recovers to the
// old placement with every row still addressable. It then reopens the
// COMMITTED directory in a fresh engine and proves restart adoption
// lands every reloaded row back on its post-rebalance shard.
func TestShardRebalanceKillMidCommit(t *testing.T) {
	p := workload.Params{Depth: 2, LeafTuples: 64, Fanout: 8, NumTriggers: 8, NumSatisfied: 2}
	dir := t.TempDir()
	sharded, err := workload.BuildShardedDir(p, core.ModeGrouped, 4, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	sharded.Engine.RegisterAction("notify", func(core.Invocation) error { return nil })

	groups := sharded.Engine.Groups()
	if len(groups) == 0 {
		t.Fatal("no routing groups")
	}
	g := groups[0]
	to := (g.Shard + 1) % sharded.Engine.NumShards()

	pre := snapshotDirFiles(t, dir)
	var crash map[string][]byte
	sharded.Engine.SetRebalanceBarrier(func() { crash = snapshotDirFiles(t, dir) })
	moved, err := sharded.Engine.Rebalance(shard.Plan{Moves: []shard.GroupMove{{Table: g.Table, Key: g.Key, To: to}}})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved %d groups, want 1", moved)
	}
	if crash == nil {
		t.Fatal("rebalance barrier never fired")
	}
	// The kill-mid-protocol image is byte-identical to the pre-rebalance
	// files: nothing about the move persists until commit.
	for _, name := range []string{"dir.ckpt", "dir.delta"} {
		if !bytes.Equal(pre[name], crash[name]) {
			t.Fatalf("%s changed before commit: %d bytes -> %d bytes", name, len(pre[name]), len(crash[name]))
		}
	}
	// A recovery from the crash image reconstructs the pre-rebalance
	// placement exactly.
	crashDir := t.TempDir()
	for name, b := range crash {
		if err := os.WriteFile(filepath.Join(crashDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := shard.OpenDirStore(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Assign[g.Table+"\x00"+g.Key] != g.Shard {
		t.Fatalf("crash image places group on shard %d, want pre-rebalance %d", st.Assign[g.Table+"\x00"+g.Key], g.Shard)
	}

	// Restart adoption from the COMMITTED directory: a fresh engine over
	// the live files (same seed reloads the same base data) must land the
	// moved group on its destination and pass the full invariant.
	if err := sharded.Engine.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := workload.BuildShardedDir(p, core.ModeGrouped, 4, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Engine.GroupOwner(g.Table, xdm.Int(rootIDForKey(t, p, g.Key))); got != to {
		t.Fatalf("reopened engine places moved group on shard %d, want %d", got, to)
	}
	if err := reopened.Engine.VerifyDirectory(); err != nil {
		t.Fatal(err)
	}
}
