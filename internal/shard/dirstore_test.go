package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"quark/internal/core"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

func randState(rng *rand.Rand) DirState {
	st := DirState{Shards: 1 + rng.Intn(16), Dir: map[string]int{}, Assign: map[string]int{}}
	for i := rng.Intn(40); i > 0; i-- {
		st.Dir[fmt.Sprintf("t%d\x003:\x00i%d", rng.Intn(3), rng.Intn(1000))] = rng.Intn(st.Shards)
	}
	for i := rng.Intn(20); i > 0; i-- {
		st.Assign[fmt.Sprintf("t%d\x003:\x00i%d", rng.Intn(3), rng.Intn(1000))] = rng.Intn(st.Shards)
	}
	return st
}

// TestDirStoreRoundTrip is the persistence property test: random states
// checkpoint and reopen identical, with and without random delta frames
// replayed on top.
func TestDirStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		dir := t.TempDir()
		s, _, err := OpenDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := randState(rng)
		if err := s.Checkpoint(want); err != nil {
			t.Fatal(err)
		}
		// Half the iterations append random deltas after the checkpoint.
		if iter%2 == 1 {
			for f := rng.Intn(5); f > 0; f-- {
				var ops []DirOp
				for o := 1 + rng.Intn(4); o > 0; o-- {
					op := DirOp{Key: fmt.Sprintf("t%d\x003:\x00i%d", rng.Intn(3), rng.Intn(1000))}
					switch rng.Intn(5) {
					case 0:
						op.Op, op.Shard = OpSet, rng.Intn(want.Shards)
					case 1:
						op.Op = OpDel
					case 2:
						op.Op, op.Shard = OpAssign, rng.Intn(want.Shards)
					case 3:
						op.Op = OpUnassign
					default:
						op.Op, op.Shard = OpShards, 1+rng.Intn(16)
					}
					ops = append(ops, op)
				}
				s.AppendDelta(ops)
				applyOps(&want, ops)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, got, err := OpenDirStore(dir)
		if err != nil {
			t.Fatalf("iter %d: reopen: %v", iter, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: reopened state diverges:\nwant %+v\ngot  %+v", iter, want, got)
		}
	}
}

// TestDirStoreTornDeltaTail: a kill mid-append leaves a torn final frame;
// reopening must apply the complete prefix, truncate the torn tail, and
// keep appending from the truncation point.
func TestDirStoreTornDeltaTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendDelta([]DirOp{{Op: OpSet, Key: "a", Shard: 1}})
	s.AppendDelta([]DirOp{{Op: OpAssign, Key: "g", Shard: 2}, {Op: OpShards, Shard: 4}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, dirDeltaName)
	whole, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: a prefix of a third frame lands on disk.
	torn := append(append([]byte(nil), whole...), outbox.Frame(encodeDelta([]DirOp{{Op: OpSet, Key: "b", Shard: 3}}))[:5]...)
	if err := os.WriteFile(deltaPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, st, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if st.Dir["a"] != 1 || st.Assign["g"] != 2 || st.Shards != 4 {
		t.Fatalf("complete prefix not applied: %+v", st)
	}
	if _, ok := st.Dir["b"]; ok {
		t.Fatal("torn frame applied")
	}
	if b, _ := os.ReadFile(deltaPath); len(b) != len(whole) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(b), len(whole))
	}
	// Appending after recovery lands complete frames after the survivors.
	s2.AppendDelta([]DirOp{{Op: OpSet, Key: "c", Shard: 0}})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st3, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Dir["c"] != 0 || st3.Dir["a"] != 1 {
		t.Fatalf("post-recovery append lost: %+v", st3)
	}
}

// TestDirStoreZeroFilledDeltaTail: a crash that extended the delta log's
// size without its data leaves zeros, which read as empty frames. Reopening
// truncates them like a torn frame instead of failing to decode them.
func TestDirStoreZeroFilledDeltaTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendDelta([]DirOp{{Op: OpSet, Key: "a", Shard: 1}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, dirDeltaName)
	whole, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deltaPath, append(whole, make([]byte, 16)...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, st, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("reopen over zero-filled tail: %v", err)
	}
	defer s2.Close()
	if st.Dir["a"] != 1 {
		t.Fatalf("complete prefix not applied: %+v", st)
	}
	if b, _ := os.ReadFile(deltaPath); len(b) != len(whole) {
		t.Fatalf("zero-filled tail not truncated: %d bytes, want %d", len(b), len(whole))
	}
}

// TestDirStoreStaleDeltaReplay: a kill between the checkpoint rename and
// the delta truncation leaves stale deltas beside the new checkpoint;
// replaying them on top must be an exact no-op (the checkpoint already
// contains their final effect).
func TestDirStoreStaleDeltaReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ops := []DirOp{{Op: OpSet, Key: "a", Shard: 1}, {Op: OpAssign, Key: "g", Shard: 2}}
	s.AppendDelta(ops)
	want := DirState{Shards: 3, Dir: map[string]int{"a": 1}, Assign: map[string]int{"g": 2}}
	if err := s.Checkpoint(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-create the pre-truncation delta file: the checkpoint has renamed
	// but the truncate never happened.
	if err := os.WriteFile(filepath.Join(dir, dirDeltaName), outbox.Frame(encodeDelta(ops)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale replay diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestDirStoreCorruptCheckpoint: a checkpoint failing its CRC surfaces
// ErrDirCorrupt (the caller's cue to rebuild from the stores).
func TestDirStoreCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(DirState{Shards: 2, Dir: map[string]int{"a": 1}, Assign: map[string]int{}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, dirCkptName)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDirStore(dir); !errors.Is(err, ErrDirCorrupt) && err == nil {
		t.Fatalf("corrupt checkpoint opened cleanly")
	}
}

// TestEngineDirectoryCheckpointRoundTrip: the engine's live snapshots,
// checkpointed and reopened from disk, come back identical — including
// after a rebalance moved a group off its hash slot.
func TestEngineDirectoryCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, err := New(catalogSchema(t), Config{
		Shards: 4,
		Mode:   core.ModeGrouped,
		Routing: []TableRouting{
			{Table: "product", ByColumns: []string{"pname"}},
			{Table: "vendor", ViaParent: "product"},
		},
		Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"))
	mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0), row("Bestbuy", "P2", 180.0))
	from := e.GroupOwner("product", xdm.Str("CRT 15"))
	to := (from + 1) % 4
	if _, err := e.Rebalance(Plan{Moves: []GroupMove{{Table: "product", Key: GroupKey(xdm.Str("CRT 15")), To: to}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckpointDirectory(); err != nil {
		t.Fatal(err)
	}
	wantDir, wantAssign := e.Router().DirSnapshot(), e.Router().AssignSnapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || !reflect.DeepEqual(st.Dir, wantDir) || !reflect.DeepEqual(st.Assign, wantAssign) {
		t.Fatalf("checkpointed state diverges from live snapshots:\nwant dir %v assign %v\ngot %+v", wantDir, wantAssign, st)
	}
}

// TestEngineRestartAdoption: reopening an engine over a persisted
// directory and reloading the same base data (parents first) lands every
// row back on its pre-restart shard — including a group a rebalance had
// moved off its hash slot — and passes the full directory invariant.
func TestEngineRestartAdoption(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 4,
		Mode:   core.ModeGrouped,
		Routing: []TableRouting{
			{Table: "product", ByColumns: []string{"pname"}},
			{Table: "vendor", ViaParent: "product"},
		},
		Dir: dir,
	}
	products := []reldb.Row{row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"), row("P3", "CRT 15", "Viewsonic")}
	vendors := []reldb.Row{row("Amazon", "P1", 100.0), row("Bestbuy", "P2", 180.0), row("Newegg", "P3", 90.0)}

	e, err := New(catalogSchema(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "product", products...)
	mustInsert(t, e, "vendor", vendors...)
	from := e.GroupOwner("product", xdm.Str("CRT 15"))
	to := (from + 1) % 4
	if _, err := e.Rebalance(Plan{Moves: []GroupMove{{Table: "product", Key: GroupKey(xdm.Str("CRT 15")), To: to}}}); err != nil {
		t.Fatal(err)
	}
	wantDir := e.Router().DirSnapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := New(catalogSchema(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.GroupOwner("product", xdm.Str("CRT 15")); got != to {
		t.Fatalf("adopted group placement %d, want %d", got, to)
	}
	mustInsert(t, e2, "product", products...)
	mustInsert(t, e2, "vendor", vendors...)
	if gotDir := e2.Router().DirSnapshot(); !reflect.DeepEqual(gotDir, wantDir) {
		t.Fatalf("reloaded rows landed differently:\nwant %v\ngot  %v", wantDir, gotDir)
	}
	if err := e2.VerifyDirectory(); err != nil {
		t.Fatal(err)
	}
	// The rebalanced group's rows are physically on the destination shard.
	if n := e2.Shard(to).DB().RowCount("product"); n != 2 {
		t.Fatalf("destination shard holds %d product rows, want 2 (the CRT 15 group)", n)
	}
}

// TestEngineRebuildDirectory: after a corrupt checkpoint, wiping the
// files and rebuilding from the stores reconstructs a directory and
// assignment set consistent with the data (rebalanced placements become
// the rebuilt truth — every group pins where its rows live).
func TestEngineRebuildDirectory(t *testing.T) {
	e := newCatalogEngine(t, 4)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"))
	mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0))
	from := e.GroupOwner("product", xdm.Str("CRT 15"))
	to := (from + 1) % 4
	if _, err := e.Rebalance(Plan{Moves: []GroupMove{{Table: "product", Key: GroupKey(xdm.Str("CRT 15")), To: to}}}); err != nil {
		t.Fatal(err)
	}
	want := e.Router().DirSnapshot()
	// Simulate the recovery path: throw the in-memory state away and
	// reconstruct from the stores alone.
	e.Router().adopt(map[string]int{}, map[string]int{})
	if err := e.RebuildDirectory(); err != nil {
		t.Fatal(err)
	}
	if got := e.Router().DirSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt directory diverges:\nwant %v\ngot  %v", want, got)
	}
	if got := e.GroupOwner("product", xdm.Str("CRT 15")); got != to {
		t.Fatalf("rebuilt placement %d, want %d", got, to)
	}
	if err := e.VerifyDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestShardModesLegacyFile: a Config.Dir that still holds the per-group
// mode file older versions persisted (modes.ckpt, here naming the retired
// mode 2, MATERIALIZED and a value no version ever wrote) opens without
// error, and every group on every shard comes up in Config.Mode.
func TestShardModesLegacyFile(t *testing.T) {
	for _, mode := range core.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			const sig = `m|view("m")/p|UPDATE|<none>|notify,NEW_NODE` // the watch trigger's group
			dir := t.TempDir()
			old, err := json.Marshal(map[string]int{sig: 2, "other": 3, "some group": 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "modes.ckpt"), outbox.Frame(old), 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := New(catalogSchema(t), Config{
				Shards: 2,
				Mode:   mode,
				Routing: []TableRouting{
					{Table: "product", ByColumns: []string{"pname"}},
					{Table: "vendor", ViaParent: "product"},
				},
				Dir: dir,
			})
			if err != nil {
				t.Fatalf("opening a directory with a legacy modes.ckpt: %v", err)
			}
			defer e.Close()
			fired := 0
			e.RegisterAction("notify", func(core.Invocation) error { fired++; return nil })
			if err := e.CreateView("m", `<m>{for $q in view('default')/product/row return <p name={$q/pname} mfr={$q/mfr}></p>}</m>`); err != nil {
				t.Fatal(err)
			}
			if err := e.CreateTrigger(`CREATE TRIGGER watch AFTER UPDATE ON view('m')/p DO notify(NEW_NODE)`); err != nil {
				t.Fatal(err)
			}
			if sigs := e.GroupSigs(); len(sigs) != 1 || sigs[0] != sig {
				t.Fatalf("group signatures %q, want the one the legacy file names", sigs)
			}
			for i := 0; i < e.NumShards(); i++ {
				for _, gs := range e.Shard(i).GroupStats() {
					if gs.Mode != mode {
						t.Errorf("shard %d: group %q came up %v, want %v", i, gs.Sig, gs.Mode, mode)
					}
				}
			}
			mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "LG"))
			for _, pid := range []string{"P1", "P2"} {
				if _, err := e.UpdateByPK("product", []xdm.Value{xdm.Str(pid)}, func(r reldb.Row) reldb.Row {
					r[2] = xdm.Str("ACME")
					return r
				}); err != nil {
					t.Fatal(err)
				}
			}
			if fired != 2 {
				t.Errorf("fired %d, want 2", fired)
			}
		})
	}
}
