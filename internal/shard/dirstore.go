package shard

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"quark/internal/outbox"
)

// Directory persistence: the router's dynamic state — shard count, the
// (table, pk) -> shard directory, and the sticky group assignments — is
// persisted as a checkpoint file plus an append-only delta log, sharing
// the outbox's length+CRC frame format (and, by convention, its
// directory: outbox.Open ignores any file that is not seg-*.log, so the
// two subsystems co-locate their durable state in one place).
//
//	dir.ckpt    ONE frame: the full state at checkpoint time
//	dir.delta   one frame per committed routing change (a distributed
//	            transaction's whole overlay folds as one frame, so the
//	            persisted directory is transaction-atomic)
//
// Crash matrix:
//
//   - kill mid delta append: the torn frame is truncated at open; the
//     directory reverts to the last complete routing change (the data
//     stores are in-memory, so a restart reloads data anyway and the
//     surviving prefix matches everything reloaded up to that point).
//   - kill mid checkpoint: the checkpoint writes to a temp file and
//     renames over dir.ckpt, so the old checkpoint survives.
//   - kill between checkpoint rename and delta truncation: the stale
//     deltas replay on top of the new checkpoint as exact no-ops (the
//     checkpoint already contains their final effect; per-key, the last
//     delta op equals the checkpointed value).
//   - corrupt checkpoint (bad CRC): OpenDirStore fails with ErrDirCorrupt
//     and the caller rebuilds from the stores (Engine.RebuildDirectory).
const (
	dirCkptName  = "dir.ckpt"
	dirDeltaName = "dir.delta"
	dirMagic     = "DIR1"
)

// DirOp codes for delta frames.
const (
	OpSet      = byte(iota) // directory entry: Key -> Shard
	OpDel                   // directory entry removed
	OpAssign                // group assignment: Key -> Shard
	OpUnassign              // group assignment removed
	OpShards                // placement modulus changed to Shard
)

// DirOp is one routing change in a delta frame.
type DirOp struct {
	Op    byte
	Key   string
	Shard int
}

// DirState is the router's full dynamic state, as persisted.
type DirState struct {
	Shards int
	Dir    map[string]int
	Assign map[string]int
}

// ErrDirCorrupt reports an unreadable checkpoint. The state is still
// reconstructible from the shard stores: wipe the files and rebuild via
// Engine.RebuildDirectory.
var ErrDirCorrupt = fmt.Errorf("shard: directory checkpoint corrupt")

// DirStore persists the routing directory in one filesystem directory.
// Appends are best-effort with a sticky error (routing never fails on a
// disk error); Checkpoint surfaces any pending append error.
type DirStore struct {
	dir string

	mu     sync.Mutex
	deltaF *os.File
	err    error // sticky persistence error
}

// OpenDirStore opens (or creates) the persisted directory state under
// dir, returning the reconstructed state: the checkpoint, with every
// complete delta frame replayed on top. A torn delta tail is truncated
// (mirroring the outbox's segment recovery); a checkpoint that fails its
// CRC returns ErrDirCorrupt.
func OpenDirStore(dir string) (*DirStore, DirState, error) {
	st := DirState{Dir: map[string]int{}, Assign: map[string]int{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	s := &DirStore{dir: dir}

	ckptPath := filepath.Join(dir, dirCkptName)
	if b, err := os.ReadFile(ckptPath); err == nil {
		decoded := false
		if _, err := outbox.ScanFrames(b, func(payload []byte) error {
			if decoded {
				return nil // a checkpoint is exactly one frame; ignore trailing junk
			}
			decoded = true
			return decodeCkpt(payload, &st)
		}); err != nil {
			return nil, st, err
		}
		if !decoded && len(b) > 0 {
			return nil, st, ErrDirCorrupt
		}
	} else if !os.IsNotExist(err) {
		return nil, st, err
	}

	deltaPath := filepath.Join(dir, dirDeltaName)
	if b, err := os.ReadFile(deltaPath); err == nil {
		valid, err := outbox.ScanFrames(b, func(payload []byte) error {
			ops, err := decodeDelta(payload)
			if err != nil {
				return err
			}
			applyOps(&st, ops)
			return nil
		})
		if err != nil {
			return nil, st, err
		}
		if valid < int64(len(b)) {
			if err := os.Truncate(deltaPath, valid); err != nil {
				return nil, st, err
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, st, err
	}

	f, err := os.OpenFile(deltaPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, st, err
	}
	s.deltaF = f
	return s, st, nil
}

// AppendDelta appends one frame holding the given routing changes.
// Best-effort: an I/O error is recorded (sticky) and surfaced by the
// next Checkpoint, never propagated into the routing fast path.
func (s *DirStore) AppendDelta(ops []DirOp) {
	if len(ops) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.deltaF == nil {
		return
	}
	if _, err := s.deltaF.Write(outbox.Frame(encodeDelta(ops))); err != nil {
		s.err = err
	}
}

// Checkpoint atomically replaces the checkpoint with st and truncates the
// delta log. Any sticky append error surfaces here (and clears, since the
// checkpoint rewrote the full state the lost deltas described).
func (s *DirStore) Checkpoint(st DirState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	stickyErr := s.err
	ckptPath := filepath.Join(s.dir, dirCkptName)
	tmp := ckptPath + ".tmp"
	if err := os.WriteFile(tmp, outbox.Frame(encodeCkpt(st)), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, ckptPath); err != nil {
		return err
	}
	if s.deltaF != nil {
		if err := s.deltaF.Truncate(0); err != nil {
			return err
		}
		if _, err := s.deltaF.Seek(0, 0); err != nil {
			return err
		}
	}
	s.err = nil
	if stickyErr != nil {
		return fmt.Errorf("shard: directory deltas were lost before this checkpoint repaired the state: %w", stickyErr)
	}
	return nil
}

// Close closes the delta log handle.
func (s *DirStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deltaF == nil {
		return nil
	}
	err := s.deltaF.Close()
	s.deltaF = nil
	return err
}

// --- encoding ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, m := binary.Uvarint(b)
	if m <= 0 || uint64(len(b)-m) < n {
		return "", nil, ErrDirCorrupt
	}
	return string(b[m : m+int(n)]), b[m+int(n):], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	n, m := binary.Uvarint(b)
	if m <= 0 {
		return 0, nil, ErrDirCorrupt
	}
	return n, b[m:], nil
}

func encodeCkpt(st DirState) []byte {
	b := []byte(dirMagic)
	b = binary.AppendUvarint(b, uint64(st.Shards))
	for _, m := range []map[string]int{st.Dir, st.Assign} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendString(b, k)
			b = binary.AppendUvarint(b, uint64(m[k]))
		}
	}
	return b
}

func decodeCkpt(b []byte, st *DirState) error {
	if len(b) < len(dirMagic) || string(b[:len(dirMagic)]) != dirMagic {
		return ErrDirCorrupt
	}
	b = b[len(dirMagic):]
	n, b, err := readUvarint(b)
	if err != nil {
		return err
	}
	st.Shards = int(n)
	for _, m := range []map[string]int{st.Dir, st.Assign} {
		cnt, rest, err := readUvarint(b)
		if err != nil {
			return err
		}
		b = rest
		for i := uint64(0); i < cnt; i++ {
			var k string
			k, b, err = readString(b)
			if err != nil {
				return err
			}
			var sh uint64
			sh, b, err = readUvarint(b)
			if err != nil {
				return err
			}
			m[k] = int(sh)
		}
	}
	return nil
}

func encodeDelta(ops []DirOp) []byte {
	b := binary.AppendUvarint(nil, uint64(len(ops)))
	for _, op := range ops {
		b = append(b, op.Op)
		b = appendString(b, op.Key)
		b = binary.AppendUvarint(b, uint64(op.Shard))
	}
	return b
}

func decodeDelta(b []byte) ([]DirOp, error) {
	cnt, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	ops := make([]DirOp, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		if len(b) < 1 {
			return nil, ErrDirCorrupt
		}
		op := DirOp{Op: b[0]}
		b = b[1:]
		op.Key, b, err = readString(b)
		if err != nil {
			return nil, err
		}
		var sh uint64
		sh, b, err = readUvarint(b)
		if err != nil {
			return nil, err
		}
		op.Shard = int(sh)
		ops = append(ops, op)
	}
	return ops, nil
}

func applyOps(st *DirState, ops []DirOp) {
	for _, op := range ops {
		switch op.Op {
		case OpSet:
			st.Dir[op.Key] = op.Shard
		case OpDel:
			delete(st.Dir, op.Key)
		case OpAssign:
			st.Assign[op.Key] = op.Shard
		case OpUnassign:
			delete(st.Assign, op.Key)
		case OpShards:
			st.Shards = op.Shard
		}
	}
}
