package outbox

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"quark/internal/wire"
)

// TestZeroFilledTailTruncatedOnOpen: a crash can leave a segment whose size
// reached the disk before its data did, so the tail reads as zeros. An
// all-zero header is a zero-length frame whose CRC (of nothing) is 0; it
// is the torn tail, not a record, and must neither advance the sequence
// nor wedge Replay.
func TestZeroFilledTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := l.Append(rec("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-0000000000000001.log")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(b, make([]byte, 24)...), 0o644); err != nil {
		t.Fatal(err)
	}

	for open := 1; open <= 2; open++ {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		if got := l.NextSeq(); got != 3 {
			t.Fatalf("open %d: NextSeq = %d, want 3", open, got)
		}
		if fi, err := os.Stat(seg); err != nil {
			t.Fatal(err)
		} else if fi.Size() != int64(len(b)) {
			t.Fatalf("open %d: segment kept %d bytes, want its %d valid ones", open, fi.Size(), len(b))
		}
		var seqs []uint64
		n, err := l.Replay(SinkFunc(func(r *wire.Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		}))
		if err != nil {
			t.Fatalf("open %d: replay: %v", open, err)
		}
		want := 2
		if open == 2 {
			want = 0 // the first open's replay acknowledged both
		}
		if n != want || len(seqs) != want {
			t.Fatalf("open %d: replay delivered %d (%v), want %d", open, n, seqs, want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// validFrames is an independent reading of the framing: the payloads of the
// leading run of complete, non-empty frames whose CRCs match, and the byte
// offset where that run ends.
func validFrames(b []byte) (payloads [][]byte, end int) {
	for len(b)-end >= frameHeader {
		n := int(binary.LittleEndian.Uint32(b[end:]))
		if n == 0 || n > len(b)-end-frameHeader {
			break
		}
		p := b[end+frameHeader : end+frameHeader+n]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(b[end+4:]) {
			break
		}
		payloads = append(payloads, p)
		end += frameHeader + n
	}
	return payloads, end
}

// FuzzSegment writes the fuzzer's bytes as a log's only segment and its ack
// file, opens the log and replays it. Open and Replay must never panic; Open
// must keep exactly the valid-frame prefix; Replay must deliver, in order,
// exactly the records of that prefix above the ack watermark and stop with
// an error at the first payload wire.Decode rejects, never deliver it.
func FuzzSegment(f *testing.F) {
	frames := func(recs ...*wire.Record) []byte {
		var b []byte
		for i, r := range recs {
			r.Seq = uint64(i + 1)
			b = append(b, Frame(wire.Encode(r))...)
		}
		return b
	}
	ack := func(seq uint64) []byte { return binary.LittleEndian.AppendUint64(nil, seq) }
	two := frames(rec("t", 1), rec("u", 2))
	f.Add(two, []byte(nil))
	f.Add(append(append([]byte(nil), two...), make([]byte, 24)...), []byte(nil)) // zero-filled tail
	f.Add(two[:len(two)-3], ack(0))                                              // torn frame
	f.Add(frames(rec("t", 1), rec("t", 2), rec("t", 3)), ack(2))
	f.Add(append(append([]byte(nil), two...), Frame([]byte{0xA7, 1, 0})...), ack(1)) // a payload Decode rejects
	f.Add([]byte{}, []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, seg, ackBytes []byte) {
		dir := t.TempDir()
		segPath := filepath.Join(dir, "seg-0000000000000001.log")
		if err := os.WriteFile(segPath, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(ackBytes) > 0 {
			if err := os.WriteFile(filepath.Join(dir, ackFileName), ackBytes, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()

		payloads, end := validFrames(seg)
		var acked uint64
		if len(ackBytes) >= 8 {
			acked = binary.LittleEndian.Uint64(ackBytes)
		}
		wantNext := uint64(len(payloads)) + 1
		if acked >= wantNext {
			wantNext = acked + 1
		}
		if got := l.NextSeq(); got != wantNext {
			t.Fatalf("NextSeq = %d, want %d", got, wantNext)
		}
		if fi, err := os.Stat(segPath); err != nil {
			t.Fatal(err)
		} else if fi.Size() != int64(end) {
			t.Fatalf("segment kept %d bytes, want the %d-byte valid prefix", fi.Size(), end)
		}

		var want []*wire.Record
		rejected := false
		for _, p := range payloads {
			r, err := wire.Decode(p)
			if err != nil {
				rejected = true
				break
			}
			if r.Seq > acked {
				want = append(want, r)
			}
		}
		var got []*wire.Record
		n, err := l.Replay(SinkFunc(func(r *wire.Record) error {
			got = append(got, r)
			return nil
		}))
		if rejected != (err != nil) {
			t.Fatalf("replay error %v; a payload Decode rejects: %v", err, rejected)
		}
		if n != len(want) || len(got) != len(want) {
			t.Fatalf("replay delivered %d (reported %d), want %d", len(got), n, len(want))
		}
		for i := range want {
			if !wire.Equal(got[i], want[i]) {
				t.Fatalf("replayed record %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}
