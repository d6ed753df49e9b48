package outbox

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quark/internal/reldb"
	"quark/internal/wire"
	"quark/internal/xdm"
)

func rec(trigger string, i int) *wire.Record {
	return &wire.Record{
		Trigger: trigger,
		Event:   reldb.EvUpdate,
		New:     xdm.Elem("n", xdm.Attr("i", fmt.Sprint(i))),
		Args:    []xdm.Value{xdm.Int(int64(i))},
	}
}

func TestAppendAssignsContiguousSeqs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		seq, err := l.Append(rec("t", i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
	recs, err := l.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("read back %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Args[0].AsInt() != int64(i+1) {
			t.Errorf("record %d: seq=%d args=%v", i, r.Seq, r.Args)
		}
	}
}

func TestAckWatermarkContiguous(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 4; i++ {
		if _, err := l.Append(rec("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order acks: watermark must not jump over the gap at 1.
	must := func(seq uint64) {
		if err := l.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	must(3)
	must(2)
	if got := l.Acked(); got != 0 {
		t.Fatalf("watermark advanced over unacked record 1: %d", got)
	}
	must(1)
	if got := l.Acked(); got != 3 {
		t.Fatalf("watermark = %d, want 3 after gap closed", got)
	}
	must(4)
	if got := l.Acked(); got != 4 {
		t.Fatalf("watermark = %d, want 4", got)
	}
}

// TestKillAndRestart is the crash scenario of the durability contract: a
// producer appends deliveries, some are acknowledged, and the process dies
// with the rest still queued. A fresh Open of the same directory must
// replay exactly the unacknowledged records, in order, through a
// partitioned sink with per-trigger FIFO intact and nothing lost.
func TestKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	triggers := []string{"alpha", "beta", "gamma"}
	const perTrigger = 10
	for i := 0; i < perTrigger; i++ {
		for _, tr := range triggers {
			if _, err := l.Append(rec(tr, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The consumer got through the first 7 records before the "crash".
	for seq := uint64(1); seq <= 7; seq++ {
		if err := l.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop the Log without closing (handles leak in-test; the
	// files are what a killed process leaves behind).

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer l2.Close()
	if got := l2.Acked(); got != 7 {
		t.Fatalf("restart lost the watermark: %d", got)
	}
	sink := NewPartitionedSink(2)
	n, err := l2.Replay(sink)
	if err != nil {
		t.Fatal(err)
	}
	want := len(triggers)*perTrigger - 7
	if n != want {
		t.Fatalf("replayed %d records, want %d", n, want)
	}
	if sink.Total() != want {
		t.Fatalf("sink holds %d records, want %d", sink.Total(), want)
	}
	// No delivery lost and per-trigger FIFO preserved: each trigger's
	// replayed records are its unacked suffix in ascending order.
	for _, tr := range triggers {
		recs := sink.ByTrigger(tr)
		lastSeq := uint64(0)
		for _, r := range recs {
			if r.Seq <= lastSeq {
				t.Errorf("trigger %s: out-of-order replay: %d after %d", tr, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
		}
	}
	if got := l2.Acked(); got != uint64(len(triggers)*perTrigger) {
		t.Fatalf("replay did not acknowledge delivered records: watermark %d", got)
	}
	// A second replay delivers nothing: at-least-once converges.
	if n, err := l2.Replay(sink); err != nil || n != 0 {
		t.Fatalf("second replay delivered %d records (err %v), want 0", n, err)
	}
}

func TestReplayStopsAtSinkError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(rec("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	failing := SinkFunc(func(r *wire.Record) error {
		calls++
		if r.Seq == 3 {
			return fmt.Errorf("broker down")
		}
		return nil
	})
	n, err := l.Replay(failing)
	if err == nil {
		t.Fatal("replay swallowed the sink error")
	}
	if n != 2 || l.Acked() != 2 {
		t.Fatalf("delivered %d, watermark %d; want 2, 2", n, l.Acked())
	}
	// Resume: the failed record and its successors are still due.
	var got []uint64
	ok := SinkFunc(func(r *wire.Record) error {
		got = append(got, r.Seq)
		return nil
	})
	if _, err := l.Replay(ok); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("resume replayed %v, want [3 4 5]", got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(rec("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop half of the last record's bytes, as a crash
	// mid-write would.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer l2.Close()
	recs, err := l2.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn log yields %d records, want 2", len(recs))
	}
	// The torn record's sequence is reused by the next append: it was
	// never durable, so it never existed.
	seq, err := l2.Append(rec("t", 99))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("append after torn tail got seq %d, want 3", seq)
	}
}

func TestSegmentRotationAndCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := l.Append(rec("rotate", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	// Re-open across segments: sequence continues and all records read.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records across segments, want %d", len(recs), n)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if err := l2.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("compact removed nothing despite a fully acked log")
	}
	if got := l2.Stats().Segments; got != 1 {
		t.Fatalf("segments after compact = %d, want 1 (active)", got)
	}
	// The log's whole on-disk state is its segments and the ack watermark.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name != "ack" && !(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log")) {
			t.Errorf("log directory holds %q, want only seg-*.log and ack", name)
		}
	}
	// Appends continue after compaction, and reads skip the removed range.
	seq, err := l2.Append(rec("rotate", n+1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != n+1 {
		t.Fatalf("seq after compact = %d, want %d", seq, n+1)
	}
}

func TestFileSinkEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewFileSink(&buf)
	for i := 1; i <= 3; i++ {
		r := rec("json", i)
		r.Seq = uint64(i)
		if err := s.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var r wire.Record
		if err := r.UnmarshalJSON([]byte(line)); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.Trigger != "json" || r.Seq != uint64(i+1) {
			t.Errorf("line %d decoded to trigger=%s seq=%d", i, r.Trigger, r.Seq)
		}
	}
}

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates (and makes sync.Pool drop buffers), so allocation counts mean
// nothing under -race.
var raceEnabled bool

// TestDeliveryPathSteadyStateAllocations pins the encode-in-place
// mechanism: once their buffers have grown, a file sink's Deliver (JSON
// line into a pooled buffer) and the log's group append (frames built in
// the log's scratch buffer) allocate nothing per record.
func TestDeliveryPathSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := make([]*wire.Record, 20)
	for i := range recs {
		recs[i] = rec("alloc", i)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendBatch of 20 records allocates %.0f objects in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := l.Append(recs[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Append allocates %.0f objects in steady state, want 0", n)
	}
	s := NewFileSink(io.Discard)
	if n := testing.AllocsPerRun(200, func() {
		if err := s.Deliver(recs[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FileSink.Deliver allocates %.0f objects in steady state, want 0", n)
	}
}

func TestPartitionedSinkKeyStability(t *testing.T) {
	s := NewPartitionedSink(4)
	for i := 0; i < 50; i++ {
		tr := fmt.Sprintf("t%d", i%5)
		if err := s.Deliver(rec(tr, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every record of one trigger landed in that trigger's partition.
	seen := 0
	for i := 0; i < 5; i++ {
		tr := fmt.Sprintf("t%d", i)
		part := s.PartitionFor(tr)
		for p := 0; p < s.Partitions(); p++ {
			for _, r := range s.Partition(p) {
				if r.Trigger == tr {
					if p != part {
						t.Errorf("trigger %s record in partition %d, key says %d", tr, p, part)
					}
					seen++
				}
			}
		}
	}
	if seen != 50 {
		t.Fatalf("accounted for %d records, want 50", seen)
	}
}

// TestAutoCompactOnAppend: with AutoCompactLag set, appends reclaim
// fully-acknowledged segments without any manual Compact call, keeping
// the on-disk segment count bounded where a manual-only log grows without
// limit.
func TestAutoCompactOnAppend(t *testing.T) {
	const n = 12
	// Control: manual-only compaction accumulates one tiny segment per
	// append (SegmentBytes 1 rotates every record).
	ctl, err := Open(t.TempDir(), Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	// Under test: a lag-3 policy.
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1, AutoCompactLag: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= n; i++ {
		for _, lg := range []*Log{ctl, l} {
			if _, err := lg.Append(rec("t", i)); err != nil {
				t.Fatal(err)
			}
			if err := lg.Ack(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := ctl.Stats(); st.Segments != n {
		t.Fatalf("control grew %d segments, want %d (manual-only must not compact)", st.Segments, n)
	}
	st := l.Stats()
	if st.Segments > 4 {
		t.Fatalf("auto-compacting log holds %d segments after %d acked appends, want a bounded handful", st.Segments, n)
	}
	// The unacked tail is still fully readable after compaction.
	if _, err := l.Append(rec("t", n+1)); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records(uint64(n + 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != uint64(n+1) {
		t.Fatalf("post-compact read-back = %+v", recs)
	}
}

// TestAppendBatchGroupCommit: one AppendBatch call assigns contiguous
// sequences in slice order, survives a reopen (scan compatibility), and
// interleaves correctly with single appends.
func TestAppendBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec("a", 1)); err != nil {
		t.Fatal(err)
	}
	batch := []*wire.Record{rec("a", 2), rec("b", 3), rec("a", 4)}
	first, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("batch first seq = %d, want 2", first)
	}
	for i, r := range batch {
		if r.Seq != uint64(2+i) {
			t.Errorf("batch record %d assigned seq %d", i, r.Seq)
		}
	}
	if _, err := l.Append(rec("b", 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.NextSeq(); got != 6 {
		t.Fatalf("reopened NextSeq = %d, want 6", got)
	}
	recs, err := l.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%d:%s:%d", r.Seq, r.Trigger, r.Args[0].AsInt()))
	}
	want := "1:a:1 2:a:2 3:b:3 4:a:4 5:b:5"
	if strings.Join(got, " ") != want {
		t.Fatalf("read-back = %q, want %q", strings.Join(got, " "), want)
	}

	if _, err := l.AppendBatch(nil); err == nil {
		t.Error("empty AppendBatch must error")
	}
}
