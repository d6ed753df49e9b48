// Package outbox makes trigger actions durable: an append-only segment
// log of wire-encoded invocation records with an acknowledgement
// watermark, giving at-least-once delivery across process restarts. The
// engine appends every activation to the log *before* handing it to the
// dispatcher (transactional-outbox pattern); a record is acknowledged only
// after its sink accepted it, so a crash between append and ack loses
// nothing — Replay re-drives the unacknowledged suffix through the sink in
// log order on the next start. Because the engine serializes appends with
// enqueues, log order agrees with dispatch order, and per-trigger FIFO is
// preserved end to end: live, replayed, and partitioned (partition key =
// trigger name).
//
// On-disk layout (one directory per log):
//
//	seg-<first-seq>.log   length+CRC framed wire records, rotated by size
//	ack                   8-byte little-endian acknowledged watermark
//
// Crash tolerance: Open scans segments, validates every frame's CRC, and
// truncates a torn tail (a record half-written when the process died), so
// a crashed producer restarts cleanly. A torn ack write at worst repeats
// deliveries — the at-least-once contract, never lost deliveries.
package outbox

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quark/internal/obs"
	"quark/internal/wire"
)

// Options parameterizes a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size;
	// defaults to 4 MiB.
	SegmentBytes int64
	// Sync fsyncs after every append. Off by default: the process-crash
	// guarantees hold either way (the OS flushes the page cache); Sync
	// extends them to power loss at a large throughput cost.
	Sync bool
	// AutoCompactLag, when positive, runs Compact automatically whenever
	// an append observes the acknowledged watermark at least this many
	// records past the start of the oldest on-disk segment — bounding the
	// disk footprint of a long-running engine without manual Compact
	// calls. 0 (the default) keeps compaction manual.
	AutoCompactLag uint64
	// Obs, when non-nil, attaches observability from the first moment of
	// Open — recovery-time transitions (torn-tail truncation) emit events
	// that a post-open AttachObs would miss.
	Obs *obs.Registry
}

// Stats is a snapshot of the log's counters.
type Stats struct {
	Appended  int64  // records appended over this Log's lifetime
	Acked     uint64 // acknowledged watermark (every seq <= Acked is done)
	NextSeq   uint64 // sequence the next append will receive
	Segments  int    // segment files on disk
	DiskBytes int64  // on-disk footprint: every segment file
}

const (
	segPrefix   = "seg-"
	segSuffix   = ".log"
	ackFileName = "ack"
	frameHeader = 8 // u32 payload length + u32 CRC32 (little-endian)

	// maxScratchBytes bounds the frame buffer a Log keeps between appends,
	// so one outsized batch does not pin its buffer for the log's lifetime.
	maxScratchBytes = 1 << 20
)

// Log is an append-only outbox over one directory. All methods are safe
// for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	seg      *os.File // active segment (append mode)
	segSize  int64
	segs     []uint64         // first seq of every segment, ascending
	segBytes map[uint64]int64 // per-segment on-disk size (first seq -> bytes)
	nextSeq  uint64
	acked    uint64          // contiguous watermark: all seq <= acked are done
	pending  map[uint64]bool // acked out of order, still above the watermark
	ackF     *os.File
	appended int64
	closed   bool
	scratch  []byte    // AppendBatch's frame buffer, reused across appends
	memo     wire.Memo // binary encodings of the nodes AppendBatch framed last

	// om, when non-nil, holds resolved metric handles plus the registry
	// for event emission (see AttachObs). Nil is the disabled fast path.
	om atomic.Pointer[logObs]
}

// logObs is the resolved metric-handle set for one Log.
type logObs struct {
	reg      *obs.Registry
	append   *obs.Histogram // quark_outbox_append_ns: frame write (+fsync) latency
	fsync    *obs.Histogram // quark_outbox_fsync_ns: fsync alone
	replayed *obs.Counter   // quark_outbox_replayed_total: records re-driven by Replay
}

// AttachObs resolves the log's latency histograms, registers snapshot
// collectors for its counters, and starts emitting structured events
// (torn-tail truncation at Open, when attached via Options.Obs).
// AttachObs(nil) detaches the hot-path handles and silences events.
func (l *Log) AttachObs(reg *obs.Registry) {
	if reg == nil {
		l.om.Store(nil)
		return
	}
	l.om.Store(&logObs{
		reg:      reg,
		append:   reg.Histogram("quark_outbox_append_ns", nil),
		fsync:    reg.Histogram("quark_outbox_fsync_ns", nil),
		replayed: reg.Counter("quark_outbox_replayed_total"),
	})
	reg.Func("quark_outbox_appended_total", func() int64 { return l.Stats().Appended })
	reg.GaugeFunc("quark_outbox_acked", func() int64 { return int64(l.Stats().Acked) })
	reg.GaugeFunc("quark_outbox_next_seq", func() int64 { return int64(l.Stats().NextSeq) })
	reg.GaugeFunc("quark_outbox_segments", func() int64 { return int64(l.Stats().Segments) })
	reg.GaugeFunc("quark_outbox_disk_bytes", func() int64 { return l.Stats().DiskBytes })
}

// Open creates or re-opens the log directory, scanning existing segments
// (validating CRCs and truncating a torn tail) and loading the ack
// watermark.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1, pending: map[uint64]bool{}, segBytes: map[uint64]int64{}}
	if opts.Obs != nil {
		l.AttachObs(opts.Obs)
	}
	if err := l.loadAck(); err != nil {
		return nil, err
	}
	if err := l.scanSegments(); err != nil {
		return nil, err
	}
	// The watermark can be ahead of an empty log only through corruption;
	// clamp so appends never reuse an acknowledged sequence.
	if l.acked >= l.nextSeq {
		l.nextSeq = l.acked + 1
	}
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

func (l *Log) segPath(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix))
}

func (l *Log) loadAck() error {
	b, err := os.ReadFile(filepath.Join(l.dir, ackFileName))
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return err
	case len(b) < 8:
		// Torn first-ever ack write: treat as zero (redeliver; never lose).
		return nil
	}
	l.acked = binary.LittleEndian.Uint64(b)
	return nil
}

// scanSegments walks the segment files in order, counting valid records to
// recover nextSeq and truncating the active (last) segment after the last
// valid frame.
func (l *Log) scanSegments() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			return fmt.Errorf("outbox: malformed segment name %q", name)
		}
		l.segs = append(l.segs, first)
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i] < l.segs[j] })
	for i, first := range l.segs {
		last := i == len(l.segs)-1
		n, validBytes, err := scanSegmentFile(l.segPath(first))
		if err != nil {
			return err
		}
		if i > 0 && first != l.nextSeq {
			return fmt.Errorf("outbox: segment %d does not continue sequence %d", first, l.nextSeq)
		}
		l.nextSeq = first + n
		l.segBytes[first] = validBytes
		if last {
			// Truncate a torn tail so the next append starts on a clean
			// frame boundary.
			dropped, err := truncateTo(l.segPath(first), validBytes)
			if err != nil {
				return err
			}
			if dropped > 0 {
				if m := l.om.Load(); m != nil {
					m.reg.Emit("outbox.torn_tail_truncate", map[string]string{
						"file":          fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix),
						"dropped_bytes": strconv.FormatInt(dropped, 10),
					})
				}
			}
			f, err := os.OpenFile(l.segPath(first), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			l.seg = f
			l.segSize = validBytes
		}
	}
	return nil
}

// forEachFrame walks the valid length+CRC frames of one segment's bytes,
// stopping at the first torn or corrupt frame, and returns the byte
// offset just past the last valid frame. It is the single frame decoder:
// recovery (scanSegmentFile) and read-back (visit) must never disagree on
// framing. A zero-length frame ends the walk like a torn one: no writer
// frames an empty payload, and an all-zero header (whose CRC of nothing is
// 0) is what a crash leaves when a file's size reached the disk before its
// data did.
func forEachFrame(b []byte, fn func(payload []byte) error) (validBytes int64, err error) {
	off := 0
	for off+frameHeader <= len(b) {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if n == 0 || off+frameHeader+n > len(b) {
			break // zero-filled or torn tail
		}
		payload := b[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt tail
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return int64(off), err
			}
		}
		off += frameHeader + n
	}
	return int64(off), nil
}

// Frame renders one length+CRC frame around a payload — the log's segment
// framing, exported so sibling persistence files can share one tested
// format (the shard router's directory checkpoint + delta log live beside
// the outbox; Open ignores any file that is not seg-*.log). The payload
// must not be empty: ScanFrames reads an empty frame as a torn tail.
func Frame(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame
}

// ScanFrames walks the valid frames of b in order, stopping at the first
// torn, corrupt or empty frame, and returns the byte offset just past the
// last valid frame — the truncation point for torn-tail recovery. It is
// the exported face of the log's own frame decoder.
func ScanFrames(b []byte, fn func(payload []byte) error) (validBytes int64, err error) {
	return forEachFrame(b, fn)
}

// scanSegmentFile counts the valid frames of one segment and returns the
// byte offset just past the last valid frame.
func scanSegmentFile(path string) (records uint64, validBytes int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	validBytes, _ = forEachFrame(b, func([]byte) error {
		records++
		return nil
	})
	return records, validBytes, nil
}

// truncateTo trims the file to size, reporting how many torn-tail bytes
// were dropped (0 when the file was already clean).
func truncateTo(path string, size int64) (dropped int64, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if fi.Size() == size {
		return 0, nil
	}
	return fi.Size() - size, os.Truncate(path, size)
}

// encodeFrame appends one record's length+CRC frame to dst. The payload is
// encoded in place behind its header, so framing a record copies nothing;
// a node the memo already holds (memo may be nil) is copied rather than
// walked. The CRC always covers the whole payload.
func encodeFrame(dst []byte, rec *wire.Record, memo *wire.Memo) []byte {
	at := len(dst)
	var header [frameHeader]byte
	dst = wire.AppendEncodeMemo(append(dst, header[:]...), rec, memo)
	payload := dst[at+frameHeader:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Append assigns the record the next sequence number, writes it to the
// active segment, and returns the sequence. The record's Seq field is set
// to the assigned value before encoding, so the log is self-describing.
func (l *Log) Append(rec *wire.Record) (uint64, error) {
	recs := [1]*wire.Record{rec}
	return l.AppendBatch(recs[:])
}

// AppendBatch is the group-commit append: every record is assigned a
// consecutive sequence number (in slice order) and the frames are written
// as ONE contiguous write — and, with Options.Sync, one fsync — so a
// whole firing wave pays a single syscall instead of one per record.
// Rotation is checked once up front: a batch never splits across
// segments (an oversized batch simply overfills its segment, exactly as
// one oversized record would). Returns the first assigned sequence. The
// write is all-or-nothing against the scan: a torn batch truncates back
// to the last good frame, so a crash mid-batch loses the whole batch,
// never a random middle. A node shared by several records of the batch
// (a firing hands every satisfied member the same OLD and NEW nodes) is
// encoded once; its later occurrences copy those bytes from the log's
// memo, which keeps the last few nodes across batches.
func (l *Log) AppendBatch(recs []*wire.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("outbox: empty append batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return 0, err
	}
	buf := l.scratch[:0]
	for i, rec := range recs {
		rec.Seq = l.nextSeq + uint64(i)
		buf = encodeFrame(buf, rec, &l.memo)
	}
	if cap(buf) <= maxScratchBytes {
		l.scratch = buf
	}
	return l.writeFramesLocked(buf, uint64(len(recs)))
}

// readyLocked rejects a closed log and rotates a full (or absent) active
// segment.
func (l *Log) readyLocked() error {
	if l.closed {
		return fmt.Errorf("outbox: log is closed")
	}
	if l.seg == nil || l.segSize >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// writeFramesLocked writes the already-framed buffer holding n records
// (whose Seq fields are assigned from l.nextSeq onward) and advances the
// sequence space, returning the first sequence.
func (l *Log) writeFramesLocked(buf []byte, n uint64) (uint64, error) {
	m := l.om.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	first := l.nextSeq
	if _, err := l.seg.Write(buf); err != nil {
		// A partial write leaves torn bytes that would hide every later
		// frame of this segment from scan and replay. Truncate back to
		// the last good frame; if even that fails, abandon the segment —
		// the next append rotates to a fresh file, and the scan-time
		// torn-tail handling keeps the abandoned segment's valid prefix
		// readable (sequence numbering stays contiguous either way,
		// because nextSeq was not advanced).
		if terr := l.seg.Truncate(l.segSize); terr != nil {
			_ = l.seg.Close()
			l.seg = nil
		}
		return 0, err
	}
	if l.opts.Sync {
		var fsyncStart time.Time
		if m != nil {
			fsyncStart = time.Now()
		}
		if err := l.seg.Sync(); err != nil {
			return 0, err
		}
		if m != nil {
			m.fsync.Since(fsyncStart)
		}
	}
	l.segSize += int64(len(buf))
	if len(l.segs) > 0 {
		l.segBytes[l.segs[len(l.segs)-1]] = l.segSize
	}
	l.nextSeq += n
	l.appended += int64(n)
	l.maybeAutoCompactLocked()
	if m != nil {
		m.append.Since(start)
	}
	return first, nil
}

// maybeAutoCompactLocked applies the Options.AutoCompactLag policy: when
// the watermark has advanced far enough past the oldest segment's first
// record, fully-acknowledged segments are reclaimed. Best-effort — an
// unlinking error leaves the segment for the next append or a manual
// Compact to surface.
func (l *Log) maybeAutoCompactLocked() {
	lag := l.opts.AutoCompactLag
	if lag == 0 || len(l.segs) < 2 || l.acked < l.segs[0] {
		return
	}
	if l.acked-l.segs[0]+1 >= lag {
		_, _ = l.compactLocked()
	}
}

func (l *Log) rotateLocked() error {
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			return err
		}
		l.seg = nil
	}
	first := l.nextSeq
	f, err := os.OpenFile(l.segPath(first), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.seg = f
	l.segSize = 0
	l.segs = append(l.segs, first)
	l.segBytes[first] = 0
	return nil
}

// Ack acknowledges one delivered record. Acks may arrive out of order
// (distinct triggers complete on different workers); the durable watermark
// only advances over a contiguous acknowledged prefix, so an out-of-order
// ack is held in memory until the gap below it closes. A crash forgets
// held acks — their records are redelivered, which at-least-once allows.
//
// Consequence of the contiguous watermark: a record that is never
// acknowledged (its sink keeps failing) pins the watermark below it —
// later acks accumulate in memory, Compact cannot reclaim the pinned
// segment, and a crash redelivers everything above the watermark. That is
// the price of never losing a delivery.
func (l *Log) Ack(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ackLocked(seq)
}

func (l *Log) ackLocked(seq uint64) error {
	if seq <= l.acked {
		return nil
	}
	l.pending[seq] = true
	advanced := false
	for l.pending[l.acked+1] {
		delete(l.pending, l.acked+1)
		l.acked++
		advanced = true
	}
	if !advanced {
		return nil
	}
	return l.writeAckLocked()
}

func (l *Log) writeAckLocked() error {
	if l.ackF == nil {
		f, err := os.OpenFile(filepath.Join(l.dir, ackFileName), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		l.ackF = f
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], l.acked)
	if _, err := l.ackF.WriteAt(b[:], 0); err != nil {
		return err
	}
	if l.opts.Sync {
		return l.ackF.Sync()
	}
	return nil
}

// Acked returns the acknowledged watermark: every record with seq <= the
// returned value has been delivered.
func (l *Log) Acked() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// NextSeq returns the sequence number the next append will receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var disk int64
	for _, b := range l.segBytes {
		disk += b
	}
	return Stats{Appended: l.appended, Acked: l.acked, NextSeq: l.nextSeq, Segments: len(l.segs), DiskBytes: disk}
}

// Records reads back every record with seq >= from, in sequence order,
// decoding through the wire codec (the same path Replay uses).
func (l *Log) Records(from uint64) ([]*wire.Record, error) {
	var out []*wire.Record
	err := l.visit(func(rec *wire.Record) error {
		if rec.Seq >= from {
			out = append(out, rec)
		}
		return nil
	})
	return out, err
}

// visit decodes every record of every segment in order. It snapshots the
// segment list under the lock but reads files unlocked: segments are
// append-only, and visit tolerates a frame appended mid-read (it simply
// includes it).
func (l *Log) visit(fn func(*wire.Record) error) error {
	l.mu.Lock()
	segs := append([]uint64(nil), l.segs...)
	l.mu.Unlock()
	for _, first := range segs {
		b, err := os.ReadFile(l.segPath(first))
		if os.IsNotExist(err) {
			// A concurrent Compact removed the segment; by Compact's
			// precondition every record in it was acknowledged, so a
			// Replay/Records pass would have skipped them anyway.
			continue
		}
		if err != nil {
			return err
		}
		if _, err := forEachFrame(b, func(payload []byte) error {
			rec, err := wire.Decode(payload)
			if err != nil {
				return fmt.Errorf("outbox: segment %d: %w", first, err)
			}
			return fn(rec)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Replay re-drives every unacknowledged record through the sink in
// sequence order, acknowledging each one the sink accepts, and returns the
// number delivered. Log order preserves per-trigger append order, so a
// partition-keyed sink observes per-trigger FIFO exactly as live delivery
// would. A sink error stops the replay: everything before the failing
// record stays acknowledged, and it and everything after remain due, so a
// restarted consumer resumes where it failed.
func (l *Log) Replay(sink Sink) (int, error) {
	l.mu.Lock()
	acked := l.acked
	pending := make(map[uint64]bool, len(l.pending))
	for s := range l.pending {
		pending[s] = true
	}
	l.mu.Unlock()
	delivered := 0
	err := l.visit(func(rec *wire.Record) error {
		if rec.Seq <= acked || pending[rec.Seq] {
			return nil
		}
		if err := sink.Deliver(rec); err != nil {
			return fmt.Errorf("outbox: replay of record %d (trigger %s): %w", rec.Seq, rec.Trigger, err)
		}
		delivered++
		if m := l.om.Load(); m != nil {
			m.replayed.Inc()
		}
		return l.Ack(rec.Seq)
	})
	return delivered, err
}

// Compact removes segment files whose every record is acknowledged. The
// active segment is never removed. With Options.AutoCompactLag set,
// appends run this automatically once the watermark lags far enough
// behind the log head.
func (l *Log) Compact() (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked()
}

func (l *Log) compactLocked() (removed int, err error) {
	for len(l.segs) > 1 {
		// The first record of the next segment bounds this segment's last.
		if l.segs[1] > l.acked+1 {
			break
		}
		if err := os.Remove(l.segPath(l.segs[0])); err != nil {
			return removed, err
		}
		delete(l.segBytes, l.segs[0])
		l.segs = l.segs[1:]
		removed++
	}
	return removed, nil
}

// Close flushes and closes the log's file handles. Appends after Close
// fail; a closed log can be re-opened with Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil && first == nil {
			first = err
		}
		if err := l.seg.Close(); err != nil && first == nil {
			first = err
		}
		l.seg = nil
	}
	if l.ackF != nil {
		if err := l.ackF.Sync(); err != nil && first == nil {
			first = err
		}
		if err := l.ackF.Close(); err != nil && first == nil {
			first = err
		}
		l.ackF = nil
	}
	return first
}

var _ io.Closer = (*Log)(nil)
