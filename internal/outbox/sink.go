package outbox

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"quark/internal/wire"
)

// Sink consumes invocation records. Implementations must be safe for
// concurrent Deliver calls from distinct triggers; the engine guarantees
// records of the same trigger are delivered one at a time, in order.
//
// A sink may keep the record it is handed: the engine never reuses it.
// The engine cuts the records of one firing wave from one slab, so a kept
// record keeps its whole wave's slab (about 100 bytes a record) alive.
type Sink interface {
	Deliver(rec *wire.Record) error
}

// SinkFunc adapts an in-process function to the Sink interface.
type SinkFunc func(*wire.Record) error

// Deliver implements Sink.
func (f SinkFunc) Deliver(rec *wire.Record) error { return f(rec) }

// FileSink writes one JSON line per record to w — the file/pipe consumer
// shape. Each line is a self-describing wire.Record, so a downstream
// process (tail -f, jq, another language) needs no live engine to act on
// the stream.
//
// Each pooled line buffer carries a wire.Memo with the JSON of the last few
// nodes encoded into it, copied when a later record carries the same node:
// the records of one firing share their OLD and NEW nodes, so a worker
// encodes a wave's nodes once rather than once per record.
type FileSink struct {
	bufs sync.Pool // *sinkBuf, so steady-state Deliver allocates nothing
	mu   sync.Mutex
	w    io.Writer
}

// sinkBuf is one pooled line buffer and the node memo that goes with it.
type sinkBuf struct {
	line []byte
	memo wire.Memo
}

// maxLineBytes bounds the line buffer a FileSink keeps between deliveries.
const maxLineBytes = 1 << 20

// NewFileSink wraps w. The sink serializes writes, so w needs no locking
// of its own.
func NewFileSink(w io.Writer) *FileSink { return &FileSink{w: w} }

// Deliver implements Sink. The line is encoded before the lock is taken:
// concurrent deliveries encode in parallel, each through its own buffer's
// memo, and serialize only the write.
func (s *FileSink) Deliver(rec *wire.Record) error {
	b, _ := s.bufs.Get().(*sinkBuf)
	if b == nil {
		b = new(sinkBuf)
	}
	b.line = append(wire.AppendJSONMemo(b.line[:0], rec, &b.memo), '\n')
	s.mu.Lock()
	_, err := s.w.Write(b.line)
	s.mu.Unlock()
	if cap(b.line) > maxLineBytes {
		b.line = nil
	}
	s.bufs.Put(b)
	return err
}

// PartitionedSink is a NATS/Kafka-shaped in-memory topic: a fixed number
// of ordered partitions, records routed by partition key = trigger name.
// Same key -> same partition and appends within a partition are ordered,
// so per-trigger FIFO survives the fan-out — the property a real broker
// provides with keyed messages, mocked here for tests, demos, and the
// benchrunner without a broker dependency.
type PartitionedSink struct {
	parts []partition
	// FailFor, when non-nil, makes Deliver reject records whose trigger it
	// reports true for — crash/outage injection for replay tests.
	FailFor func(trigger string) bool
}

type partition struct {
	mu   sync.Mutex
	recs []*wire.Record
}

// NewPartitionedSink creates a sink with n partitions (minimum 1).
func NewPartitionedSink(n int) *PartitionedSink {
	if n < 1 {
		n = 1
	}
	return &PartitionedSink{parts: make([]partition, n)}
}

// PartitionFor returns the partition index the key routes to.
func (s *PartitionedSink) PartitionFor(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(s.parts)))
}

// Deliver implements Sink, appending the record to its key's partition.
func (s *PartitionedSink) Deliver(rec *wire.Record) error {
	if s.FailFor != nil && s.FailFor(rec.Trigger) {
		return fmt.Errorf("outbox: partitioned sink rejecting trigger %s", rec.Trigger)
	}
	p := &s.parts[s.PartitionFor(rec.Trigger)]
	p.mu.Lock()
	p.recs = append(p.recs, rec)
	p.mu.Unlock()
	return nil
}

// Partition returns a snapshot of one partition's records in append order.
func (s *PartitionedSink) Partition(i int) []*wire.Record {
	p := &s.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*wire.Record(nil), p.recs...)
}

// Partitions returns the partition count.
func (s *PartitionedSink) Partitions() int { return len(s.parts) }

// Total returns the number of records across all partitions.
func (s *PartitionedSink) Total() int {
	n := 0
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		n += len(p.recs)
		p.mu.Unlock()
	}
	return n
}

// ByTrigger returns every record of one trigger in delivery order.
func (s *PartitionedSink) ByTrigger(trigger string) []*wire.Record {
	var out []*wire.Record
	for _, rec := range s.Partition(s.PartitionFor(trigger)) {
		if rec.Trigger == trigger {
			out = append(out, rec)
		}
	}
	return out
}
