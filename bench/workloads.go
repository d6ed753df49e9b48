package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/obs"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/wire"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// spec names one workload: the data, the trigger population and the op shape.
// Later issues refer to these names.
type spec struct {
	name string
	why  string

	params      workload.Params // LeafTuples, Fanout, Depth; NumTriggers is numTriggers below
	mode        core.Mode
	numTriggers int
	// watched gives the root whose name the i-th trigger's condition tests.
	watched func(i, numTop int) int
	// opRoot draws the root an op writes under.
	opRoot func(rng *rand.Rand, numTop int) int
	batch  bool // op is one Engine.Batch of batchRows leaf ops
	// durable turns on async dispatch, the outbox and the file sink, and
	// makes an op wait for Drain.
	durable bool
}

const (
	leafTable = "vendor"
	// Fixed composition of one batch-mixed commit (32 leaf ops over 8
	// distinct roots): 22 updates, three of which re-hit a row the commit
	// already updated, 5 inserts of fresh leaves and 5 deletes of leaves an
	// earlier commit inserted. A fixed mix keeps the work per op the same
	// on every seed.
	batchRows    = 32
	batchRoots   = 8
	batchInserts = 5
	batchDeletes = 5
	batchRehits  = 3
	deletePool   = 64
	// Data is the same for every --seed; the seed drives only the ops.
	dataSeed = 1
	// replayTail is the number of deliveries durable-delivery leaves
	// un-acked before reopening the log.
	replayTail = 100
)

var specs = []*spec{
	{
		name:        "paper-default",
		why:         "Table 2 defaults: 128K leaves, 10,000 grouped triggers, random point writes; reldb probes and affected/xqgm delta evaluation do the work, delivery layers idle",
		params:      workload.Params{Depth: 2, LeafTuples: 131072, Fanout: 64},
		mode:        core.ModeGrouped,
		numTriggers: 10000,
		watched:     func(i, numTop int) int { return i % numTop },
		opRoot:      func(rng *rand.Rand, numTop int) int { return rng.Intn(numTop) },
	},
	{
		name:        "batch-mixed",
		why:         "32-row commits of updates, inserts and deletes over 8 roots: net-delta merge, once-per-commit firing and three event graphs, so a point-path gain that costs the batch path shows",
		params:      workload.Params{Depth: 2, LeafTuples: 131072, Fanout: 64},
		mode:        core.ModeGrouped,
		numTriggers: 10000,
		watched:     func(i, numTop int) int { return i % numTop },
		opRoot:      func(rng *rand.Rand, numTop int) int { return rng.Intn(numTop) },
		batch:       true,
	},
	{
		name:        "ungrouped-100",
		why:         "the paper's UNGROUPED strawman: 100 plans evaluated per statement, so core's per-trigger loop and xqgm's interpretive eval dominate; grouping changes move this and not paper-default",
		params:      workload.Params{Depth: 2, LeafTuples: 131072, Fanout: 64},
		mode:        core.ModeUngrouped,
		numTriggers: 100,
		watched:     func(i, numTop int) int { return i * (numTop / 100) },
		opRoot:      func(rng *rand.Rand, numTop int) int { return rng.Intn(100) * (numTop / 100) },
	},
	{
		name:        "durable-delivery",
		why:         "hot-key write then Drain through wire encode, outbox append, dispatch, file sink and ack for 20 deliveries; evaluation is cheap, so wire/outbox/dispatch carry the time",
		params:      workload.Params{Depth: 2, LeafTuples: 2048, Fanout: 8},
		mode:        core.ModeGrouped,
		numTriggers: 100,
		watched: func(i, numTop int) int {
			if i < 20 {
				return 0
			}
			return 1 + (i-20)%(numTop-1)
		},
		opRoot:  func(*rand.Rand, int) int { return 0 },
		durable: true,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// scaled shrinks the data and the trigger population for -smoke; the oracle
// is derived from the result, so it holds at any scale.
func (s *spec) scaled(div int) *spec {
	if div <= 1 || s.durable {
		return s
	}
	c := *s
	c.params.LeafTuples /= div
	if c.numTriggers > 100 {
		c.numTriggers /= div
	}
	return &c
}

// leafOp is one row change of an op.
type leafOp struct {
	Kind    reldb.Event
	Leaf    int64
	Parent  int64
	Payload float64
}

// op is one closed-loop request and the number of notifications the oracle
// expects it to deliver.
type op struct {
	Rows   []leafOp
	Expect int
}

// generator turns a seed into the op stream. It never looks at the engine,
// so the same seed gives the same stream.
type generator struct {
	s        *spec
	rng      *rand.Rand
	numTop   int
	fanout   int
	watchers []int // triggers watching each root
	seq      int64 // ops generated; payloads are 1000+seq, unique in the stream
	nextLeaf int64 // fresh leaf ids for inserts
	pool     []leafOp
	rows     []leafOp
}

func newGenerator(s *spec, seed int64) *generator {
	numTop := s.params.NumTop()
	g := &generator{
		s: s, rng: rand.New(rand.NewSource(seed)),
		numTop: numTop, fanout: s.params.Fanout,
		watchers: make([]int, numTop),
		nextLeaf: int64(numTop * s.params.Fanout),
		rows:     make([]leafOp, 0, batchRows),
	}
	for i := 0; i < s.numTriggers; i++ {
		g.watchers[s.watched(i, numTop)]++
	}
	return g
}

func (g *generator) payload() float64 {
	g.seq++
	return float64(1000 + g.seq)
}

func (g *generator) update(root int) leafOp {
	return leafOp{Kind: reldb.EvUpdate, Leaf: int64(root*g.fanout + g.rng.Intn(g.fanout)), Parent: int64(root), Payload: g.payload()}
}

// next returns the following op. The returned Rows are reused by the call
// after it.
func (g *generator) next() op {
	g.rows = g.rows[:0]
	if !g.s.batch {
		root := g.s.opRoot(g.rng, g.numTop)
		g.rows = append(g.rows, g.update(root))
		return op{Rows: g.rows, Expect: g.watchers[root]}
	}

	// Deletes first: their leaves fix some of the commit's roots. Until the
	// pool of earlier inserts holds deletePool leaves (the first commits, all
	// inside the warm-up), delete slots become updates.
	var roots [batchRoots]int
	n := 0
	add := func(root int) {
		for _, r := range roots[:n] {
			if r == root {
				return
			}
		}
		roots[n] = root
		n++
	}
	for d := 0; d < batchDeletes && len(g.pool) > deletePool-batchDeletes; d++ {
		i := g.rng.Intn(len(g.pool))
		victim := g.pool[i]
		g.pool[i] = g.pool[len(g.pool)-1]
		g.pool = g.pool[:len(g.pool)-1]
		victim.Kind = reldb.EvDelete
		g.rows = append(g.rows, victim)
		add(int(victim.Parent))
	}
	for n < batchRoots {
		add(g.s.opRoot(g.rng, g.numTop))
	}
	for i := 0; i < batchInserts; i++ {
		ins := leafOp{Kind: reldb.EvInsert, Leaf: g.nextLeaf, Parent: int64(roots[i%n]), Payload: g.payload()}
		g.nextLeaf++
		g.rows = append(g.rows, ins)
	}
	firstUpdate := len(g.rows)
	for i := 0; len(g.rows) < batchRows-batchRehits; i++ {
		g.rows = append(g.rows, g.update(roots[i%n]))
	}
	for i := 0; i < batchRehits; i++ {
		again := g.rows[firstUpdate+i]
		again.Payload = g.payload()
		g.rows = append(g.rows, again)
	}
	// Inserted leaves become deletable by later commits only.
	for _, r := range g.rows {
		if r.Kind == reldb.EvInsert {
			g.pool = append(g.pool, r)
		}
	}
	expect := 0
	for _, r := range roots[:n] {
		expect += g.watchers[r]
	}
	return op{Rows: g.rows, Expect: expect}
}

// instance is one built workload: the engine, its delivery plumbing and the
// oracle's counter.
type instance struct {
	s   *spec
	eng *core.Engine
	gen *generator
	// delivered counts notifications: action calls, or sink deliveries on
	// durable-delivery (with a sink the engine does not call the action).
	delivered atomic.Int64

	// durable-delivery only.
	dir     string
	log     *outbox.Log
	logOpts outbox.Options
	sinkBuf *bufio.Writer
	sinkF   *os.File
	sink    *countingSink

	tr *tracer // nil on untraced runs
}

// countingSink is the oracle's view of the durable sink: it counts what
// the FileSink accepted and, once failing is set, refuses deliveries so
// their records stay un-acked in the log.
type countingSink struct {
	next    outbox.Sink
	in      *instance
	failing atomic.Bool
	mu      sync.Mutex
	refused []uint64                    // seqs refused while failing
	sample  atomic.Pointer[wire.Record] // first record delivered, for the wire probes
}

func (c *countingSink) Deliver(rec *wire.Record) error {
	if c.failing.Load() {
		c.mu.Lock()
		c.refused = append(c.refused, rec.Seq)
		c.mu.Unlock()
		return fmt.Errorf("bench: sink refusing deliveries")
	}
	if err := c.next.Deliver(rec); err != nil {
		return err
	}
	if c.sample.Load() == nil {
		c.sample.CompareAndSwap(nil, rec)
	}
	c.in.delivered.Add(1)
	return nil
}

// triggerSrc is one of the structurally similar UPDATE triggers: it watches
// the root with the given name.
func triggerSrc(name, rootName string) string {
	return fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' DO count(NEW_NODE)`, name, rootName)
}

// build sets one workload up cold: schema, load, CreateView, every
// CreateTrigger, Flush, and on durable-delivery the dispatcher, outbox and
// sink. reg, when non-nil, attaches observability before any trigger is
// registered, so plan-cache counters see the whole setup.
func build(s *spec, seed int64, reg *obs.Registry) (_ *instance, err error) {
	in := &instance{s: s, gen: newGenerator(s, seed)}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	w, err := workload.Build(s.params, s.mode, dataSeed) // NumTriggers is 0: the benchmark registers its own
	if err != nil {
		return nil, err
	}
	in.eng = w.Engine
	if reg != nil {
		in.eng.EnableObs(reg)
	}
	in.eng.RegisterAction("count", func(core.Invocation) error {
		in.delivered.Add(1)
		return nil
	})
	for i := 0; i < s.numTriggers; i++ {
		src := triggerSrc(fmt.Sprintf("t%d", i), w.TopNames[s.watched(i, len(w.TopNames))])
		if err := in.eng.CreateTrigger(src); err != nil {
			return nil, err
		}
	}
	if s.batch {
		// Roots never appear or vanish, so these two never notify; they
		// add the INSERT and DELETE event graphs to every commit.
		for _, ev := range []string{"INSERT", "DELETE"} {
			node := "NEW_NODE"
			if ev == "DELETE" {
				node = "OLD_NODE"
			}
			src := fmt.Sprintf(`CREATE TRIGGER on%s AFTER %s ON view('doc')/e0 DO count(%s)`, ev, ev, node)
			if err := in.eng.CreateTrigger(src); err != nil {
				return nil, err
			}
		}
	}
	if err := in.eng.Flush(); err != nil {
		return nil, err
	}
	if s.durable {
		if err := in.openDelivery(reg); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// openDelivery wires the durable path. Flush policy: buffered writes, no
// fsync (Sync:false) — in a sandbox fsync measures the device, not the code.
func (in *instance) openDelivery(reg *obs.Registry) error {
	dir, err := os.MkdirTemp("", "quarkbench-")
	if err != nil {
		return err
	}
	in.dir = dir
	in.logOpts = outbox.Options{Sync: false, AutoCompactLag: 4096, Obs: reg}
	if in.log, err = outbox.Open(filepath.Join(dir, "outbox"), in.logOpts); err != nil {
		return err
	}
	if in.sinkF, err = os.Create(filepath.Join(dir, "sink.jsonl")); err != nil {
		return err
	}
	in.sinkBuf = bufio.NewWriter(&rewindingFile{f: in.sinkF})
	in.sink = &countingSink{next: outbox.NewFileSink(in.sinkBuf), in: in}
	if err := in.eng.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 1024, Policy: dispatch.Block}); err != nil {
		return err
	}
	return in.eng.EnableOutbox(in.log, in.sink)
}

// rewindingFile writes the sink's temp file and starts over at its beginning
// every sinkFileCap bytes. The sink receives ~20 MB/s; left to grow, the file
// takes a fresh page-cache page for every 4 KiB, and in a VM whose memory the
// host backs lazily write(2) gets 2.5x dearer once the recycled pages run out
// (measured: ops_per_s steps from ~1150 to ~780 some 10 s into a run, on
// tmpfs too). Rewinding keeps the writes real and the footprint bounded.
type rewindingFile struct {
	f *os.File
	n int64
}

const sinkFileCap = 32 << 20

func (r *rewindingFile) Write(p []byte) (int, error) {
	if r.n+int64(len(p)) > sinkFileCap {
		if _, err := r.f.Seek(0, io.SeekStart); err != nil {
			return 0, err
		}
		r.n = 0
	}
	n, err := r.f.Write(p)
	r.n += int64(n)
	return n, err
}

// close stops the dispatcher and removes the temp dir; safe on a partly
// built instance.
func (in *instance) close() {
	if in.eng != nil {
		_ = in.eng.Close() // teardown: the run's verdict is already recorded
	}
	if in.log != nil {
		_ = in.log.Close()
	}
	if in.sinkF != nil {
		_ = in.sinkBuf.Flush()
		_ = in.sinkF.Close()
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir)
	}
}

// exec runs one op to completion and reports whether it succeeded and the
// oracle agrees with what was delivered.
func (in *instance) exec(o op) bool {
	before := in.delivered.Load()
	sp := in.tr.begin("op", -1)
	wr := in.tr.begin("write", sp)
	err := in.write(o)
	in.tr.end(wr)
	if in.s.durable {
		dr := in.tr.begin("drain", sp)
		in.eng.Drain()
		in.tr.end(dr)
	}
	in.tr.end(sp)
	return err == nil && int(in.delivered.Load()-before) == o.Expect
}

func (in *instance) write(o op) error {
	if !in.s.batch {
		return applyRow(in.eng, o.Rows[0])
	}
	return in.eng.Batch(func(tx *reldb.Tx) error {
		for _, r := range o.Rows {
			if err := applyRow(tx, r); err != nil {
				return err
			}
		}
		return nil
	})
}

// writer is the statement surface core.Engine, reldb.DB and reldb.Tx share.
type writer interface {
	Insert(table string, rows ...reldb.Row) error
	UpdateByPK(table string, key []xdm.Value, set func(reldb.Row) reldb.Row) (bool, error)
	DeleteByPK(table string, key ...xdm.Value) (bool, error)
}

func applyRow(w writer, r leafOp) error {
	var found bool
	var err error
	switch r.Kind {
	case reldb.EvInsert:
		return w.Insert(leafTable, reldb.Row{xdm.Int(r.Leaf), xdm.Int(r.Parent), xdm.Float(r.Payload)})
	case reldb.EvDelete:
		found, err = w.DeleteByPK(leafTable, xdm.Int(r.Leaf))
	default:
		found, err = w.UpdateByPK(leafTable, []xdm.Value{xdm.Int(r.Leaf)}, func(row reldb.Row) reldb.Row {
			row[len(row)-1] = xdm.Float(r.Payload)
			return row
		})
	}
	if err == nil && !found {
		err = fmt.Errorf("bench: leaf %d not found", r.Leaf)
	}
	return err
}

// checkReplay is durable-delivery's closing check: refuse the next
// replayTail deliveries so they stay un-acked, close everything, reopen the
// log and require Replay to redeliver exactly those records in log order.
// It returns the ops it ran; on a mismatch all of them count as failed.
func (in *instance) checkReplay() (ops int, err error) {
	in.sink.failing.Store(true)
	for len(in.sink.refusedSeqs()) < replayTail {
		o := in.gen.next()
		ops++
		if err := in.write(o); err != nil {
			return ops, err
		}
		in.eng.Drain()
	}
	if err := in.eng.Close(); err != nil {
		return ops, err
	}
	if err := in.log.Close(); err != nil {
		return ops, err
	}
	in.log, err = outbox.Open(filepath.Join(in.dir, "outbox"), in.logOpts)
	if err != nil {
		return ops, err
	}
	var got []uint64
	n, err := in.log.Replay(outbox.SinkFunc(func(rec *wire.Record) error {
		got = append(got, rec.Seq)
		return nil
	}))
	if err != nil {
		return ops, err
	}
	want := in.sink.refusedSeqs()
	if n != len(want) || len(got) != len(want) {
		return ops, fmt.Errorf("bench: replay redelivered %d records, want the %d left un-acked", n, len(want))
	}
	slices.Sort(want) // two workers refuse concurrently; the log is in seq order
	for i := range want {
		if got[i] != want[i] {
			return ops, fmt.Errorf("bench: replay record %d has seq %d, want %d", i, got[i], want[i])
		}
	}
	return ops, nil
}

func (c *countingSink) refusedSeqs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.refused...)
}
