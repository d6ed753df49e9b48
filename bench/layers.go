package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"quark/internal/affected"
	"quark/internal/compile"
	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/shard"
	"quark/internal/trigger"
	"quark/internal/wire"
	"quark/internal/workload"
	"quark/internal/xdm"
	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// stopwatch accumulates the timed sections of one probe.
type stopwatch struct {
	d time.Duration
	n int
}

// time runs f and books it as calls calls. Sub-microsecond calls are looped
// inside f so the two clock reads do not dominate.
func (s *stopwatch) time(calls int, f func()) {
	t0 := time.Now()
	f()
	s.d += time.Since(t0)
	s.n += calls
}

const probeReps = 3

// layerProbes is the isolated "layers" stage: loops over each module's
// public functions, called from here only. Each probe repeats its body for
// rep, three times, and reports the median time per call.
type layerProbes struct {
	rep           time.Duration
	replayRecords int
	rng           *rand.Rand
	m             map[string]float64
}

// measure runs body until rep has passed, probeReps times. body books its
// timed sections on the k stopwatches it is handed (anything else it does is
// untimed preparation). The result is, per stopwatch, the median over the
// repetitions of seconds per call.
func (l *layerProbes) measure(k int, body func(sw []stopwatch) error) ([]float64, error) {
	per := make([][]float64, k)
	for r := 0; r < probeReps; r++ {
		sw := make([]stopwatch, k)
		for start := time.Now(); ; {
			if err := body(sw); err != nil {
				return nil, err
			}
			if time.Since(start) >= l.rep {
				break
			}
		}
		for i := range sw {
			per[i] = append(per[i], sw[i].d.Seconds()/float64(max(sw[i].n, 1)))
		}
	}
	out := make([]float64, k)
	for i := range per {
		out[i] = median(per[i])
	}
	return out, nil
}

// one measures a single timed call per body.
func (l *layerProbes) one(name string, scale float64, f func() error) error {
	v, err := l.measure(1, func(sw []stopwatch) (err error) {
		sw[0].time(1, func() { err = f() })
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.m[name] = v[0] * scale
	return nil
}

const (
	toUs = 1e6
	toMs = 1e3
)

// runLayers runs every probe and returns name -> value.
func runLayers(cfg config) (map[string]float64, error) {
	l := &layerProbes{
		rep:           cfg.dur(1.0 / 400),
		replayRecords: 10000 / cfg.scaleDiv,
		rng:           rand.New(rand.NewSource(cfg.seed)),
		m:             map[string]float64{},
	}
	for _, stage := range []func(config) error{l.frontEnd, l.bareDB, l.groupJoin, l.delivery, l.sharded} {
		if err := stage(cfg); err != nil {
			return nil, err
		}
		runtime.GC() // one stage's garbage is not the next one's cost
	}
	return l.m, nil
}

// install registers and flushes the trigger named "probe"; uninstall undoes it.
func install(eng *core.Engine, rootName string) error {
	if err := eng.CreateTrigger(triggerSrc("probe", rootName)); err != nil {
		return err
	}
	return eng.Flush()
}

func uninstall(eng *core.Engine) error {
	if err := eng.DropTrigger("probe"); err != nil {
		return err
	}
	return eng.Flush()
}

// installProbe times CreateTrigger+Flush of one more trigger on eng; undoing
// it between calls is untimed.
func (l *layerProbes) installProbe(name string, scale float64, eng *core.Engine, rootName string) error {
	v, err := l.measure(1, func(sw []stopwatch) (err error) {
		sw[0].time(1, func() { err = install(eng, rootName) })
		if err != nil {
			return err
		}
		return uninstall(eng)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.m[name] = v[0] * scale
	return nil
}

// frontEnd probes the parsers and the view compiler: the part of setup that
// does not depend on the data.
func (l *layerProbes) frontEnd(config) error {
	p := specs[0].params
	src := workload.ViewSource(p)
	sch := workload.BuildSchema(p)
	if err := l.one("xquery.parse_view_us", toUs, func() error { _, err := xquery.Parse(src); return err }); err != nil {
		return err
	}
	tsrc := triggerSrc("t0", "Item 000000")
	if err := l.one("trigger.parse_us", toUs, func() error { _, err := trigger.Parse(tsrc); return err }); err != nil {
		return err
	}
	return l.one("compile.view_ms", toMs, func() error {
		_, err := compile.New(sch).CompileView("doc", src)
		return err
	})
}

// bareDB probes reldb, affected and new-plan compilation on paper-default's
// data with no trigger installed.
func (l *layerProbes) bareDB(cfg config) error {
	s := specByName("ungrouped-100").scaled(cfg.scaleDiv)
	w, err := workload.Build(s.params, core.ModeUngrouped, dataSeed)
	if err != nil {
		return err
	}
	eng, db := w.Engine, w.DB
	eng.RegisterAction("count", func(core.Invocation) error { return nil })
	// One install/uninstall first: it leaves behind the indexes the engine
	// builds for its plans, which every workload's writes maintain too.
	if err := install(eng, w.TopNames[0]); err != nil {
		return err
	}
	if err := uninstall(eng); err != nil {
		return err
	}

	gen := newGenerator(specByName("batch-mixed").scaled(cfg.scaleDiv), cfg.seed)
	if err := l.one("reldb.update_us", toUs, func() error {
		return applyRow(db, gen.update(l.rng.Intn(gen.numTop)))
	}); err != nil {
		return err
	}
	if err := l.one("reldb.lookup_us", toUs, func() error {
		rows := 0
		err := db.Lookup(leafTable, "parent", xdm.Int(int64(l.rng.Intn(gen.numTop))), func(reldb.Row) bool { rows++; return true })
		if err == nil && rows < s.params.Fanout {
			err = fmt.Errorf("lookup returned %d rows, want at least %d", rows, s.params.Fanout)
		}
		return err
	}); err != nil {
		return err
	}
	if err := l.one("reldb.tx32_commit_us", toUs, func() error {
		tx := db.Begin()
		for _, r := range gen.next().Rows {
			if err := applyRow(tx, r); err != nil {
				return err
			}
		}
		return tx.Commit()
	}); err != nil {
		return err
	}

	// The affected-node graph exactly as core builds it for these triggers.
	view, _ := eng.View("doc")
	nav := view.Nav.Child("e0")
	opts := affected.Options{Prune: true}
	if affected.InjectiveFor(nav.Op, leafTable) {
		opts.SkipValueCompare = true
	} else {
		opts.CompareCols = []int{nav.NodeCol}
	}
	var an *affected.ANGraph
	if err := l.one("affected.angraph_build_ms", toMs, func() (err error) {
		an, err = affected.CreateANGraph(db.Schema(), reldb.EvUpdate, nav.Op, leafTable, opts)
		return err
	}); err != nil {
		return err
	}
	// evalDelta updates rows leaves bare, then times Eval over the Δ/∇ the
	// statement(s) would have handed the trigger.
	pairs := 0
	evalDelta := func(name string, rows, roots int) error {
		scans := db.Stats().FullScans
		evals := 0
		v, err := l.measure(1, func(sw []stopwatch) (err error) {
			tr := &xqgm.Transition{}
			// Distinct leaves: a statement's Δ holds each row once.
			first, base := l.rng.Intn(gen.numTop-roots), l.rng.Intn(gen.fanout)
			for i := 0; i < rows; i++ {
				leaf := (first+i%roots)*gen.fanout + (base+i/roots)%gen.fanout
				u := leafOp{Kind: reldb.EvUpdate, Leaf: int64(leaf), Payload: gen.payload()}
				key := xdm.Int(u.Leaf)
				old, _, err := db.GetByPK(leafTable, key)
				if err != nil {
					return err
				}
				if err := applyRow(db, u); err != nil {
					return err
				}
				cur, _, err := db.GetByPK(leafTable, key)
				if err != nil {
					return err
				}
				tr.Deleted = append(tr.Deleted, old)
				tr.Inserted = append(tr.Inserted, cur)
			}
			sw[0].time(1, func() {
				var ps []affected.Pair
				ps, err = an.Eval(db, map[string]*xqgm.Transition{leafTable: tr})
				pairs += len(ps)
				evals++
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if db.Stats().FullScans != scans {
			return fmt.Errorf("%s: the affected-node graph scanned a table; the probe's indexes are missing", name)
		}
		l.m[name] = v[0] * toUs
		if rows == 1 {
			l.m["affected.pairs_per_eval"] = float64(pairs) / float64(evals)
		}
		return nil
	}
	if err := evalDelta("affected.eval_us", 1, 1); err != nil {
		return err
	}
	if err := evalDelta("affected.eval32_us", batchRows, batchRoots); err != nil {
		return err
	}

	// A structurally new trigger: full plan compile and install.
	return l.installProbe("core.create_trigger_new_ms", toMs, eng, w.TopNames[0])
}

// groupJoin probes registering one more trigger into paper-default's
// 10,000-member group.
func (l *layerProbes) groupJoin(cfg config) error {
	in, err := build(specByName("paper-default").scaled(cfg.scaleDiv), cfg.seed, nil)
	if err != nil {
		return err
	}
	defer in.close()
	return l.installProbe("core.create_trigger_join_us", toUs, in.eng, "Item 000000")
}

// delivery probes xqgm's read use (whole-view evaluation), then wire, outbox
// and dispatch on a record captured from durable-delivery.
func (l *layerProbes) delivery(cfg config) error {
	in, err := build(specByName("durable-delivery"), cfg.seed, nil)
	if err != nil {
		return err
	}
	defer in.close()
	if !in.exec(in.gen.next()) {
		return fmt.Errorf("durable-delivery: the op that captures a record failed")
	}
	rec := in.sink.sample.Load()

	view, _ := in.eng.View("doc")
	var stats xqgm.EvalStats
	if err := l.one("xqgm.view_eval_ms", toMs, func() error {
		ctx := xqgm.NewEvalContext(in.eng.DB(), nil)
		_, err := ctx.Eval(view.Root)
		stats = ctx.Stats
		return err
	}); err != nil {
		return err
	}
	l.m["xqgm.ops_per_eval"] = float64(stats.OpsEvaluated)
	l.m["xqgm.rows_per_eval"] = float64(stats.RowsProduced)

	const inner = 64 // calls per timed section, for sub-microsecond calls
	var enc []byte
	v, err := l.measure(3, func(sw []stopwatch) (err error) {
		sw[0].time(inner, func() {
			for i := 0; i < inner; i++ {
				enc = wire.Encode(rec)
			}
		})
		sw[1].time(inner, func() {
			for i := 0; i < inner && err == nil; i++ {
				_, err = wire.Decode(enc)
			}
		})
		sw[2].time(inner, func() {
			for i := 0; i < inner && err == nil; i++ {
				_, err = json.Marshal(rec) // what FileSink does per delivery
			}
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	l.m["wire.encode_us"], l.m["wire.decode_us"], l.m["wire.json_us"] = v[0]*toUs, v[1]*toUs, v[2]*toUs
	l.m["wire.bytes_per_record"] = float64(len(enc))

	if err := l.outboxProbes(rec, len(enc)); err != nil {
		return err
	}

	d := dispatch.New(dispatch.Config{Workers: 2, QueueCap: 1024, Policy: dispatch.Block})
	defer d.Close()
	lanes := make([]string, 20)
	for i := range lanes {
		lanes[i] = fmt.Sprintf("t%d", i)
	}
	noop := func() error { return nil }
	v, err = l.measure(2, func(sw []stopwatch) (err error) {
		sw[0].time(len(lanes), func() {
			for _, t := range lanes {
				if e := d.Enqueue(dispatch.Delivery{Trigger: t, Run: noop}); e != nil {
					err = e
				}
			}
		})
		d.Drain()
		sw[1].time(1, func() {
			if e := d.Enqueue(dispatch.Delivery{Trigger: lanes[0], Run: noop}); e != nil {
				err = e
			}
			d.Drain()
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	l.m["dispatch.enqueue_us"], l.m["dispatch.roundtrip_us"] = v[0]*toUs, v[1]*toUs
	return nil
}

// outboxProbes times the log in temp dirs of its own, removed before returning.
func (l *layerProbes) outboxProbes(rec *wire.Record, wireBytes int) error {
	root, err := os.MkdirTemp("", "quarkbench-outbox-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dirs := 0
	open := func(opts outbox.Options) (*outbox.Log, string, error) {
		dirs++
		dir := filepath.Join(root, fmt.Sprint(dirs))
		lg, err := outbox.Open(dir, opts)
		return lg, dir, err
	}
	batch := make([]*wire.Record, 20)
	for i := range batch {
		c := *rec
		batch[i] = &c
	}
	fail := func(name string, err error) error { return fmt.Errorf("%s: %w", name, err) }

	// Group append of 20 and per-record ack, compacting as the workload does.
	lg, _, err := open(outbox.Options{AutoCompactLag: 4096})
	if err != nil {
		return err
	}
	v, err := l.measure(2, func(sw []stopwatch) (err error) {
		sw[0].time(1, func() { _, err = lg.AppendBatch(batch) })
		if err != nil {
			return err
		}
		sw[1].time(len(batch), func() {
			for _, r := range batch {
				if e := lg.Ack(r.Seq); e != nil {
					err = e
				}
			}
		})
		return err
	})
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail("outbox.append_batch20_us", err)
	}
	l.m["outbox.append_batch20_us"], l.m["outbox.ack_us"] = v[0]*toUs, v[1]*toUs

	// Restart: reopen a log holding replayRecords un-acked records and
	// replay them all.
	v, err = l.measure(1, func(sw []stopwatch) error {
		lg, dir, err := open(outbox.Options{})
		if err != nil {
			return err
		}
		for n := 0; n < l.replayRecords; n += len(batch) {
			if _, err := lg.AppendBatch(batch); err != nil {
				return err
			}
		}
		if n := lg.Stats(); n.DiskBytes > 0 {
			l.m["outbox.disk_bytes_per_wire_byte"] = float64(n.DiskBytes) / float64(int64(wireBytes)*n.Appended)
		}
		if err := lg.Close(); err != nil {
			return err
		}
		replayed := 0
		sw[0].time(l.replayRecords, func() {
			if lg, err = outbox.Open(dir, outbox.Options{}); err == nil {
				replayed, err = lg.Replay(outbox.SinkFunc(func(*wire.Record) error { return nil }))
			}
		})
		if err != nil {
			return err
		}
		if replayed < l.replayRecords {
			return fmt.Errorf("replayed %d of %d records", replayed, l.replayRecords)
		}
		if err := lg.Close(); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return fail("outbox.replay_us_per_record", err)
	}
	l.m["outbox.replay_us_per_record"] = v[0] * toUs

	// Compaction of a fully acknowledged log spread over small segments.
	v, err = l.measure(1, func(sw []stopwatch) error {
		lg, dir, err := open(outbox.Options{SegmentBytes: 64 << 10})
		if err != nil {
			return err
		}
		for n := 0; n < 2000; n += len(batch) {
			if _, err := lg.AppendBatch(batch); err != nil {
				return err
			}
			for _, r := range batch {
				if err := lg.Ack(r.Seq); err != nil {
					return err
				}
			}
		}
		removed := 0
		sw[0].time(1, func() { removed, err = lg.Compact() })
		if err == nil && removed == 0 {
			err = fmt.Errorf("compaction removed no segment")
		}
		if cerr := lg.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return fail("outbox.compact_ms", err)
	}
	l.m["outbox.compact_ms"] = v[0] * toMs

	// Informational: one record with Sync:true measures the device.
	lg, _, err = open(outbox.Options{Sync: true, AutoCompactLag: 4096})
	if err != nil {
		return err
	}
	err = l.one("outbox.append_sync_us", toUs, func() error {
		seq, err := lg.Append(batch[0])
		if err != nil {
			return err
		}
		return lg.Ack(seq)
	})
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	return err
}

// sharded probes a 2-shard fleet with one writer: a routed point update and
// a transaction spanning both shards.
func (l *layerProbes) sharded(cfg config) error {
	p := specByName("durable-delivery").params
	p.NumTriggers, p.NumSatisfied = 100, 1
	w, err := workload.BuildSharded(p, core.ModeGrouped, 2, dataSeed)
	if err != nil {
		return err
	}
	defer w.Engine.Close()
	payload := 1000.0
	leafUnder := func(root int) int64 { return int64(root*p.Fanout + l.rng.Intn(p.Fanout)) }
	if err := l.one("shard.route_update_us", toUs, func() error {
		payload++
		return w.UpdateLeafOn(leafUnder(l.rng.Intn(p.NumTop())), payload)
	}); err != nil {
		return err
	}
	// One root per shard, so the batch has a participant on each.
	roots := [2]int{-1, -1}
	for r := 0; r < p.NumTop(); r++ {
		if o, ok := w.Engine.OwnerOf(p.TableName(0), xdm.Int(int64(r))); ok && roots[o] < 0 {
			roots[o] = r
		}
	}
	if roots[0] < 0 || roots[1] < 0 {
		return fmt.Errorf("shard.tx2pc_ms: no root found on one of the two shards")
	}
	return l.one("shard.tx2pc_ms", toMs, func() error {
		return w.Engine.Batch(func(tx *shard.Tx) error {
			for _, r := range roots {
				payload++
				v := xdm.Float(payload)
				if _, err := tx.UpdateByPK(leafTable, []xdm.Value{xdm.Int(leafUnder(r))}, func(row reldb.Row) reldb.Row {
					row[len(row)-1] = v
					return row
				}); err != nil {
					return err
				}
			}
			return nil
		})
	})
}
