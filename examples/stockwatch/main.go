// Stockwatch: the paper's introduction motivates active views with web
// services where buyers subscribe to interesting events instead of polling.
// Here a brokerage publishes sector -> stock quotes as an XML view; many
// clients register structurally similar watch triggers differing only in
// their constants — exactly the Section 5.1 grouping scenario. All the
// watches share a single SQL trigger per (table, event).
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/wire"
	"quark/internal/xdm"
)

func main() {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "sector",
		Columns: []schema.Column{
			{Name: "sid", Type: schema.TInt},
			{Name: "name", Type: schema.TString},
		},
		PrimaryKey: []string{"sid"},
	})
	s.MustAddTable(&schema.Table{
		Name: "quote",
		Columns: []schema.Column{
			{Name: "symbol", Type: schema.TString},
			{Name: "sid", Type: schema.TInt},
			{Name: "price", Type: schema.TFloat},
		},
		PrimaryKey:  []string{"symbol"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"sid"}, RefTable: "sector", RefColumns: []string{"sid"}}},
	})
	db, err := reldb.Open(s)
	if err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(db.Insert("sector",
		reldb.Row{xdm.Int(1), xdm.Str("tech")},
		reldb.Row{xdm.Int(2), xdm.Str("energy")},
	))
	must(db.Insert("quote",
		reldb.Row{xdm.Str("QRK"), xdm.Int(1), xdm.Float(31.40)},
		reldb.Row{xdm.Str("XML"), xdm.Int(1), xdm.Float(12.25)},
		reldb.Row{xdm.Str("DB2"), xdm.Int(1), xdm.Float(88.00)},
		reldb.Row{xdm.Str("OIL"), xdm.Int(2), xdm.Float(55.10)},
		reldb.Row{xdm.Str("GAS"), xdm.Int(2), xdm.Float(23.75)},
	))

	engine := core.NewEngine(db, core.ModeGrouped)
	engine.RegisterAction("notifyClient", func(inv core.Invocation) error {
		sec, _ := inv.New.Attribute("name")
		fmt.Printf("  -> %s: sector %q moved; cheapest entry now %s\n",
			inv.Trigger, sec, cheapest(inv))
		return nil
	})

	err = engine.CreateView("market", `
<market>
{for $s in view('default')/sector/row
 let $quotes := view('default')/quote/row[./sid = $s/sid]
 where count($quotes) >= 1
 return <sector name={$s/name}>
   {for $q in $quotes return <stock symbol={$q/symbol} price={$q/price}></stock>}
 </sector>}
</market>`)
	must(err)

	// 200 clients watch sectors with per-client thresholds: structurally
	// identical conditions, different constants -> one trigger group.
	for i := 0; i < 200; i++ {
		sector := "tech"
		if i%2 == 1 {
			sector = "energy"
		}
		threshold := 10 + i%40
		must(engine.CreateTrigger(fmt.Sprintf(`
			CREATE TRIGGER client%03d AFTER UPDATE ON view('market')/sector
			WHERE NEW_NODE/@name = '%s'
			  and count(NEW_NODE/stock[./@price < %d]) >= 1
			DO notifyClient(NEW_NODE)`, i, sector, threshold)))
	}
	st := engine.Stats()
	fmt.Printf("%d watch triggers translated into %d SQL trigger(s) in %d group(s)\n\n",
		st.XMLTriggers, st.SQLTriggers, st.Groups)

	fmt.Println("XML (tech) dips to 9.80:")
	_, err = engine.UpdateByPK("quote", []xdm.Value{xdm.Str("XML")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(9.80)
		return r
	})
	must(err)
	after := engine.Stats()
	fmt.Printf("\nactivated %d of %d watches with a single SQL trigger firing\n",
		after.Actions, st.XMLTriggers)

	// A market tick re-prices every symbol at once. With the batch API the
	// whole transaction fires each SQL trigger once at commit with the
	// merged transition tables, and clients see one coalesced notification
	// per moved sector instead of one per repriced stock.
	fmt.Println("\nmarket tick: repricing all five symbols in one transaction:")
	setPrice := func(p float64) func(reldb.Row) reldb.Row {
		return func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(p)
			return r
		}
	}
	must(engine.Batch(func(tx *reldb.Tx) error {
		for sym, price := range map[string]float64{
			"QRK": 29.10, "XML": 9.95, "DB2": 86.40, "OIL": 8.20, "GAS": 24.10,
		} {
			if _, err := tx.UpdateByPK("quote", []xdm.Value{xdm.Str(sym)}, setPrice(price)); err != nil {
				return err
			}
		}
		return nil
	}))
	final := engine.Stats()
	fmt.Printf("\n5 quote updates -> %d trigger firing(s), %d client notification(s)\n",
		final.Fires-after.Fires, final.Actions-after.Actions)

	// Slow sinks: real XML-trigger consumers push notifications over
	// messaging or HTTP, so give every client a 2ms-per-notification sink.
	// Delivered inline, a market tick blocks its writer for the sum of all
	// sink calls; with async dispatch the tick returns as soon as the
	// deliveries are enqueued, and the worker pool drains them behind it
	// (per-client FIFO order preserved).
	const sinkDelay = 2 * time.Millisecond
	engine.RegisterAction("notifyClient", func(inv core.Invocation) error {
		time.Sleep(sinkDelay)
		return nil
	})
	tick := func(base float64) time.Duration {
		start := time.Now()
		must(engine.Batch(func(tx *reldb.Tx) error {
			for i, sym := range []string{"QRK", "XML", "DB2", "OIL", "GAS"} {
				if _, err := tx.UpdateByPK("quote", []xdm.Value{xdm.Str(sym)}, setPrice(base+float64(i)/10)); err != nil {
					return err
				}
			}
			return nil
		}))
		return time.Since(start)
	}
	fmt.Printf("\nslow sinks (%v per notification):\n", sinkDelay)
	syncTick := tick(9.0) // every price under every threshold: all 200 watches fire
	fmt.Printf("  inline delivery:  market tick blocked its writer for %v\n", syncTick.Round(time.Millisecond))
	must(engine.EnableAsyncDispatch(dispatch.Config{Workers: 8, QueueCap: 1024, Policy: dispatch.Block}))
	asyncTick := tick(8.5)
	engine.Drain()
	dstats := engine.Stats().Dispatch
	fmt.Printf("  async dispatch:   tick returned in %v (%.0fx faster); %d queued notifications drained by %d workers (peak queue depth %d)\n",
		asyncTick.Round(time.Millisecond), float64(syncTick)/float64(asyncTick),
		dstats.Completed, 8, dstats.MaxDepth)
	must(engine.Close())

	// Durable delivery: notifications that must survive a crash go through
	// the outbox — every activation is appended to a segment log before it
	// is handed to the worker pool, and acknowledged only once the sink
	// (here a Kafka-shaped partitioned mock, partition key = trigger name)
	// accepted it. We simulate the consumer dying mid-tick, kill the
	// process state, and replay the survivors from disk.
	fmt.Println("\ncrash and replay: durable delivery through the outbox")
	outDir, err := os.MkdirTemp("", "stockwatch-outbox-")
	must(err)
	defer os.RemoveAll(outDir)
	lg, err := outbox.Open(outDir, outbox.Options{})
	must(err)
	broker := outbox.NewPartitionedSink(4)
	// The broker connection drops after record 120, mid-tick. Keying the
	// failure on the record's log sequence (assigned in append order)
	// keeps the demo deterministic however the workers schedule.
	flaky := outbox.SinkFunc(func(rec *wire.Record) error {
		if rec.Seq > 120 {
			return fmt.Errorf("broker connection lost")
		}
		return broker.Deliver(rec)
	})
	must(engine.EnableAsyncDispatch(dispatch.Config{Workers: 8, QueueCap: 1024, Policy: dispatch.Block}))
	must(engine.EnableOutbox(lg, flaky))
	tick(7.5) // all 200 watches fire again
	engine.Drain()
	obst := engine.Stats().OutboxLog
	fmt.Printf("  before the crash: %d notifications appended to the log, %d delivered, %d still due\n",
		obst.Appended, broker.Total(), obst.Appended-int64(obst.Acked))
	must(engine.Close())
	must(lg.Close()) // process dies here; the segment log is what survives

	// Restart: a fresh process opens the same directory and replays the
	// unacknowledged suffix into a recovered broker — at-least-once, in
	// log order, per-trigger FIFO preserved by the partition key.
	lg2, err := outbox.Open(outDir, outbox.Options{})
	must(err)
	defer lg2.Close()
	recovered := outbox.NewPartitionedSink(4)
	replayed, err := lg2.Replay(recovered)
	must(err)
	fmt.Printf("  after restart:    replayed %d notifications from %s (log watermark %d/%d, nothing lost)\n",
		replayed, outDir, lg2.Acked(), lg2.NextSeq()-1)
	for p := 0; p < recovered.Partitions(); p++ {
		if recs := recovered.Partition(p); len(recs) > 0 {
			line, err := recs[0].MarshalJSON()
			must(err)
			fmt.Printf("  sample replayed record (self-describing JSON):\n    %.120s...\n", line)
			break
		}
	}
}

func cheapest(inv core.Invocation) string {
	best := ""
	bestP := 1e18
	for _, st := range inv.New.ChildElements("stock") {
		p, _ := st.Attribute("price")
		v := xdm.ParseTyped(p)
		if v.AsFloat() < bestP {
			bestP = v.AsFloat()
			sym, _ := st.Attribute("symbol")
			best = fmt.Sprintf("%s @ %s", sym, p)
		}
	}
	return best
}
