// Command quark demonstrates the system end to end on the paper's running
// example: it loads the product/vendor database (Figure 2), registers the
// catalog view (Figure 3), creates the Notify trigger (Section 2.2),
// prints the generated SQL trigger (compare Figure 16), applies the
// paper's price update, and shows the resulting notification.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"quark/internal/core"
	"quark/internal/fixtures"
	"quark/internal/obs"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

var (
	obsAddr = flag.String("obs.addr", "", "serve /metrics, /snapshot, and pprof on this address")
	obsHold = flag.Duration("obs.hold", 0, "keep the debug server up this long after the demo finishes")
)

const catalogView = `
<catalog>
{for $prodname in distinct(view('default')/product/row/pname)
 let $products := view('default')/product/row[./pname = $prodname]
 let $vendors := view('default')/vendor/row[./pid = $products/pid]
 where count($vendors) >= 2
 return <product name={$prodname}>
   { for $vendor in $vendors
     return <vendor>
       {$vendor/*}
     </vendor>}
 </product>}
</catalog>`

const notifyTrigger = `
CREATE TRIGGER Notify AFTER UPDATE
ON view('catalog')/product
WHERE OLD_NODE/@name = 'CRT 15'
DO notifySmith(NEW_NODE)`

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quark:", err)
		os.Exit(1)
	}
}

func run() error {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		return err
	}
	engine := core.NewEngine(db, core.ModeGrouped)

	if *obsAddr != "" {
		reg := obs.New()
		engine.EnableObs(reg)
		srv, err := obs.Serve(*obsAddr, reg, func() any { return engine.Snapshot() })
		if err != nil {
			return err
		}
		fmt.Printf("observability: serving /metrics, /snapshot, /debug/pprof on %s\n", srv.Addr())
		defer func() {
			if *obsHold > 0 {
				fmt.Printf("observability: holding the debug server for %s\n", *obsHold)
				time.Sleep(*obsHold)
			}
			_ = srv.Close()
		}()
	}

	engine.RegisterAction("notifySmith", func(inv core.Invocation) error {
		fmt.Println("\n=== notifySmith invoked ===")
		fmt.Printf("trigger: %s, event: %s\n", inv.Trigger, inv.Event)
		fmt.Println("NEW_NODE:")
		fmt.Print(inv.New.Serialize(true))
		return nil
	})

	fmt.Println("=== Registering the catalog view (Figure 3) ===")
	if err := engine.CreateView("catalog", catalogView); err != nil {
		return err
	}
	doc, err := engine.EvalView("catalog")
	if err != nil {
		return err
	}
	fmt.Println("Materialized view (Figure 4):")
	fmt.Print(doc.Serialize(true))

	fmt.Println("\n=== Creating the XML trigger (Section 2.2) ===")
	fmt.Println(notifyTrigger)
	if err := engine.CreateTrigger(notifyTrigger); err != nil {
		return err
	}
	st := engine.Stats()
	fmt.Printf("\ninstalled %d SQL trigger(s) for %d XML trigger(s)\n", st.SQLTriggers, st.XMLTriggers)

	fmt.Println("\n=== Generated SQL (compare Figure 16) ===")
	for key, sql := range engine.SQLTexts() {
		fmt.Printf("-- %s\n%s\n\n", key, sql)
		break // one plan is enough for the demo
	}

	fmt.Println("=== Applying the paper's update: Amazon discounts P1 to $75 ===")
	if _, err := engine.UpdateByPK("vendor",
		[]xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")},
		func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(75)
			return r
		}); err != nil {
		return err
	}

	fmt.Println("\n=== A non-matching update fires nothing ===")
	if _, err := engine.UpdateByPK("vendor",
		[]xdm.Value{xdm.Str("Buy.com"), xdm.Str("P2")},
		func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(195)
			return r
		}); err != nil {
		return err
	}
	fmt.Println("(updated LCD 19's vendor; the CRT 15 trigger stayed silent)")

	final := engine.Stats()
	fmt.Printf("\nstats: fires=%d actions=%d\n", final.Fires, final.Actions)
	return nil
}
