// Catalog: the paper's full running example (Figures 2-5, Section 2.2) —
// a supplier exposes its product catalog as an XML web service and buyers
// subscribe to changes with XML triggers covering all three event kinds.
package main

import (
	"fmt"
	"log"

	"quark/internal/core"
	"quark/internal/fixtures"
	"quark/internal/reldb"
	"quark/internal/xdm"
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

func main() {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		log.Fatal(err)
	}
	engine := core.NewEngine(db, core.ModeGrouped)

	engine.RegisterAction("buyerAlert", func(inv core.Invocation) error {
		switch inv.Event {
		case reldb.EvUpdate:
			name, _ := inv.New.Attribute("name")
			fmt.Printf("  [alert] product %q changed; now %d vendor(s)\n",
				name, len(inv.New.ChildElements("vendor")))
		case reldb.EvInsert:
			name, _ := inv.New.Attribute("name")
			fmt.Printf("  [alert] product %q is now available from 2+ vendors\n", name)
		case reldb.EvDelete:
			name, _ := inv.Old.Attribute("name")
			fmt.Printf("  [alert] product %q dropped below 2 vendors\n", name)
		}
		return nil
	})

	if err := engine.CreateView("catalog", catalogView); err != nil {
		log.Fatal(err)
	}
	triggers := []string{
		// The paper's trigger, generalized to any product.
		`CREATE TRIGGER PriceWatch AFTER UPDATE ON view('catalog')/product DO buyerAlert(NEW_NODE)`,
		`CREATE TRIGGER Arrivals  AFTER INSERT ON view('catalog')/product DO buyerAlert(NEW_NODE)`,
		`CREATE TRIGGER Departures AFTER DELETE ON view('catalog')/product DO buyerAlert(OLD_NODE)`,
	}
	for _, src := range triggers {
		if err := engine.CreateTrigger(src); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("1. Amazon discounts P1 (CRT 15 changes):")
	if _, err := engine.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(75)
		return r
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("2. A new vendor picks up P2 (LCD 19 changes):")
	if err := engine.Insert("vendor", reldb.Row{xdm.Str("Newegg"), xdm.Str("P2"), xdm.Float(170)}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("3. A brand-new product gains its second vendor (enters the catalog):")
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(engine.Insert("product", reldb.Row{xdm.Str("P4"), xdm.Str("OLED 27"), xdm.Str("LG")}))
	must(engine.Insert("vendor", reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(900)}))
	must(engine.Insert("vendor", reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P4"), xdm.Float(950)}))

	fmt.Println("4. Vendors abandon LCD 19 until it leaves the catalog:")
	if _, err := engine.Delete("vendor", func(r reldb.Row) bool {
		return r[1].AsString() == "P2" && r[0].AsString() != "Bestbuy"
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nFinal catalog:")
	doc, err := engine.EvalView("catalog")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(doc.Serialize(true))

	st := engine.Stats()
	fmt.Printf("\n3 XML triggers -> %d SQL triggers (grouped); %d firings, %d alerts\n",
		st.SQLTriggers, st.Fires, st.Actions)
}
