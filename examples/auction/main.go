// Auction: a deep-hierarchy scenario (the shape of the paper's Figure 18
// experiment): region -> category -> auction -> bid published as a single
// nested XML view, with triggers monitoring an intermediate level. Updates
// to leaf bids fire triggers three levels up.
package main

import (
	"fmt"
	"log"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
)

func main() {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name:       "region",
		Columns:    []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "name", Type: schema.TString}},
		PrimaryKey: []string{"id"},
	})
	s.MustAddTable(&schema.Table{
		Name: "category",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "parent", Type: schema.TInt}, {Name: "name", Type: schema.TString},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"parent"}, RefTable: "region", RefColumns: []string{"id"}}},
	})
	s.MustAddTable(&schema.Table{
		Name: "auction",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "parent", Type: schema.TInt}, {Name: "item", Type: schema.TString},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"parent"}, RefTable: "category", RefColumns: []string{"id"}}},
	})
	s.MustAddTable(&schema.Table{
		Name: "bid",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "parent", Type: schema.TInt}, {Name: "amount", Type: schema.TFloat},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"parent"}, RefTable: "auction", RefColumns: []string{"id"}}},
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
	must(db.Insert("region", reldb.Row{xdm.Int(1), xdm.Str("EU")}, reldb.Row{xdm.Int(2), xdm.Str("US")}))
	must(db.Insert("category",
		reldb.Row{xdm.Int(10), xdm.Int(1), xdm.Str("art")},
		reldb.Row{xdm.Int(11), xdm.Int(1), xdm.Str("books")},
		reldb.Row{xdm.Int(20), xdm.Int(2), xdm.Str("art")},
	))
	must(db.Insert("auction",
		reldb.Row{xdm.Int(100), xdm.Int(10), xdm.Str("Vermeer print")},
		reldb.Row{xdm.Int(101), xdm.Int(10), xdm.Str("Dürer etching")},
		reldb.Row{xdm.Int(102), xdm.Int(11), xdm.Str("First edition")},
		reldb.Row{xdm.Int(200), xdm.Int(20), xdm.Str("Warhol litho")},
	))
	must(db.Insert("bid",
		reldb.Row{xdm.Int(1000), xdm.Int(100), xdm.Float(250)},
		reldb.Row{xdm.Int(1001), xdm.Int(100), xdm.Float(300)},
		reldb.Row{xdm.Int(1002), xdm.Int(101), xdm.Float(800)},
		reldb.Row{xdm.Int(1003), xdm.Int(102), xdm.Float(120)},
		reldb.Row{xdm.Int(1004), xdm.Int(200), xdm.Float(4000)},
		reldb.Row{xdm.Int(1005), xdm.Int(200), xdm.Float(4500)},
	))

	engine := core.NewEngine(db, core.ModeGrouped)
	engine.RegisterAction("watch", func(inv core.Invocation) error {
		item, _ := inv.New.Attribute("item")
		fmt.Printf("  -> auction %q now has %d bid(s)\n", item, len(inv.New.ChildElements("bid")))
		return nil
	})

	// Depth-4 view: regions/categories/auctions/bids.
	err = engine.CreateView("auctions", `
<auctions>
{for $r in view('default')/region/row
 let $cats := view('default')/category/row[./parent = $r/id]
 return <region name={$r/name}>
   {for $c in $cats
    let $aucs := view('default')/auction/row[./parent = $c/id]
    return <category name={$c/name}>
      {for $a in $aucs
       let $bids := view('default')/bid/row[./parent = $a/id]
       where count($bids) >= 1
       return <auction item={$a/item}>
         {for $b in $bids return <bid amount={$b/amount}></bid>}
       </auction>}
    </category>}
 </region>}
</auctions>`)
	must(err)

	// Monitor the auction level (two levels below the root, one above the
	// leaves) via the descendant axis.
	must(engine.CreateTrigger(
		`CREATE TRIGGER BidWatch AFTER UPDATE ON view('auctions')//auction DO watch(NEW_NODE)`))

	fmt.Println("A new bid lands on the Vermeer print:")
	must(engine.Insert("bid", reldb.Row{xdm.Int(1006), xdm.Int(100), xdm.Float(350)}))

	fmt.Println("\nA bid is retracted from the Warhol litho:")
	if _, err := engine.DeleteByPK("bid", xdm.Int(1004)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nFull view afterwards:")
	doc, err := engine.EvalView("auctions")
	must(err)
	fmt.Print(doc.Serialize(true))

	st := engine.Stats()
	fmt.Printf("\nstats: %d SQL triggers, %d firings, %d notifications\n",
		st.SQLTriggers, st.Fires, st.Actions)
}
