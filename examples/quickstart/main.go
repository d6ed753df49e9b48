// Quickstart: a five-minute tour of the public API — define a relational
// schema, publish it as an XML view, place an XML trigger on the view, and
// watch it fire when base-table updates affect the monitored nodes.
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
	// 1. Relational schema: authors and their books.
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "author",
		Columns: []schema.Column{
			{Name: "aid", Type: schema.TInt},
			{Name: "name", Type: schema.TString},
		},
		PrimaryKey: []string{"aid"},
	})
	s.MustAddTable(&schema.Table{
		Name: "book",
		Columns: []schema.Column{
			{Name: "bid", Type: schema.TInt},
			{Name: "aid", Type: schema.TInt},
			{Name: "title", Type: schema.TString},
			{Name: "price", Type: schema.TFloat},
		},
		PrimaryKey:  []string{"bid"},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"aid"}, RefTable: "author", RefColumns: []string{"aid"}}},
	})

	db, err := reldb.Open(s)
	if err != nil {
		log.Fatal(err)
	}
	must(db.Insert("author",
		reldb.Row{xdm.Int(1), xdm.Str("Knuth")},
		reldb.Row{xdm.Int(2), xdm.Str("Date")},
	))
	must(db.Insert("book",
		reldb.Row{xdm.Int(10), xdm.Int(1), xdm.Str("TAOCP Vol 1"), xdm.Float(90)},
		reldb.Row{xdm.Int(11), xdm.Int(1), xdm.Str("TAOCP Vol 2"), xdm.Float(95)},
		reldb.Row{xdm.Int(12), xdm.Int(2), xdm.Str("Intro to DB Systems"), xdm.Float(120)},
	))

	// 2. The active XML engine: GROUPED shares one translated SQL trigger
	// among structurally similar XML triggers (the paper's Section 5.1).
	engine := core.NewEngine(db, core.ModeGrouped)

	// 3. An XML view (XQuery over the automatic default view): authors
	// with at least 2 books, each listing its books.
	err = engine.CreateView("library", `
<library>
{for $a in view('default')/author/row
 let $books := view('default')/book/row[./aid = $a/aid]
 where count($books) >= 2
 return <author name={$a/name}>
   {for $b in $books return <book title={$b/title}>{$b/price}</book>}
 </author>}
</library>`)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := engine.EvalView("library")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("The view today:")
	fmt.Print(doc.Serialize(true))

	// 4. An action and an XML trigger on the (unmaterialized!) view.
	engine.RegisterAction("ping", func(inv core.Invocation) error {
		name := ""
		if inv.New != nil {
			name, _ = inv.New.Attribute("name")
		} else if inv.Old != nil {
			name, _ = inv.Old.Attribute("name")
		}
		fmt.Printf(">> %s event on author %q (trigger %s)\n", inv.Event, name, inv.Trigger)
		return nil
	})
	must(engine.CreateTrigger(
		`CREATE TRIGGER KnuthWatch AFTER UPDATE ON view('library')/author
		 WHERE NEW_NODE/@name = 'Knuth' DO ping(NEW_NODE)`))
	must(engine.CreateTrigger(
		`CREATE TRIGGER NewAuthors AFTER INSERT ON view('library')/author DO ping(NEW_NODE)`))

	// 5. Base-table updates fire the triggers automatically.
	fmt.Println("\nUpdating a Knuth book price...")
	_, err = engine.UpdateByPK("book", []xdm.Value{xdm.Int(10)}, func(r reldb.Row) reldb.Row {
		r[3] = xdm.Float(99)
		return r
	})
	must(err)

	fmt.Println("\nGiving Date a second book (author enters the view)...")
	must(engine.Insert("book", reldb.Row{xdm.Int(13), xdm.Int(2), xdm.Str("SQL and Relational Theory"), xdm.Float(60)}))

	st := engine.Stats()
	fmt.Printf("\n%d XML trigger(s) translated into %d SQL trigger(s); %d action(s) ran\n",
		st.XMLTriggers, st.SQLTriggers, st.Actions)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
