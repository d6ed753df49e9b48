// Command shardfleet demonstrates the sharded trigger engine: the
// paper's catalog (products grouped by name, vendors nested inside)
// partitioned across four embedded engines by product NAME, with one
// trigger population installed fleet-wide. It walks through routed
// single-row updates, a cross-shard batch, and a product rename whose
// routing key changes — a live subtree migration between shards — and
// prints the per-shard breakdown at each step.
package main

import (
	"fmt"
	"log"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/shard"
	"quark/internal/xdm"
)

func main() {
	s := schema.New()
	s.MustAddTable(&schema.Table{
		Name: "product",
		Columns: []schema.Column{
			{Name: "pid", Type: schema.TString},
			{Name: "pname", Type: schema.TString},
			{Name: "mfr", Type: schema.TString},
		},
		PrimaryKey: []string{"pid"},
	})
	s.MustAddTable(&schema.Table{
		Name: "vendor",
		Columns: []schema.Column{
			{Name: "vname", Type: schema.TString},
			{Name: "pid", Type: schema.TString},
			{Name: "price", Type: schema.TFloat},
		},
		PrimaryKey: []string{"vname", "pid"},
		ForeignKeys: []schema.ForeignKey{
			{Columns: []string{"pid"}, RefTable: "product", RefColumns: []string{"pid"}},
		},
	})

	e, err := shard.New(s, shard.Config{
		Shards: 4,
		Mode:   core.ModeGrouped,
		Routing: []shard.TableRouting{
			{Table: "product", ByColumns: []string{"pname"}}, // the view's grouping key
			{Table: "vendor", ViaParent: "product"},          // co-locate with the product
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	e.RegisterAction("notify", func(inv core.Invocation) error {
		fmt.Printf("  -> %s %s: %s\n", inv.Trigger, inv.Event, inv.New.Serialize(false))
		return nil
	})
	if err := e.CreateView("catalog", `<catalog>
{for $pname in distinct(view('default')/product/row/pname)
 let $products := view('default')/product/row[./pname = $pname]
 let $vendors := view('default')/vendor/row[./pid = $products/pid]
 return <product name={$pname}>
   {for $v in $vendors return <vendor>{$v/*}</vendor>}
 </product>}
</catalog>`); err != nil {
		log.Fatal(err)
	}
	if err := e.CreateTrigger(`CREATE TRIGGER WatchCatalog AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)`); err != nil {
		log.Fatal(err)
	}

	str := xdm.Str
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(e.Insert("product",
		reldb.Row{str("P1"), str("CRT 15"), str("Samsung")},
		reldb.Row{str("P2"), str("LCD 19"), str("Samsung")},
		reldb.Row{str("P3"), str("OLED 27"), str("LG")},
	))
	must(e.Insert("vendor",
		reldb.Row{str("Amazon"), str("P1"), xdm.Float(100)},
		reldb.Row{str("Bestbuy"), str("P2"), xdm.Float(180)},
		reldb.Row{str("Newegg"), str("P3"), xdm.Float(500)},
	))
	perShard := func() {
		st := e.Stats()
		fmt.Printf("  fleet: %d shard(s), %d directory entries; per-shard products: ", st.Shards, st.DirEntries)
		for i := 0; i < e.NumShards(); i++ {
			fmt.Printf("[%d]=%d ", i, e.Shard(i).DB().RowCount("product"))
		}
		fmt.Println()
	}
	fmt.Println("Loaded 3 products + 3 vendors, routed by product name:")
	perShard()

	fmt.Println("\nRouted single-row update (fires on the owning shard only):")
	if _, err := e.UpdateByPK("vendor", []xdm.Value{str("Amazon"), str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(90)
		return r
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nCross-shard batch (one transaction, per-shard commits in shard order):")
	must(e.Batch(func(tx *shard.Tx) error {
		for _, up := range []struct {
			vname, pid string
			price      float64
		}{{"Amazon", "P1", 85}, {"Bestbuy", "P2", 170}, {"Newegg", "P3", 450}} {
			if _, err := tx.UpdateByPK("vendor", []xdm.Value{str(up.vname), str(up.pid)}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(up.price)
				return r
			}); err != nil {
				return err
			}
		}
		return nil
	}))

	fmt.Println("\nRename P1 (routing key changes -> subtree migrates shards):")
	before, _ := e.OwnerOf("product", str("P1"))
	if _, err := e.UpdateByPK("product", []xdm.Value{str("P1")}, func(r reldb.Row) reldb.Row {
		r[1] = str("CRT 15 flat")
		return r
	}); err != nil {
		log.Fatal(err)
	}
	after, _ := e.OwnerOf("product", str("P1"))
	fmt.Printf("  P1 moved shard %d -> %d (vendor followed: ", before, after)
	vOwner, _ := e.OwnerOf("vendor", str("Amazon"), str("P1"))
	fmt.Printf("%v)\n", vOwner == after)
	perShard()

	st := e.Stats()
	fmt.Printf("\nTotals: %d fire(s), %d action(s) across %d shard(s)\n", st.Fires, st.Actions, st.Shards)
}
