package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
)

// catalogSchema is the paper's product/vendor pair, routed by product
// NAME (the view's grouping key) with vendors co-located via their FK.
func catalogSchema(t *testing.T) *schema.Schema {
	t.Helper()
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
	return s
}

func newCatalogEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := New(catalogSchema(t), Config{
		Shards: n,
		Mode:   core.ModeGrouped,
		Routing: []TableRouting{
			{Table: "product", ByColumns: []string{"pname"}},
			{Table: "vendor", ViaParent: "product"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func row(vals ...any) reldb.Row {
	out := make(reldb.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			out[i] = xdm.Str(x)
		case int:
			out[i] = xdm.Int(int64(x))
		case float64:
			out[i] = xdm.Float(x)
		default:
			panic("bad test value")
		}
	}
	return out
}

func mustInsert(t *testing.T, e *Engine, table string, rows ...reldb.Row) {
	t.Helper()
	if err := e.Insert(table, rows...); err != nil {
		t.Fatalf("insert %s: %v", table, err)
	}
}

// TestRoutingCoLocation: children land on their parent's shard, and rows
// of one routing group agree across tables.
func TestRoutingCoLocation(t *testing.T) {
	e := newCatalogEngine(t, 4)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"), row("P3", "CRT 15", "Viewsonic"))
	mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0), row("Bestbuy", "P2", 180.0), row("Newegg", "P3", 90.0))

	p1, ok := e.OwnerOf("product", xdm.Str("P1"))
	if !ok {
		t.Fatal("P1 not in directory")
	}
	p3, _ := e.OwnerOf("product", xdm.Str("P3"))
	if p1 != p3 {
		t.Errorf("products sharing pname split: P1 on %d, P3 on %d", p1, p3)
	}
	v1, ok := e.OwnerOf("vendor", xdm.Str("Amazon"), xdm.Str("P1"))
	if !ok || v1 != p1 {
		t.Errorf("vendor Amazon/P1 on shard %d (ok=%v), want parent's shard %d", v1, ok, p1)
	}
	// The row data actually lives where the directory says.
	if n := e.Shard(p1).DB().RowCount("product"); n < 2 {
		t.Errorf("owning shard has %d product rows, want >= 2", n)
	}
	total := 0
	for i := 0; i < e.NumShards(); i++ {
		total += e.Shard(i).DB().RowCount("vendor")
	}
	if total != 3 {
		t.Errorf("fleet holds %d vendor rows, want 3", total)
	}
}

// TestMigrationOnRename: renaming a product moves the row AND its vendors
// to the new name's shard; fleet-wide row counts are conserved.
func TestMigrationOnRename(t *testing.T) {
	for n := 2; n <= 5; n++ {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			e := newCatalogEngine(t, n)
			mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"))
			mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0), row("Bestbuy", "P1", 120.0))

			changed, err := e.UpdateByPK("product", []xdm.Value{xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
				r[1] = xdm.Str("CRT 15 flat")
				return r
			})
			if err != nil || !changed {
				t.Fatalf("rename: changed=%v err=%v", changed, err)
			}
			owner, ok := e.OwnerOf("product", xdm.Str("P1"))
			if !ok {
				t.Fatal("P1 lost from directory")
			}
			wantOwner := e.Router().hashKey(xdm.TupleKey([]xdm.Value{xdm.Str("CRT 15 flat")}))
			if owner != wantOwner {
				t.Errorf("P1 on shard %d, want hash(new name) = %d", owner, wantOwner)
			}
			vOwner, ok := e.OwnerOf("vendor", xdm.Str("Amazon"), xdm.Str("P1"))
			if !ok || vOwner != owner {
				t.Errorf("vendor followed to shard %d (ok=%v), want %d", vOwner, ok, owner)
			}
			prods, vends := 0, 0
			for i := 0; i < e.NumShards(); i++ {
				prods += e.Shard(i).DB().RowCount("product")
				vends += e.Shard(i).DB().RowCount("vendor")
			}
			if prods != 1 || vends != 2 {
				t.Errorf("fleet holds %d products / %d vendors, want 1 / 2", prods, vends)
			}
			// The moved row's content survived, on the owning shard.
			got, found, err := e.Shard(owner).GetByPK("product", xdm.Str("P1"))
			if err != nil || !found {
				t.Fatalf("P1 missing on owner: found=%v err=%v", found, err)
			}
			if got[1].Lexical() != "CRT 15 flat" {
				t.Errorf("post-image pname = %s", got[1].Lexical())
			}
		})
	}
}

// TestVendorFKMove: moving a child to a parent on another shard migrates
// just the child.
func TestVendorFKMove(t *testing.T) {
	e := newCatalogEngine(t, 4)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"), row("P2", "OLED 27", "LG"))
	mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0))
	p2, _ := e.OwnerOf("product", xdm.Str("P2"))

	// The composite PK includes pid, so this is also a PK move.
	changed, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[1] = xdm.Str("P2")
		return r
	})
	if err != nil || !changed {
		t.Fatalf("move: changed=%v err=%v", changed, err)
	}
	if _, ok := e.OwnerOf("vendor", xdm.Str("Amazon"), xdm.Str("P1")); ok {
		t.Error("old vendor key still in directory")
	}
	owner, ok := e.OwnerOf("vendor", xdm.Str("Amazon"), xdm.Str("P2"))
	if !ok || owner != p2 {
		t.Errorf("moved vendor on shard %d (ok=%v), want %d", owner, ok, p2)
	}
}

// TestBatchRollback: a failed distributed batch leaves data and directory
// untouched on every shard.
func TestBatchRollback(t *testing.T) {
	e := newCatalogEngine(t, 3)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"))
	mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0))
	boom := fmt.Errorf("boom")
	err := e.Batch(func(tx *Tx) error {
		if err := tx.Insert("product", row("P9", "OLED 27", "LG")); err != nil {
			return err
		}
		if _, err := tx.UpdateByPK("product", []xdm.Value{xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
			r[1] = xdm.Str("Elsewhere")
			return r
		}); err != nil {
			return err
		}
		if _, err := tx.Delete("vendor", func(reldb.Row) bool { return true }); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("batch err = %v, want boom", err)
	}
	if _, ok := e.OwnerOf("product", xdm.Str("P9")); ok {
		t.Error("rolled-back insert left a directory entry")
	}
	owner, ok := e.OwnerOf("product", xdm.Str("P1"))
	if !ok {
		t.Fatal("P1 lost from directory")
	}
	got, found, _ := e.Shard(owner).GetByPK("product", xdm.Str("P1"))
	if !found || got[1].Lexical() != "CRT 15" {
		t.Errorf("P1 after rollback: found=%v row=%v", found, got)
	}
	vends := 0
	for i := 0; i < e.NumShards(); i++ {
		vends += e.Shard(i).DB().RowCount("vendor")
	}
	if vends != 1 {
		t.Errorf("fleet holds %d vendors after rollback, want 1", vends)
	}
}

// TestTriggerFiresOnOwningShard: a trigger registered once on the fleet
// fires for updates routed to any shard, and Stats sums the firings.
func TestTriggerFiresOnOwningShard(t *testing.T) {
	e := newCatalogEngine(t, 4)
	var mu sync.Mutex
	var got []string
	e.RegisterAction("notify", func(inv core.Invocation) error {
		mu.Lock()
		got = append(got, inv.Trigger+":"+inv.New.Serialize(false))
		mu.Unlock()
		return nil
	})
	if err := e.CreateView("m", `<m>{for $q in view('default')/product/row return <p name={$q/pname} mfr={$q/mfr}></p>}</m>`); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger(`CREATE TRIGGER watch AFTER UPDATE ON view('m')/p DO notify(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "product",
		row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"),
		row("P3", "OLED 27", "LG"), row("P4", "Plasma 42", "Panasonic"))
	for _, pid := range []string{"P1", "P2", "P3", "P4"} {
		changed, err := e.UpdateByPK("product", []xdm.Value{xdm.Str(pid)}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Str("ACME")
			return r
		})
		if err != nil || !changed {
			t.Fatalf("update %s: changed=%v err=%v", pid, changed, err)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %d notifications, want 4: %v", len(got), got)
	}
	st := e.Stats()
	if st.Actions != 4 {
		t.Errorf("Stats.Actions = %d, want 4", st.Actions)
	}
	if st.XMLTriggers != 1 || st.Shards != 4 || len(st.PerShard) != 4 {
		t.Errorf("stats breakdown: %+v", st)
	}
}

// TestConcurrentRoutedWriters: writers hammering disjoint routing groups
// on different shards run concurrently without data races, every
// statement fires, and the directory stays consistent. (The scaling
// claim `benchrunner run shard` measures rests on this path being safe.)
func TestConcurrentRoutedWriters(t *testing.T) {
	e := newCatalogEngine(t, 4)
	var fired atomic.Int64
	e.RegisterAction("notify", func(core.Invocation) error {
		fired.Add(1)
		return nil
	})
	if err := e.CreateView("m", `<m>{for $q in view('default')/product/row return <p name={$q/pname} mfr={$q/mfr}></p>}</m>`); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger(`CREATE TRIGGER watch AFTER UPDATE ON view('m')/p DO notify(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	const groups, perGroup = 8, 25
	for g := 0; g < groups; g++ {
		mustInsert(t, e, "product", row(fmt.Sprintf("P%d", g), fmt.Sprintf("Group %d", g), "ACME"))
	}
	var wg sync.WaitGroup
	errs := make(chan error, groups)
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pid := fmt.Sprintf("P%d", g)
			for i := 0; i < perGroup; i++ {
				_, err := e.UpdateByPK("product", []xdm.Value{xdm.Str(pid)}, func(r reldb.Row) reldb.Row {
					r[2] = xdm.Str(fmt.Sprintf("mfr-%d", i))
					return r
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fired.Load(); got != groups*perGroup {
		t.Errorf("fired %d notifications, want %d", got, groups*perGroup)
	}
}

// TestGlobalPKUniqueness: the directory doubles as the fleet-wide PK
// index — a key that exists on ANY shard is rejected on insert and on
// PK-moving updates, matching the single engine's duplicate-key error
// even when the duplicate's routing columns hash to another shard.
func TestGlobalPKUniqueness(t *testing.T) {
	e := newCatalogEngine(t, 4)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"))
	// Same pid, different pname (different shard by routing): must fail.
	if err := e.Insert("product", row("P1", "Totally Different", "LG")); err == nil {
		t.Fatal("cross-shard duplicate pid accepted")
	}
	// Same inside a distributed transaction.
	err := e.Batch(func(tx *Tx) error {
		return tx.Insert("product", row("P1", "Another Name", "Sony"))
	})
	if err == nil {
		t.Fatal("cross-shard duplicate pid accepted inside a batch")
	}
	// Duplicate within one multi-row statement.
	if err := e.Insert("product", row("P7", "A", "X"), row("P7", "B", "Y")); err == nil {
		t.Fatal("intra-statement duplicate pid accepted")
	}
	// A PK move onto a key owned by another shard must fail and change
	// nothing.
	mustInsert(t, e, "product", row("P2", "Totally Different", "LG"))
	changed, err := e.UpdateByPK("product", []xdm.Value{xdm.Str("P2")}, func(r reldb.Row) reldb.Row {
		r[0] = xdm.Str("P1")
		return r
	})
	if err == nil || changed {
		t.Fatalf("PK move onto existing key: changed=%v err=%v", changed, err)
	}
	if _, ok := e.OwnerOf("product", xdm.Str("P2")); !ok {
		t.Error("failed PK move lost P2's directory entry")
	}
	total := 0
	for i := 0; i < e.NumShards(); i++ {
		total += e.Shard(i).DB().RowCount("product")
	}
	if total != 2 {
		t.Errorf("fleet holds %d products, want 2", total)
	}
}

// TestMultiShardInsertAtomicity: a multi-row insert spanning shards whose
// later row fails validation applies nothing anywhere (single-statement
// atomicity, like reldb's all-or-nothing applyInsert).
func TestMultiShardInsertAtomicity(t *testing.T) {
	e := newCatalogEngine(t, 4)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"))
	before := 0
	for i := 0; i < e.NumShards(); i++ {
		before += e.Shard(i).DB().RowCount("vendor")
	}
	// Two vendors on (almost surely) different shards; the second has a
	// NULL primary-key column, which reldb rejects at validation.
	err := e.Insert("vendor",
		row("Amazon", "P1", 100.0),
		reldb.Row{xdm.Null, xdm.Str("P2"), xdm.Float(1)},
	)
	if err == nil {
		t.Fatal("insert with NULL pk accepted")
	}
	after := 0
	for i := 0; i < e.NumShards(); i++ {
		after += e.Shard(i).DB().RowCount("vendor")
	}
	if after != before {
		t.Errorf("failed multi-shard insert left %d rows applied", after-before)
	}
	if _, ok := e.OwnerOf("vendor", xdm.Str("Amazon"), xdm.Str("P1")); ok {
		t.Error("failed multi-shard insert left a directory entry")
	}
}

// TestDirOpsTotalFold: a same-PK cross-shard migration carries BOTH its
// delete side (old shard) and set side (new shard) in the overlay; the
// two-phase protocol folds the overlay totally — deletes before sets, so
// the set side wins — or not at all (an aborted transaction discards it).
func TestDirOpsTotalFold(t *testing.T) {
	newRouterWithEntry := func() *Router {
		r := &Router{n: 4, dir: map[string]int{}}
		r.dir[dirKey("product", "k")] = 0
		return r
	}
	overlay := func() *dirOps {
		ov := newDirOps()
		ov.remove(dirKey("product", "k"))    // delete on old shard 0
		ov.record(dirKey("product", "k"), 2) // insert on new shard 2
		return ov
	}
	// Full commit: the set side wins; the row lives on shard 2.
	r := newRouterWithEntry()
	r.commit(overlay())
	if s, ok := r.lookup("product", "k", nil); !ok || s != 2 {
		t.Errorf("full fold: owner = %d ok=%v, want 2", s, ok)
	}
	// A pure delete (no re-insert) drops the entry.
	r = newRouterWithEntry()
	ovDel := newDirOps()
	ovDel.remove(dirKey("product", "k"))
	r.commit(ovDel)
	if _, ok := r.lookup("product", "k", nil); ok {
		t.Error("delete fold left a directory entry for a vanished row")
	}
	// An aborted transaction never folds: discarding the overlay leaves
	// the directory byte-identical.
	r = newRouterWithEntry()
	_ = overlay() // built, then dropped on abort
	if s, ok := r.lookup("product", "k", nil); !ok || s != 0 {
		t.Errorf("aborted overlay mutated the directory: owner = %d ok=%v, want 0", s, ok)
	}
	// In-tx lookup while both sides are pending sees the set side.
	ov := overlay()
	r = newRouterWithEntry()
	if s, ok := r.lookup("product", "k", ov); !ok || s != 2 {
		t.Errorf("overlay lookup: owner = %d ok=%v, want 2", s, ok)
	}
}

// TestSingleShardDegenerate: N=1 behaves like one engine for every path
// (fast, predicate, batch).
func TestSingleShardDegenerate(t *testing.T) {
	e := newCatalogEngine(t, 1)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"))
	mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0), row("Bestbuy", "P1", 120.0))
	n, err := e.Update("vendor", func(r reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(99.0)
		return r
	})
	if err != nil || n != 2 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	n, err = e.Delete("vendor", func(r reldb.Row) bool { return r[0].Lexical() == "Amazon" })
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	removed, err := e.DeleteByPK("vendor", xdm.Str("Bestbuy"), xdm.Str("P1"))
	if err != nil || !removed {
		t.Fatalf("deleteByPK: removed=%v err=%v", removed, err)
	}
	if e.Shard(0).DB().RowCount("vendor") != 0 {
		t.Error("vendors remain")
	}
}
