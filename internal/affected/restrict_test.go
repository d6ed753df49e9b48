package affected

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"quark/internal/compile"
	"quark/internal/fixtures"
	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// pidCatalog is the catalog keyed by product id, so a rename is an UPDATE
// whose OLD and NEW names differ.
const pidCatalog = `<catalog>
{for $p in view('default')/product/row
 let $vendors := view('default')/vendor/row[./pid = $p/pid]
 where count($vendors) >= 2
 return <product id={$p/pid} name={$p/pname}>
   {for $vendor in $vendors return <vendor>{$vendor/*}</vendor>}
 </product>}
</catalog>`

// sortedKeys renders rows as sorted tuple keys, a multiset to compare.
func sortedKeys(rows []xqgm.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = xdm.TupleKey(r)
	}
	sort.Strings(out)
	return out
}

// TestRestrictAgreesWithSelect: for every event graph, condition and random
// commit, the member plan Select(Restrict(cond), cond) yields exactly the
// rows of Select(Root, cond). The conditions read NEW, OLD, both, a mix
// inside one conjunct, a path no filter can evaluate, and NULL-tolerant
// ones that hold on the absent side of an INSERT or DELETE row — which is
// why only the side a graph's rows carry is ever restricted.
func TestRestrictAgreesWithSelect(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	nav := compile.New(db.Schema()).MustCompileView("catalog", pidCatalog).Nav.Child("product")
	graphs := map[string]map[reldb.Event]*ANGraph{}
	for _, table := range []string{"product", "vendor"} {
		graphs[table] = map[reldb.Event]*ANGraph{}
		for _, ev := range []reldb.Event{reldb.EvUpdate, reldb.EvInsert, reldb.EvDelete} {
			an, err := CreateANGraph(db.Schema(), ev, nav.Op, table, Options{Prune: true, CompareCols: []int{nav.NodeCol}})
			if err != nil {
				t.Fatal(err)
			}
			graphs[table][ev] = an
		}
	}
	an := graphs["vendor"][reldb.EvUpdate] // every graph has the same layout
	name, node := nav.Attrs["name"], nav.NodeCol
	newName, oldName := xqgm.Col(an.NewCol(name)), xqgm.Col(an.OldCol(name))
	is := func(c xqgm.Expr, s string) xqgm.Expr { return &xqgm.Cmp{Op: "=", L: c, R: xqgm.LitOf(xdm.Str(s))} }
	vendors := &xqgm.Call{Name: "count", Args: []xqgm.Expr{&xqgm.PathStep{In: xqgm.Col(an.NewCol(node)), Axis: "child", Name: "vendor"}}}
	conds := []xqgm.Expr{
		is(newName, "CRT 15"),
		is(oldName, "CRT 15"),
		xqgm.And(is(newName, "LCD 19"), is(oldName, "CRT 15")),
		xqgm.And(is(newName, "CRT 15"), &xqgm.Cmp{Op: ">", L: vendors, R: xqgm.LitOf(xdm.Int(2))}),
		&xqgm.Logic{Op: "or", Args: []xqgm.Expr{is(oldName, "CRT 15"), is(newName, "CRT 15")}},
		&xqgm.Logic{Op: "not", Args: []xqgm.Expr{is(newName, "CRT 15")}},
		&xqgm.Call{Name: "empty", Args: []xqgm.Expr{oldName}},
		xqgm.And(&xqgm.Call{Name: "empty", Args: []xqgm.Expr{newName}}, is(oldName, "LCD 19")),
	}

	names := []string{"CRT 15", "LCD 19", "OLED 27"}
	vids := []string{"Amazon", "Bestbuy", "Buy.com", "Circuitcity", "Newegg"}
	pids := []string{"P1", "P2", "P3"}
	delivered, skipped := 0, 0
	for step := 0; step < 80; step++ {
		tx := db.Begin()
		for n := 1 + r.Intn(3); n > 0; n-- {
			pid, vid := pids[r.Intn(len(pids))], vids[r.Intn(len(vids))]
			var err error
			switch r.Intn(4) {
			case 0:
				_, err = tx.Update("product", func(row reldb.Row) bool { return row[0].AsString() == pid },
					func(row reldb.Row) reldb.Row { row[1] = xdm.Str(names[r.Intn(len(names))]); return row })
			case 1:
				if _, ok, _ := db.GetByPK("vendor", xdm.Str(vid), xdm.Str(pid)); !ok {
					err = tx.Insert("vendor", reldb.Row{xdm.Str(vid), xdm.Str(pid), xdm.Float(float64(50 + r.Intn(300)))})
				}
			case 2:
				_, err = tx.Delete("vendor", func(row reldb.Row) bool { return row[0].AsString() == vid && row[1].AsString() == pid })
			case 3:
				_, err = tx.Update("vendor", func(row reldb.Row) bool { return row[1].AsString() == pid },
					func(row reldb.Row) reldb.Row { row[2] = xdm.Float(float64(50 + r.Intn(300))); return row })
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Prepare(); err != nil {
			t.Fatal(err)
		}
		deltas := map[string]*xqgm.Transition{}
		for table, nd := range tx.Staged().Deltas {
			// The commit's deltas are cleared when it finishes: copied, they outlive it.
			deltas[table] = &xqgm.Transition{Inserted: slices.Clone(nd.Inserted), Deleted: slices.Clone(nd.Deleted)}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for table := range deltas {
			for ev, g := range graphs[table] {
				for ci, cond := range conds {
					restricted := xqgm.NewEvalContext(db, deltas)
					got, err := restricted.Eval(xqgm.NewSelect(g.Restrict(cond), cond))
					if err != nil {
						t.Fatal(err)
					}
					want, err := xqgm.NewEvalContext(db, deltas).Eval(xqgm.NewSelect(g.Root, cond))
					if err != nil {
						t.Fatal(err)
					}
					if a, b := sortedKeys(got), sortedKeys(want); fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("step %d, %v on %s, condition %d (%s): restricted %d rows, unrestricted %d\n%v\n%v",
							step, ev, table, ci, cond, len(got), len(want), a, b)
					}
					delivered += len(got)
					skipped += restricted.Stats.JoinsSkipped
				}
			}
		}
	}
	if delivered == 0 || skipped == 0 {
		t.Errorf("rows delivered %d, joins skipped %d: the comparison checked nothing", delivered, skipped)
	}
}

// TestAntiJoinNeedsCoveredKey: an INSERT graph may restrict its NEW side to
// the affected keys with no OLD node only when the canonical key is among
// the affected-key columns. Here it is not: an offer is a (product, vendor)
// pair, keyed by the vendor row, and a product update affects it by the
// product key. Renaming P1's maker to Amazon makes Amazon's offer vanish
// while P1's other offers stay, and renaming it back makes it reappear — P1
// has nodes on both sides, and the one that comes or goes must come out.
func TestAntiJoinNeedsCoveredKey(t *testing.T) {
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	v := compile.New(db.Schema()).MustCompileView("deals", `<deals>
{for $p in view('default')/product/row
 for $v in view('default')/vendor/row[./pid = $p/pid and ./vid != $p/mfr]
 return <offer pid={$p/pid} vid={$v/vid}></offer>}
</deals>`)
	nav := v.Nav.Child("offer")
	setMfr := func(mfr string) map[string]*xqgm.Transition {
		return captureStatement(t, db, "product", func() error {
			_, err := db.UpdateByPK("product", []xdm.Value{xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Str(mfr)
				return r
			})
			return err
		})
	}
	for _, step := range []struct {
		ev  reldb.Event
		mfr string
	}{{reldb.EvDelete, "Amazon"}, {reldb.EvInsert, "Samsung"}} {
		an, err := CreateANGraph(db.Schema(), step.ev, nav.Op, "product", Options{Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := an.Eval(db, setMfr(step.mfr))
		if err != nil {
			t.Fatal(err)
		}
		side := func(p Pair) xqgm.Tuple { return p.New }
		if step.ev == reldb.EvDelete {
			side = func(p Pair) xqgm.Tuple { return p.Old }
		}
		if len(pairs) != 1 || side(pairs[0])[nav.Attrs["vid"]].AsString() != "Amazon" {
			t.Errorf("%v with mfr %s: %d pairs, want Amazon's offer alone", step.ev, step.mfr, len(pairs))
		}
	}
}
