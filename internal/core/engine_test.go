package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"quark/internal/fixtures"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

const catalogSrc = `
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

// notification captures one action invocation.
type notification struct {
	Trigger string
	Event   reldb.Event
	OldKey  string
	NewKey  string
	NewXML  string
	Args    int
}

func newCatalogEngine(t *testing.T, mode Mode) (*Engine, *[]notification) {
	t.Helper()
	db, err := fixtures.OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, mode)
	var log []notification
	e.RegisterAction("notifySmith", func(inv Invocation) error {
		n := notification{Trigger: inv.Trigger, Event: inv.Event, Args: len(inv.Args)}
		if inv.Old != nil {
			n.OldKey, _ = inv.Old.Attribute("name")
		}
		if inv.New != nil {
			n.NewKey, _ = inv.New.Attribute("name")
			n.NewXML = inv.New.Serialize(false)
		}
		log = append(log, n)
		return nil
	})
	if err := e.CreateView("catalog", catalogSrc); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.View("catalog"); !ok || v.Nav.ElemName != "catalog" {
		t.Fatal("View does not return the view CreateView registered")
	}
	return e, &log
}

// TestPaperNotifyTrigger runs the paper's Section 2.2 example end to end:
// the Notify trigger fires on the price update with the new product value.
func TestPaperNotifyTrigger(t *testing.T) {
	for _, mode := range []Mode{ModeUngrouped, ModeGrouped, ModeMaterialized} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			err := e.CreateTrigger(`
				CREATE TRIGGER Notify AFTER UPDATE
				ON view('catalog')/product
				WHERE OLD_NODE/@name = 'CRT 15'
				DO notifySmith(NEW_NODE)`)
			if err != nil {
				t.Fatal(err)
			}
			// Amazon discounts P1 (the paper's transition-table example).
			if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(75)
				return r
			}); err != nil {
				t.Fatal(err)
			}
			if len(*log) != 1 {
				t.Fatalf("notifications = %d, want 1", len(*log))
			}
			n := (*log)[0]
			if n.Trigger != "Notify" || n.NewKey != "CRT 15" {
				t.Errorf("notification = %+v", n)
			}
			if !strings.Contains(n.NewXML, "75.00") {
				t.Errorf("NEW_NODE should carry the new price: %s", n.NewXML)
			}
			// A non-matching product update does not fire.
			*log = nil
			if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Buy.com"), xdm.Str("P2")}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(190)
				return r
			}); err != nil {
				t.Fatal(err)
			}
			if len(*log) != 0 {
				t.Errorf("LCD 19 update fired the CRT 15 trigger: %+v", *log)
			}
			// Descendant updates fire too ("not only for direct updates to
			// a <product> element, but also for updates to its descendant
			// nodes"): handled above since the update was to a vendor.
		})
	}
}

// TestInsertAndDeleteTriggers: count-threshold crossings fire INSERT and
// DELETE triggers with the right node bindings.
func TestInsertAndDeleteTriggers(t *testing.T) {
	for _, mode := range []Mode{ModeUngrouped, ModeGrouped, ModeMaterialized} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			if err := e.CreateTrigger(`CREATE TRIGGER NewProd AFTER INSERT ON view('catalog')/product DO notifySmith(NEW_NODE)`); err != nil {
				t.Fatal(err)
			}
			if err := e.CreateTrigger(`CREATE TRIGGER GoneProd AFTER DELETE ON view('catalog')/product DO notifySmith(OLD_NODE)`); err != nil {
				t.Fatal(err)
			}
			// New product with one vendor: not yet in the view.
			if err := e.Insert("product", reldb.Row{xdm.Str("P4"), xdm.Str("OLED 27"), xdm.Str("LG")}); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert("vendor", reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(900)}); err != nil {
				t.Fatal(err)
			}
			if len(*log) != 0 {
				t.Fatalf("%s: premature fire: %+v", mode, *log)
			}
			// Second vendor: OLED 27 enters the view -> INSERT.
			if err := e.Insert("vendor", reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P4"), xdm.Float(950)}); err != nil {
				t.Fatal(err)
			}
			if len(*log) != 1 || (*log)[0].Trigger != "NewProd" || (*log)[0].NewKey != "OLED 27" {
				t.Fatalf("INSERT notifications = %+v", *log)
			}
			if (*log)[0].OldKey != "" {
				t.Error("INSERT must not bind OLD_NODE")
			}
			// Remove one vendor: OLED 27 leaves the view -> DELETE.
			*log = nil
			if _, err := e.DeleteByPK("vendor", xdm.Str("Amazon"), xdm.Str("P4")); err != nil {
				t.Fatal(err)
			}
			if len(*log) != 1 || (*log)[0].Trigger != "GoneProd" || (*log)[0].OldKey != "OLED 27" {
				t.Fatalf("DELETE notifications = %+v", *log)
			}
		})
	}
}

// TestGroupingSharesSQLTriggers: structurally similar triggers form one
// group in every mode; the grouped modes share one SQL trigger per (table,
// event) where UNGROUPED installs one per member (Section 5.1) — and both
// deliver the same notifications.
func TestGroupingSharesSQLTriggers(t *testing.T) {
	names := []string{"CRT 15", "LCD 19", "OLED 27", "Plasma 42", "TFT 17"}
	counts := map[Mode]int{}
	fired := map[Mode][]string{}
	for _, mode := range []Mode{ModeUngrouped, ModeGrouped} {
		e, log := newCatalogEngine(t, mode)
		for i, nm := range names {
			err := e.CreateTrigger(fmt.Sprintf(`
				CREATE TRIGGER T%d AFTER UPDATE ON view('catalog')/product
				WHERE OLD_NODE/@name = '%s' DO notifySmith(NEW_NODE)`, i, nm))
			if err != nil {
				t.Fatal(err)
			}
		}
		st := e.Stats()
		counts[mode] = st.SQLTriggers
		if st.Groups != 1 || st.PerGroup[0].Members != len(names) {
			t.Errorf("%s: %d groups (%+v), want 1 group of %d", mode, st.Groups, st.PerGroup, len(names))
		}
		discountP1(t, e, 75)
		if _, err := e.Update("vendor", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Float(r[2].AsFloat() + 1)
			return r
		}); err != nil {
			t.Fatal(err)
		}
		for _, n := range *log {
			fired[mode] = append(fired[mode], n.Trigger+"/"+n.NewXML)
		}
		sort.Strings(fired[mode])
	}
	if counts[ModeUngrouped] != len(names)*counts[ModeGrouped] {
		t.Errorf("SQL triggers: ungrouped=%d grouped=%d (want %dx)", counts[ModeUngrouped], counts[ModeGrouped], len(names))
	}
	if len(fired[ModeGrouped]) < 2 {
		t.Fatalf("GROUPED fired %v, want several notifications", fired[ModeGrouped])
	}
	if !reflect.DeepEqual(fired[ModeUngrouped], fired[ModeGrouped]) {
		t.Errorf("UNGROUPED fired %v\nGROUPED fired %v", fired[ModeUngrouped], fired[ModeGrouped])
	}
}

// TestGroupedActivationRouting: with many grouped triggers, only those
// whose constants match are activated.
func TestGroupedActivationRouting(t *testing.T) {
	e, log := newCatalogEngine(t, ModeGrouped)
	for i, nm := range []string{"CRT 15", "CRT 15", "LCD 19"} {
		err := e.CreateTrigger(fmt.Sprintf(`
			CREATE TRIGGER T%d AFTER UPDATE ON view('catalog')/product
			WHERE OLD_NODE/@name = '%s' DO notifySmith(NEW_NODE)`, i, nm))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(80)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	var fired []string
	for _, n := range *log {
		fired = append(fired, n.Trigger)
	}
	sort.Strings(fired)
	if fmt.Sprint(fired) != "[T0 T1]" {
		t.Errorf("fired = %v, want [T0 T1] (both CRT 15 triggers, not the LCD 19 one)", fired)
	}
}

// TestNestedGroupedCondition reproduces the Section 5.1 hard case:
// count(NEW_NODE/vendor[./price < x]) >= y with per-trigger constants,
// under grouping.
func TestNestedGroupedCondition(t *testing.T) {
	for _, mode := range []Mode{ModeUngrouped, ModeGrouped} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			// T_cheap: >=2 vendors under 130; T_mid: >=2 under 210;
			// T_many: >=3 under 500.
			cases := []struct {
				name string
				x, y int
			}{
				{"T_cheap", 130, 2},
				{"T_mid", 210, 2},
				{"T_many", 500, 3},
			}
			for _, c := range cases {
				err := e.CreateTrigger(fmt.Sprintf(`
					CREATE TRIGGER %s AFTER UPDATE ON view('catalog')/product
					WHERE count(NEW_NODE/vendor[./price < %d]) >= %d
					DO notifySmith(NEW_NODE)`, c.name, c.x, c.y))
				if err != nil {
					t.Fatal(err)
				}
			}
			// Update LCD 19's Buy.com price: LCD 19 vendors become
			// (Bestbuy 180, Buy.com 190): under 130: 0; under 210: 2;
			// under 500: 2. So T_mid fires, T_cheap and T_many don't.
			if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Buy.com"), xdm.Str("P2")}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(190)
				return r
			}); err != nil {
				t.Fatal(err)
			}
			var fired []string
			for _, n := range *log {
				if n.NewKey == "LCD 19" {
					fired = append(fired, n.Trigger)
				}
			}
			sort.Strings(fired)
			if fmt.Sprint(fired) != "[T_mid]" {
				t.Errorf("fired = %v, want [T_mid]", fired)
			}
		})
	}
}

// TestAllModesAgree drives a random statement mix through all four modes
// and demands identical notification streams (the MATERIALIZED oracle
// validating the translated pipeline end to end).
func TestAllModesAgree(t *testing.T) {
	type run struct {
		mode Mode
		log  []string
	}
	var runs []run
	for _, mode := range []Mode{ModeUngrouped, ModeGrouped, ModeMaterialized} {
		db, err := fixtures.OpenPaperDB()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(db, mode)
		var log []string
		e.RegisterAction("rec", func(inv Invocation) error {
			key := ""
			if inv.New != nil {
				key, _ = inv.New.Attribute("name")
			} else if inv.Old != nil {
				key, _ = inv.Old.Attribute("name")
			}
			newXML := ""
			if inv.New != nil {
				newXML = inv.New.Serialize(false)
			}
			log = append(log, fmt.Sprintf("%s/%s/%s/%s", inv.Trigger, inv.Event, key, newXML))
			return nil
		})
		if err := e.CreateView("catalog", catalogSrc); err != nil {
			t.Fatal(err)
		}
		for i, nm := range []string{"CRT 15", "LCD 19", "OLED 27"} {
			if err := e.CreateTrigger(fmt.Sprintf(
				`CREATE TRIGGER U%d AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = '%s' DO rec(NEW_NODE)`, i, nm)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CreateTrigger(`CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO rec(NEW_NODE)`); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateTrigger(`CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO rec(OLD_NODE)`); err != nil {
			t.Fatal(err)
		}

		r := rand.New(rand.NewSource(2024))
		pids := []string{"P1", "P2", "P3"}
		vids := []string{"Amazon", "Bestbuy", "Buy.com", "Circuitcity", "Newegg"}
		names := []string{"CRT 15", "LCD 19", "OLED 27"}
		nextP := 4
		for step := 0; step < 30; step++ {
			log = append(log, "--step--")
			switch r.Intn(5) {
			case 0:
				pid := fmt.Sprintf("P%d", nextP)
				nextP++
				pids = append(pids, pid)
				if err := e.Insert("product", reldb.Row{xdm.Str(pid), xdm.Str(names[r.Intn(len(names))]), xdm.Str("m")}); err != nil {
					t.Fatal(err)
				}
			case 1:
				vid, pid := vids[r.Intn(len(vids))], pids[r.Intn(len(pids))]
				if _, ok, _ := e.DB().GetByPK("vendor", xdm.Str(vid), xdm.Str(pid)); ok {
					continue
				}
				if err := e.Insert("vendor", reldb.Row{xdm.Str(vid), xdm.Str(pid), xdm.Float(float64(60 + r.Intn(200)))}); err != nil {
					t.Fatal(err)
				}
			case 2:
				pid := pids[r.Intn(len(pids))]
				price := float64(60 + r.Intn(200))
				if _, err := e.Update("vendor",
					func(row reldb.Row) bool { return row[1].AsString() == pid },
					func(row reldb.Row) reldb.Row { row[2] = xdm.Float(price); return row }); err != nil {
					t.Fatal(err)
				}
			case 3:
				vid := vids[r.Intn(len(vids))]
				if _, err := e.Delete("vendor", func(row reldb.Row) bool { return row[0].AsString() == vid }); err != nil {
					t.Fatal(err)
				}
			case 4:
				pid := pids[r.Intn(len(pids))]
				nm := names[r.Intn(len(names))]
				if _, err := e.Update("product",
					func(row reldb.Row) bool { return row[0].AsString() == pid },
					func(row reldb.Row) reldb.Row { row[1] = xdm.Str(nm); return row }); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Per-step notification order can differ between modes; sort
		// within steps.
		var normalized []string
		var bucket []string
		flushB := func() {
			sort.Strings(bucket)
			normalized = append(normalized, bucket...)
			bucket = nil
		}
		for _, l := range log {
			if l == "--step--" {
				flushB()
				normalized = append(normalized, l)
				continue
			}
			bucket = append(bucket, l)
		}
		flushB()
		runs = append(runs, run{mode: mode, log: normalized})
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if len(r.log) != len(base.log) {
			t.Fatalf("%s produced %d entries, %s produced %d", base.mode, len(base.log), r.mode, len(r.log))
		}
		for i := range r.log {
			if r.log[i] != base.log[i] {
				t.Fatalf("mode divergence at %d:\n%s: %s\n%s: %s", i, base.mode, base.log[i], r.mode, r.log[i])
			}
		}
	}
}

// TestDropTrigger: a dropped trigger's SQL triggers are gone when
// DropTrigger returns, and it stops firing.
func TestDropTrigger(t *testing.T) {
	e, log := newCatalogEngine(t, ModeGrouped)
	if err := e.CreateTrigger(`CREATE TRIGGER T1 AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	if e.Stats().SQLTriggers == 0 {
		t.Fatal("no SQL triggers installed")
	}
	if err := e.DropTrigger("T1"); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SQLTriggers; got != 0 {
		t.Errorf("SQL triggers after drop = %d, want 0", got)
	}
	if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(42)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 0 {
		t.Errorf("dropped trigger fired: %+v", *log)
	}
	if err := e.DropTrigger("T1"); err == nil {
		t.Error("double drop accepted")
	}
}

// TestEngineErrors: bad trigger definitions fail cleanly.
func TestEngineErrors(t *testing.T) {
	e, _ := newCatalogEngine(t, ModeGrouped)
	cases := []string{
		`CREATE TRIGGER X AFTER UPDATE ON view('nosuch')/product DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER X AFTER UPDATE ON view('catalog')/nosuch DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER X AFTER UPDATE ON view('catalog')/product DO unregistered(NEW_NODE)`,
		`CREATE TRIGGER X AFTER INSERT ON view('catalog')/product WHERE OLD_NODE/@name = 'x' DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER X AFTER DELETE ON view('catalog')/product DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER X AFTER FROB ON view('catalog')/product DO notifySmith(NEW_NODE)`,
	}
	for _, src := range cases {
		if err := e.CreateTrigger(src); err == nil {
			t.Errorf("CreateTrigger(%q): expected error", src)
		}
	}
	if err := e.CreateTrigger(`CREATE TRIGGER D1 AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger(`CREATE TRIGGER D1 AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE)`); err == nil {
		t.Error("duplicate trigger name accepted")
	}
}

// TestSQLTextRendering: installed plans render as Figure 16-style SQL.
func TestSQLTextRendering(t *testing.T) {
	e, _ := newCatalogEngine(t, ModeGrouped)
	if err := e.CreateTrigger(`
		CREATE TRIGGER Notify AFTER UPDATE ON view('catalog')/product
		WHERE OLD_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	texts := e.SQLTexts()
	if len(texts) == 0 {
		t.Fatal("no SQL texts")
	}
	joined := ""
	for k, v := range texts {
		joined += k + "\n" + v + "\n"
	}
	for _, want := range []string{"WITH", "SELECT", "GROUP BY", "INSERTED_vendor", "DELETED_vendor", "VALUES"} {
		if !strings.Contains(joined, want) {
			t.Errorf("SQL text missing %q:\n%s", want, joined)
		}
	}
}

// TestDescendantPathTrigger: ON view('catalog')//vendor monitors the nested
// level.
func TestDescendantPathTrigger(t *testing.T) {
	e, log := newCatalogEngine(t, ModeGrouped)
	err := e.CreateTrigger(`CREATE TRIGGER VW AFTER UPDATE ON view('catalog')//vendor DO notifySmith(NEW_NODE)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(90)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 1 {
		t.Fatalf("vendor-level notifications = %d, want 1", len(*log))
	}
	if !strings.Contains((*log)[0].NewXML, "<price>90.00</price>") {
		t.Errorf("vendor NEW_NODE = %s", (*log)[0].NewXML)
	}
}

// TestEvalView: the engine can materialize views on demand.
func TestEvalView(t *testing.T) {
	e, _ := newCatalogEngine(t, ModeGrouped)
	n, err := e.EvalView("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "catalog" || len(n.ChildElements("product")) != 2 {
		t.Errorf("view = %s", n.Serialize(false))
	}
	if _, err := e.EvalView("nosuch"); err == nil {
		t.Error("unknown view accepted")
	}
}

// TestSignatureKeepsIdentifiersAndQuotedConstants: a group signature
// abstracts literals and nothing else. Abstracting digit runs of the
// rendered text put count(NEW_NODE/v1) and count(NEW_NODE/v9) into one
// group, whose template — the first member's condition — then decided for
// both; and a constant containing a quote fell out of its siblings' group.
func TestSignatureKeepsIdentifiersAndQuotedConstants(t *testing.T) {
	const view = `
<catalog>
{for $p in view('default')/product/row
 let $vs := view('default')/vendor/row[./pid = $p/pid]
 return <product name={$p/pname}>{for $v in $vs return <v1>{$v/price}</v1>}</product>}
</catalog>`
	triggers := map[string]string{ // a is true on every update; the view has no <v9>
		"a": `CREATE TRIGGER a AFTER UPDATE ON view('c')/product WHERE count(NEW_NODE/v1) >= 1 DO notify(NEW_NODE)`,
		"b": `CREATE TRIGGER b AFTER UPDATE ON view('c')/product WHERE count(NEW_NODE/v9) >= 1 DO notify(NEW_NODE)`,
	}
	run := func(mode Mode, order ...string) map[string]int {
		db, err := fixtures.OpenPaperDB()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(db, mode)
		fired := map[string]int{}
		e.RegisterAction("notify", func(inv Invocation) error { fired[inv.Trigger]++; return nil })
		if err := e.CreateView("c", view); err != nil {
			t.Fatal(err)
		}
		for _, name := range order {
			if err := e.CreateTrigger(triggers[name]); err != nil {
				t.Fatal(err)
			}
		}
		for _, price := range []float64{80, 90, 95} {
			discountP1(t, e, price)
		}
		return fired
	}
	for _, order := range [][]string{{"a", "b"}, {"b", "a"}} {
		want := run(ModeMaterialized, order...)
		if fmt.Sprint(want) != "map[a:3]" {
			t.Fatalf("oracle, order %v: fired %v, want map[a:3]", order, want)
		}
		for _, mode := range []Mode{ModeUngrouped, ModeGrouped} {
			if got := run(mode, order...); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, order %v: fired %v, oracle %v", mode, order, got, want)
			}
		}
	}

	e, _ := newCatalogEngine(t, ModeGrouped)
	for i, name := range []string{`CRT 15`, `say "hi" 5 times`, `it''s`} {
		if err := e.CreateTrigger(fmt.Sprintf(`CREATE TRIGGER q%d AFTER UPDATE ON view('catalog')/product
			WHERE NEW_NODE/@name = '%s' DO notifySmith(NEW_NODE)`, i, name)); err != nil {
			t.Fatal(err)
		}
	}
	if sigs := e.GroupSigs(); len(sigs) != 1 || !strings.HasSuffix(sigs[0], `|(NEW_NODE/@name = ?)|notifySmith,NEW_NODE`) {
		t.Errorf("group signatures = %q, want one ending in (NEW_NODE/@name = ?)", sigs)
	}
}
