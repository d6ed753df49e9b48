package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quark/internal/compile"
	"quark/internal/trigger"
	"quark/internal/xdm"
	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// catalogProduct is the catalog view's product navigation node: NEW_NODE
// is column 0, @name column 1; OLD's follow from column 3.
func catalogProduct(t *testing.T) *compile.NavNode {
	t.Helper()
	e, _ := newCatalogEngine(t, ModeGrouped)
	v, _ := e.View("catalog")
	return v.Nav.Child("product")
}

func vendorPriceUpdate(e *Engine, price float64) error {
	_, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(price))
	return err
}

// Every trigger expression form the translator knows, from the top level
// and from inside a step predicate: the template each compiles to under
// the catalog's product layout, or the error it is rejected with.
func TestTriggerTranslation(t *testing.T) {
	nav := catalogProduct(t)
	for _, c := range []struct{ cond, want string }{
		{`NEW_NODE/@name = 'CRT 15'`, `($1 = ?0)`},
		{`OLD_NODE/@name != NEW_NODE/@name`, `($4 != $1)`},
		{`NEW_NODE/@name = 'a' or not(OLD_NODE/@name = 'b')`, `(($1 = ?0) or not(($4 = ?1)))`},
		{`count(NEW_NODE/vendor) + 1 > 2 * 2`, `((count($0/vendor) + ?0) > (?1 * ?2))`},
		{`NEW_NODE/./vendor/price = 1`, `($0/vendor/price = ?0)`},
		{`NEW_NODE/@zip = 1`, `($0/@zip = ?0)`},
		{`exists(NEW_NODE//price)`, `exists($0//price)`},
		{`count(NEW_NODE/vendor[./price < 100][./vid != 'x']) >= 1`,
			`(count($0/vendor[(($0/price < ?0) and ($0/vid != ?1))]) >= ?2)`},
		{`count(NEW_NODE/vendor[./price[. > 1] = 2]) > 0`, `(count($0/vendor[($0/price[($0 > ?0)] = ?1)]) > ?2)`},
		{`concat(NEW_NODE/@name, '!') = 'CRT 15!'`, `(concat($1, ?0) = ?1)`},
		{`count(NEW_NODE/vendor[coalesce(./price, 0) < 110]) >= 1`, `(count($0/vendor[(coalesce($0/price, ?0) < ?1)]) >= ?2)`},
		{`count(NEW_NODE/vendor[abs(./price) = 1 and string(./vid) = 'a']) = 0`,
			`(count($0/vendor[((abs($0/price) = ?0) and (string($0/vid) = ?1))]) = ?2)`},
		{`some $v in NEW_NODE/vendor satisfies $v/price < 100`, `(count($0/vendor[($0/price < ?0)]) > 0)`},
		{`every $v in NEW_NODE/vendor[./price > 1] satisfies $v/price < 100 and . != 0`,
			`(count($0/vendor[(($0/price > ?0) and ($0/price < ?1) and ($0 != ?2))]) = count($0/vendor[($0/price > ?0)]))`},
		{`count(NEW_NODE/vendor[some $p in ./price satisfies $p > 1]) = 1`,
			`(count($0/vendor[(count($0/price[($0 > ?0)]) > 0)]) = ?1)`},

		{`count() > 0`, `count() does not take 0 argument(s)`},
		{`not()`, `not() does not take 0 argument(s)`},
		{`deep-equal(NEW_NODE)`, `deep-equal() does not take 1 argument(s)`},
		{`count(NEW_NODE/vendor[bogus(./price)]) > 0`, `unknown function "bogus"`},
		{`sum(NEW_NODE/vendor/price) > 0`, `unknown function "sum"`},
		{`. = 1`, `"." outside a predicate`},
		{`$x = 1`, `unbound variable $x`},
		{`'a'/b = 1`, `trigger paths must start at`},
		{`count(NEW_NODE/vendor[./price < NEW_NODE/@name]) > 0`, `NEW_NODE inside a predicate`},
		{`count(NEW_NODE/vendor[$v/price < 1]) > 0`, `unbound variable $v`},
		{`count(NEW_NODE/vendor[data()]) > 0`, `data() does not take 0 argument(s)`},
		{`count(NEW_NODE/.[./x = 1]) > 0`, `predicates on a self step`},
		{`some $v in NEW_NODE/@name satisfies $v = 'a'`, `requires a path source`},
		{`some $v in NEW_NODE/vendor[bogus()] satisfies $v/price < 1`, `unknown function "bogus"`},
		{`some $v in NEW_NODE/vendor satisfies $w/price < 1`, `unbound variable $w`},
		{`if (NEW_NODE) then 1 else 2`, `unsupported expression`},
		{`NEW_NODE/@name = (1 + count())`, `count() does not take`},
	} {
		cond, err := xquery.Parse(c.cond)
		if err != nil {
			t.Fatalf("%s: %v", c.cond, err)
		}
		cc := &condCompiler{nav: nav, layout: identityLayout(nav)}
		got, _, err := cc.template(cond, nil)
		if err != nil {
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %q, want %q", c.cond, err, c.want)
			}
			continue
		}
		if got.String() != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.cond, got, c.want)
		}
	}
}

// Action arguments compile after the condition and read their constants
// from input 1, numbered from the condition's.
func TestTriggerArgumentTranslation(t *testing.T) {
	nav := catalogProduct(t)
	cc := &condCompiler{nav: nav, layout: Layout{New: 10, Old: 20}}
	cond, _ := xquery.Parse(`OLD_NODE/@name = 'a'`)
	arg1, _ := xquery.Parse(`concat(NEW_NODE/@name, 'b')`)
	got, args, err := cc.template(cond, []xquery.Expr{arg1, &xquery.NodeRef{Old: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "($21 = ?0)" || args[0].String() != "concat($11, $1.1)" || args[1].String() != "$20" || cc.nCond != 1 {
		t.Errorf("template %s, args %s %s, nCond %d", got, args[0], args[1], cc.nCond)
	}
	bad, _ := xquery.Parse(`bogus(NEW_NODE)`)
	if _, _, err := (&condCompiler{nav: nav}).template(nil, []xquery.Expr{bad}); err == nil {
		t.Error("an unknown function in an action argument compiled")
	}
}

// scenarioTriggers returns the CREATE TRIGGER statements of the
// conformance scenarios.
func scenarioTriggers(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../conformance/testdata/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range strings.Split(string(b), "[trigger]")[1:] {
			src, _, _ := strings.Cut(sec, "\n[")
			src, _, _ = strings.Cut(strings.TrimSpace(src), "\n\n")
			out = append(out, src)
		}
	}
	return out
}

// A member's constants, collected by xquery.Walk, are the ones the
// translator numbers, in AppendAbstract's "?" order: putting them back
// into the abstract text in that order gives the source text again.
func TestConstantsComeInAbstractOrder(t *testing.T) {
	nav := catalogProduct(t)
	srcs := scenarioTriggers(t)
	for _, cond := range []string{
		`some $v in NEW_NODE/vendor[./price > 5] satisfies $v/price < 100 and $v/vid = 'Amazon'`,
		`every $v in NEW_NODE/vendor satisfies $v/price * 2 - 1 > 50`,
		`NEW_NODE/@name = 'CRT 15' and count(NEW_NODE/vendor[./price[. > 1] < 70][./vid != 'x']) >= 1`,
		`(NEW_NODE/@name = 'a' or OLD_NODE/@name = 'b') and concat(NEW_NODE/@name, 'c') != 'd'`,
		`count(NEW_NODE/vendor[some $p in ./price satisfies $p > 7]) div 2 = 0.5`,
	} {
		srcs = append(srcs, "CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product WHERE "+cond+" DO notify(NEW_NODE/@name, 'arg', 3)")
	}
	for _, src := range srcs {
		spec, err := trigger.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		cc := &condCompiler{nav: nav, layout: identityLayout(nav)}
		if _, _, err := cc.template(spec.Condition, spec.ActionArgs); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		lits := appendLits(nil, spec.Condition, spec.ActionArgs)
		if !xdm.Equal(xdm.Seq(lits), xdm.Seq(cc.consts)) {
			t.Errorf("%s: Walk collects %v, the translator numbers %v", src, lits, cc.consts)
		}
		exprs := append([]xquery.Expr{spec.Condition}, spec.ActionArgs...)
		var abstract, plain []string
		for _, e := range exprs {
			abstract = append(abstract, string(xquery.AppendAbstract(nil, e)))
			plain = append(plain, xquery.String(e))
		}
		filled := strings.Join(abstract, "|")
		for _, v := range lits {
			filled = strings.Replace(filled, "?", v.String(), 1)
		}
		if filled != strings.Join(plain, "|") {
			t.Errorf("%s: constants out of order:\n got %s\nwant %s", src, filled, strings.Join(plain, "|"))
		}
	}
}

// Triggers that differ only in their literals join one group, whatever the
// shape of their condition, and each fires on its own constants.
func TestLiteralVariantsShareAGroup(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			for _, c := range []struct{ name, cond string }{
				{"cheap", `some $v in NEW_NODE/vendor satisfies $v/price * 2 < 160`},
				{"dear", `some $v in NEW_NODE/vendor satisfies $v/price * 2 < 10`},
				{"crt", `NEW_NODE/@name = 'CRT 15' and count(NEW_NODE/vendor[./price[. > 1] < 90]) >= 1`},
				{"lcd", `NEW_NODE/@name = 'LCD 19' and count(NEW_NODE/vendor[./price[. > 1] < 90]) >= 1`},
			} {
				src := "CREATE TRIGGER " + c.name + " AFTER UPDATE ON view('catalog')/product WHERE " + c.cond + " DO notifySmith(NEW_NODE)"
				if err := e.CreateTrigger(src); err != nil {
					t.Fatal(err)
				}
			}
			st := e.GroupStats()
			if len(st) != 2 || st[0].Members != 2 || st[1].Members != 2 {
				t.Fatalf("groups %+v, want two of two members", st)
			}
			if err := vendorPriceUpdate(e, 75); err != nil {
				t.Fatal(err)
			}
			var fired []string
			for _, n := range *log {
				fired = append(fired, n.Trigger)
			}
			if strings.Join(fired, ",") != "cheap,crt" && strings.Join(fired, ",") != "crt,cheap" {
				t.Errorf("fired %v, want cheap and crt", fired)
			}
		})
	}
}

// A call with the wrong number of arguments fails when the view or the
// trigger is created, with an error: it used to panic there (a view's
// data() or string()) or at the first write the trigger fired on.
func TestWrongArityFailsAtCreate(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			e, _ := newCatalogEngine(t, mode)
			for _, fn := range []string{"data", "string"} {
				err := e.CreateView("v_"+fn, `<catalog>{for $p in view('default')/product/row return <product name={`+fn+`()}/>}</catalog>`)
				if err == nil || !strings.Contains(err.Error(), fn+"() does not take 0") {
					t.Errorf("%s() in a view: %v", fn, err)
				}
			}
			for _, cond := range []string{`count() > 0`, `not()`, `count(NEW_NODE/vendor[bogus(./price)]) > 0`} {
				err := e.CreateTrigger(`CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product WHERE ` + cond + ` DO notifySmith(NEW_NODE)`)
				if err == nil {
					t.Errorf("%s: CreateTrigger accepted it", cond)
				}
			}
			if st := e.GroupStats(); len(st) != 0 {
				t.Errorf("rejected triggers left groups %+v", st)
			}
			if err := vendorPriceUpdate(e, 75); err != nil {
				t.Errorf("a write after the rejected triggers: %v", err)
			}
		})
	}
}

// The top level of a condition and its step predicates accept the same
// functions: concat and coalesce at the top, and in a predicate.
func TestPredicatesAndTopLevelShareFunctions(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			for name, cond := range map[string]string{
				"top":  `coalesce(concat(NEW_NODE/@name, '!'), 'x') = 'CRT 15!'`,
				"pred": `count(NEW_NODE/vendor[concat(coalesce(data(./vid), '?'), '!') = 'Amazon!' and ./price < 80]) = 1`,
			} {
				if err := e.CreateTrigger("CREATE TRIGGER " + name + " AFTER UPDATE ON view('catalog')/product WHERE " + cond + " DO notifySmith(NEW_NODE)"); err != nil {
					t.Fatal(err)
				}
			}
			if err := vendorPriceUpdate(e, 75); err != nil {
				t.Fatal(err)
			}
			if len(*log) != 2 {
				t.Errorf("notifications %+v, want top and pred", *log)
			}
		})
	}
}

// FuzzCompileTrigger creates an arbitrary trigger over the catalog view, in
// one of the three modes, and applies one vendor update: neither step may
// panic, and what fails returns an error.
func FuzzCompileTrigger(f *testing.F) {
	for _, cond := range []string{
		`count() > 0`,
		`not()`,
		`count(NEW_NODE/vendor[bogus(./price)]) > 0`,
		`data() = string()`,
		`OLD_NODE/@name = 'CRT 15'`,
		`some $v in NEW_NODE/vendor satisfies $v/price < 100`,
		`every $v in NEW_NODE/vendor[./price > 1] satisfies $v/price div 2 < 100 and . != 0`,
		`NEW_NODE/@name = 'CRT 15' and count(NEW_NODE/vendor[./price < 100]) >= 1`,
	} {
		for m := range Modes {
			f.Add("CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product WHERE "+cond+" DO notifySmith(NEW_NODE)", uint8(m))
		}
	}
	f.Add(`CREATE TRIGGER T AFTER DELETE ON view('catalog')//vendor DO notifySmith(OLD_NODE/price, concat(OLD_NODE/vid, 'x'))`, uint8(1))
	f.Fuzz(func(t *testing.T, src string, m uint8) {
		e, _ := newCatalogEngine(t, Modes[int(m)%len(Modes)])
		if err := e.CreateTrigger(src); err != nil {
			return
		}
		_ = vendorPriceUpdate(e, 75)
	})
}

// The function table is what Translate accepts and Call evaluates: every
// entry translates at its arity from a trigger, and evaluates.
func TestFunctionTableEntriesTranslate(t *testing.T) {
	nav := catalogProduct(t)
	for name, args := range map[string]string{
		"data": "NEW_NODE/@name", "string": "NEW_NODE/@name", "count": "NEW_NODE/vendor",
		"empty": "NEW_NODE/vendor", "exists": "NEW_NODE/vendor", "not": "NEW_NODE/@name = 'a'",
		"concat": "'a', 'b', 'c'", "abs": "-1", "coalesce": "NEW_NODE/@zip", "deep-equal": "OLD_NODE, NEW_NODE",
	} {
		if _, ok := xqgm.LookupFunc(name); !ok {
			t.Fatalf("%s is not in the function table", name)
		}
		cond, err := xquery.Parse(name + "(" + args + ")")
		if err != nil {
			t.Fatal(err)
		}
		cc := &condCompiler{nav: nav, layout: identityLayout(nav)}
		if _, _, err := cc.template(cond, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
