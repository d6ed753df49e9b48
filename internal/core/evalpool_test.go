package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// fresh makes e build an evaluation context for every statement and commit
// and keep none: the reference a kept context must deliver the same as.
func fresh(e *Engine) *Engine {
	e.evals.idle = 0
	return e
}

// serialize is n's XML, "-" for none.
func serialize(n *xdm.Node) string {
	if n == nil {
		return "-"
	}
	return n.Serialize(false)
}

// recordAll replaces notifySmith with an action that logs each invocation's
// trigger and both nodes, and returns the log.
func recordAll(e *Engine, then func(Invocation) error) *[]string {
	var log []string
	e.RegisterAction("notifySmith", func(inv Invocation) error {
		log = append(log, fmt.Sprintf("%s old=%s new=%s", inv.Trigger, serialize(inv.Old), serialize(inv.New)))
		if then != nil {
			return then(inv)
		}
		return nil
	})
	return &log
}

// warmUp runs a product statement whose bodies borrow a context and give it
// back, so the engine has one to lend.
func warmUp(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.UpdateByPK("product", []xdm.Value{xdm.Str("P3")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Str("Acme")
		return r
	}); err != nil {
		t.Fatal(err)
	}
}

// Firings nested in a body borrow contexts of their own, so what an engine
// that keeps its contexts delivers is what one that builds a context per
// statement delivers, event for event. In the first case the first action of
// a vendor statement that fires for two elements renames product P2 into
// 'CRT 15' while the statement's delivery loop still holds its second row;
// in the second a raw trigger between the two groups' bodies updates another
// vendor row, a statement on the same table nested in the first one. Each
// starts with a context to lend.
func TestNestedFiringsDeliverWhatFreshContextsDo(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T, e *Engine) []string
	}{
		{"action writes another table", func(t *testing.T, e *Engine) []string {
			armed := false
			log := recordAll(e, func(Invocation) error {
				if !armed {
					return nil
				}
				armed = false
				_, err := e.DB().UpdateByPK("product", []xdm.Value{xdm.Str("P2")}, func(r reldb.Row) reldb.Row {
					r[1] = xdm.Str("CRT 15")
					return r
				})
				return err
			})
			twoGroups(t, e)
			warmUp(t, e)
			armed = true
			if _, err := e.Update("vendor", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(r[2].AsFloat() + 1)
				return r
			}); err != nil {
				t.Fatal(err)
			}
			return *log
		}},
		{"raw cascade on the same table", func(t *testing.T, e *Engine) []string {
			log, armed := recordAll(e, nil), false
			create := func(src string) {
				if err := e.CreateTrigger(src); err != nil {
					t.Fatal(err)
				}
			}
			create(`CREATE TRIGGER First AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE)`)
			if err := e.DB().CreateTrigger(&reldb.SQLTrigger{Name: "cascade", Table: "vendor", Event: reldb.EvUpdate, Body: func(ctx *reldb.FireContext) error {
				if ctx.Depth > 1 || !armed {
					return nil
				}
				if ctx.EngineState == nil {
					return fmt.Errorf("the engine's body did not run before the cascade")
				}
				_, err := ctx.DB.UpdateByPK("vendor", []xdm.Value{xdm.Str("Bestbuy"), xdm.Str("P3")}, func(r reldb.Row) reldb.Row {
					r[2] = xdm.Float(99)
					return r
				})
				return err
			}}); err != nil {
				t.Fatal(err)
			}
			create(`CREATE TRIGGER Second AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`)
			warmUp(t, e)
			armed = true
			cutAmazonP1(t, e)
			return *log
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			kept, _ := newCatalogEngine(t, ModeGrouped)
			reference, _ := newCatalogEngine(t, ModeGrouped)
			got, want := c.run(t, kept), c.run(t, fresh(reference))
			if len(want) < 4 {
				t.Fatalf("the reference delivered %d invocations, want the outer statement's and the nested one's: %q", len(want), want)
			}
			if !slices.Equal(got, want) {
				t.Errorf("with kept contexts:\n%s\nwith fresh ones:\n%s", fmt.Sprint(got), fmt.Sprint(want))
			}
		})
	}
}

// Statements and commits on disjoint tables run at once, each in a context
// of its own: every delivery carries the price its own writer just wrote,
// and under -race a shared context is a race. Every context borrowed goes
// back once.
func TestConcurrentWritersNeverShareAContext(t *testing.T) {
	e, _, _ := newTwoMarketEngine(t, ModeGrouped)
	const iters = 100
	var mu sync.Mutex // guards want between a writer and its action
	want := map[string]string{}
	for _, act := range []string{"actA", "actB"} {
		e.RegisterAction(act, func(inv Invocation) error {
			sym, _ := inv.New.Attribute("sym")
			price, _ := inv.New.Attribute("price")
			mu.Lock()
			defer mu.Unlock()
			if w := want[inv.Trigger+sym]; price != w {
				return fmt.Errorf("%s delivered %s at %s, its writer wrote %s", inv.Trigger, sym, price, w)
			}
			return nil
		})
	}
	errs := make(chan error, 2)
	for _, side := range []struct{ table, trigger string }{{"quoteA", "WA"}, {"quoteB", "WB"}} {
		go func() {
			errs <- func() error {
				for i := 0; i < iters; i++ {
					p := float64(1000*len(side.table) + i)
					expect := func(sym string) {
						mu.Lock()
						want[side.trigger+sym] = xdm.Float(p).Lexical()
						mu.Unlock()
					}
					if i%2 == 0 {
						expect("X1")
						if _, err := e.UpdateByPK(side.table, []xdm.Value{xdm.Str("X1")}, setQuotePrice(p)); err != nil {
							return err
						}
						continue
					}
					expect("X1")
					expect("X2")
					if err := e.BatchTables([]string{side.table}, func(tx *reldb.Tx) error {
						_, err := tx.Update(side.table, func(reldb.Row) bool { return true }, setQuotePrice(p))
						return err
					}); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	free := e.evals.free
	if len(free) == 0 || len(free) > 2 {
		t.Errorf("%d contexts idle after two writers, want 1 or 2", len(free))
	}
	for i, es := range free {
		if slices.Contains(free[i+1:], es) {
			t.Errorf("context %p is on the free list twice: two borrowers would share it", es)
		}
	}
}

// A commit that needs far more memory for its outputs than a context keeps
// leaves the context it borrowed, and the statement after it, at most
// maxKeptBytes: output arenas, Δ-key and ∇ indexes and pruning scratch
// together (xqgm's TestRebindKeepsIndexesWithinTheCap holds the indexes
// alone to it, reldb's TestTableScratchIsCapped the net-delta scratch, and
// TestPointWriteAfterAHugeCommit the point write after it to the firing
// budgets).
func TestKeptMemoryIsCapped(t *testing.T) {
	const maxKept = 1 << 20 // xqgm's maxKeptBytes
	e, firedA, _ := newTwoMarketEngine(t, ModeGrouped)
	rows := make([]reldb.Row, 10_000)
	for i := range rows {
		rows[i] = reldb.Row{xdm.Str(fmt.Sprintf("S%05d", i)), xdm.Float(float64(i))}
	}
	if err := e.DB().Insert("quoteA", rows...); err != nil {
		t.Fatal(err)
	}
	if err := e.Batch(func(tx *reldb.Tx) error {
		_, err := tx.Update("quoteA", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
			r[1] = xdm.Float(r[1].AsFloat() + 0.5)
			return r
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := firedA.Load(); got != 10_002 {
		t.Fatalf("the commit delivered %d invocations, want one per row", got)
	}
	if _, err := e.UpdateByPK("quoteA", []xdm.Value{xdm.Str("X1")}, setQuotePrice(7)); err != nil {
		t.Fatal(err)
	}
	if len(e.evals.free) == 0 {
		t.Fatal("no context went back to the engine")
	}
	for _, es := range e.evals.free {
		if kept := es.KeptBytes(); kept > maxKept {
			t.Errorf("a context keeps %d bytes, cap %d", kept, maxKept)
		}
	}
}
