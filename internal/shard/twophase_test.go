package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

// newWatchedEngine builds a catalog fleet with a product-update trigger
// installed and every delivery recorded.
func newWatchedEngine(t *testing.T, n int) (*Engine, *[]string, *sync.Mutex) {
	t.Helper()
	e := newCatalogEngine(t, n)
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
	return e, &got, &mu
}

// stateDump renders every shard's rows plus the directory for
// byte-identical comparison.
func stateDump(e *Engine) string {
	var sb strings.Builder
	for si := 0; si < e.NumShards(); si++ {
		db := e.Shard(si).DB()
		for _, tbl := range []string{"product", "vendor"} {
			var lines []string
			for _, r := range db.AllRows(tbl) {
				lines = append(lines, xdm.TupleKey(r))
			}
			sort.Strings(lines)
			fmt.Fprintf(&sb, "shard %d %s: %s\n", si, tbl, strings.Join(lines, " | "))
		}
	}
	dir := e.Router().DirSnapshot()
	keys := make([]string, 0, len(dir))
	for k := range dir {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "dir %q -> %d\n", k, dir[k])
	}
	return sb.String()
}

// TestTwoPhasePrepareFailureRollsBackFleet: a prepare-phase failure on ANY
// shard of a multi-shard transaction leaves every shard and the routing
// directory byte-identical to the pre-transaction state, with nothing
// delivered — the partial-commit window the pre-2PC protocol had.
func TestTwoPhasePrepareFailureRollsBackFleet(t *testing.T) {
	const n = 3
	for k := 0; k < n; k++ {
		t.Run(fmt.Sprintf("failShard=%d", k), func(t *testing.T) {
			e, got, mu := newWatchedEngine(t, n)
			mustInsert(t, e, "product",
				row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"),
				row("P3", "OLED 27", "LG"), row("P4", "Plasma 42", "Panasonic"))
			mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0), row("Bestbuy", "P3", 150.0))
			pre := stateDump(e)

			boom := errors.New("injected prepare failure")
			e.Shard(k).SetPrepareCheck(func([]core.Invocation) error { return boom })
			err := e.Batch(func(tx *Tx) error {
				// Touch every product (spanning shards), insert a row, and
				// migrate P1 to another routing group.
				if _, err := tx.Update("product", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
					r[2] = xdm.Str("ACME")
					return r
				}); err != nil {
					return err
				}
				if err := tx.Insert("product", row("P9", "QLED 55", "TCL")); err != nil {
					return err
				}
				_, err := tx.UpdateByPK("product", []xdm.Value{xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
					r[1] = xdm.Str("Elsewhere")
					return r
				})
				return err
			})
			e.Shard(k).SetPrepareCheck(nil)
			if !errors.Is(err, boom) {
				t.Fatalf("batch error = %v, want the injected prepare failure", err)
			}
			mu.Lock()
			delivered := len(*got)
			mu.Unlock()
			if delivered != 0 {
				t.Errorf("aborted transaction delivered %d notifications: %v", delivered, *got)
			}
			if post := stateDump(e); post != pre {
				t.Errorf("aborted transaction left partial state:\n--- before ---\n%s--- after ---\n%s", pre, post)
			}
		})
	}
}

// TestTwoPhaseCommitDeliveryErrorCommitsAll: once every shard prepared, a
// delivery error during any shard's commit phase surfaces to the caller
// but can no longer unwind state — every shard's data commits and the
// directory folds completely, matching the single engine's AFTER-trigger
// contract instead of the old half-committed fleet.
func TestTwoPhaseCommitDeliveryErrorCommitsAll(t *testing.T) {
	const n = 3
	e, _, _ := newWatchedEngine(t, n)
	mustInsert(t, e, "product",
		row("P1", "CRT 15", "Samsung"), row("P2", "LCD 19", "Samsung"),
		row("P3", "OLED 27", "LG"), row("P4", "Plasma 42", "Panasonic"))

	// Make exactly one shard's deliveries fail: override the action on the
	// shard owning P3 (registrations are per embedded engine).
	owner, ok := e.OwnerOf("product", xdm.Str("P3"))
	if !ok {
		t.Fatal("P3 not in directory")
	}
	boom := errors.New("injected delivery failure")
	e.Shard(owner).RegisterAction("notify", func(core.Invocation) error { return boom })

	err := e.Batch(func(tx *Tx) error {
		_, err := tx.Update("product", func(reldb.Row) bool { return true }, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Str("ACME")
			return r
		})
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("batch error = %v, want the injected delivery failure", err)
	}
	// Every shard committed: all four rows carry the update, wherever they
	// live — including shards after the failing one in commit order.
	for _, pid := range []string{"P1", "P2", "P3", "P4"} {
		si, ok := e.OwnerOf("product", xdm.Str(pid))
		if !ok {
			t.Fatalf("%s lost from directory", pid)
		}
		r, found, _ := e.Shard(si).GetByPK("product", xdm.Str(pid))
		if !found || r[2].Lexical() != "ACME" {
			t.Errorf("%s on shard %d after commit-phase delivery error: found=%v row=%v (state must commit fleet-wide)", pid, si, found, r)
		}
	}
}
