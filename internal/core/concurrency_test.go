package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// TestConcurrentEvalViewAndBatchedWrites drives concurrent readers
// (EvalView, Stats) against batched and single-statement writers. Run
// under -race this checks the per-table lock discipline: readers must see
// consistent view snapshots while writers mutate and fire triggers.
func TestConcurrentEvalViewAndBatchedWrites(t *testing.T) {
	e, _ := newCatalogEngine(t, ModeGrouped)
	var fired atomic.Int64
	e.RegisterAction("count", func(Invocation) error {
		fired.Add(1)
		return nil
	})
	err := e.CreateTrigger(`
		CREATE TRIGGER Watch AFTER UPDATE ON view('catalog')/product
		WHERE NEW_NODE/@name = 'CRT 15' DO count(NEW_NODE)`)
	if err != nil {
		t.Fatal(err)
	}

	const iters = 50
	var wg sync.WaitGroup

	// Batched writer: repriced vendors of P1 in one commit per iteration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			err := e.Batch(func(tx *reldb.Tx) error {
				for _, v := range []string{"Amazon", "Bestbuy"} {
					if _, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str(v), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
						r[2] = xdm.Float(float64(80 + i%40))
						return r
					}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Single-statement writer on a different product.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Bestbuy"), xdm.Str("P3")}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(float64(100 + i%25))
				return r
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Concurrent readers: view evaluation and stats polling.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n, err := e.EvalView("catalog")
				if err != nil {
					t.Error(err)
					return
				}
				if len(n.ChildElements("product")) == 0 {
					t.Error("view snapshot lost all products")
					return
				}
				_ = e.Stats()
				_ = e.DB().Stats()
			}
		}()
	}

	wg.Wait()
	if fired.Load() == 0 {
		t.Fatal("no notifications fired; the test did not exercise the write path")
	}
}
