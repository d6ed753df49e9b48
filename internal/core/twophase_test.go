package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

const watchCRTTrigger = `
	CREATE TRIGGER WatchCRT AFTER UPDATE ON view('catalog')/product
	WHERE NEW_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`

// TestPrepareCheckAbortsBatch: a failing prepare check rolls the whole
// batch back — no notifications, no log records, no state — and the check
// observes the staged invocation set, in every delivery configuration.
func TestPrepareCheckAbortsBatch(t *testing.T) {
	for _, c := range []struct {
		mode           Mode
		durable, async bool
	}{
		{mode: ModeGrouped},
		{mode: ModeMaterialized},
		{mode: ModeGrouped, durable: true},
		{mode: ModeMaterialized, durable: true},
		{mode: ModeGrouped, async: true},
		{mode: ModeMaterialized, async: true},
		{mode: ModeGrouped, durable: true, async: true},
	} {
		name := c.mode.String()
		if c.durable {
			name += "+durable"
		}
		if c.async {
			name += "+async"
		}
		t.Run(name, func(t *testing.T) {
			e, log := newCatalogEngine(t, c.mode)
			if err := e.CreateTrigger(watchCRTTrigger); err != nil {
				t.Fatal(err)
			}
			var lg *outbox.Log
			if c.durable {
				var err error
				if lg, err = outbox.Open(t.TempDir(), outbox.Options{}); err != nil {
					t.Fatal(err)
				}
				defer lg.Close()
				if err := e.EnableOutbox(lg, nil); err != nil {
					t.Fatal(err)
				}
			}
			if c.async {
				if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 64, Policy: dispatch.Block}); err != nil {
					t.Fatal(err)
				}
				defer e.Close()
			}
			records := func(appended int64, acked uint64) {
				t.Helper()
				if lg == nil {
					return
				}
				if st := lg.Stats(); st.Appended != appended || st.Acked != acked {
					t.Errorf("log appended %d and acked %d records, want %d and %d", st.Appended, st.Acked, appended, acked)
				}
			}
			boom := fmt.Errorf("vetoed")
			var staged int
			e.SetPrepareCheck(func(invs []Invocation) error {
				staged = len(invs)
				return boom
			})
			err := e.Batch(func(tx *reldb.Tx) error {
				_, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(90))
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "vetoed") {
				t.Fatalf("batch error = %v, want the prepare-check veto", err)
			}
			if staged == 0 {
				t.Error("prepare check saw no staged invocations; the update should activate WatchCRT")
			}
			e.Drain()
			if len(*log) != 0 {
				t.Errorf("aborted batch delivered: %+v", *log)
			}
			records(0, 0)
			r, ok, _ := e.DB().GetByPK("vendor", xdm.Str("Amazon"), xdm.Str("P1"))
			if !ok || r[2].AsFloat() != 100 {
				t.Errorf("aborted batch left state behind: %v", r)
			}
			// Disarmed, the same batch commits and delivers.
			e.SetPrepareCheck(nil)
			if err := e.Batch(func(tx *reldb.Tx) error {
				_, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(90))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			e.Drain()
			if len(*log) != 1 {
				t.Errorf("disarmed batch delivered %d notifications, want 1", len(*log))
			}
			records(1, 1)
		})
	}
}

// TestBatchHandlePrepareCommitRollback drives the explicit two-phase
// surface a coordinator uses: Prepare stages without delivering and keeps
// the handle open for either Commit (delivers) or Rollback (no trace).
func TestBatchHandlePrepareCommitRollback(t *testing.T) {
	e, log := newCatalogEngine(t, ModeGrouped)
	if err := e.CreateTrigger(watchCRTTrigger); err != nil {
		t.Fatal(err)
	}

	// Prepare + Rollback: nothing delivered, nothing applied.
	h, err := e.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Tx().UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(77)); err != nil {
		t.Fatal(err)
	}
	if err := h.Prepare(); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 0 {
		t.Fatalf("prepare delivered: %+v", *log)
	}
	if err := h.Rollback(); err != nil {
		t.Fatal(err)
	}
	if r, _, _ := e.DB().GetByPK("vendor", xdm.Str("Amazon"), xdm.Str("P1")); r[2].AsFloat() != 100 {
		t.Fatalf("rolled-back prepared batch left price %v", r[2])
	}

	// Prepare + Commit: the staged wave delivers.
	h, err = e.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Tx().UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(66)); err != nil {
		t.Fatal(err)
	}
	if err := h.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := h.Prepare(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := h.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 1 {
		t.Fatalf("committed prepared batch delivered %d notifications, want 1", len(*log))
	}
}

// TestOutboxGroupCommitWave: a batch commit with the outbox enabled
// appends the whole firing wave as one grouped write; the log holds every
// delivery in activation order with contiguous sequences, and all are
// acknowledged after the inline wave ran.
func TestOutboxGroupCommitWave(t *testing.T) {
	e, log := newCatalogEngine(t, ModeGrouped)
	if err := e.CreateTrigger(watchCRTTrigger); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger(`
		CREATE TRIGGER NewProducts AFTER INSERT ON view('catalog')/product
		DO notifySmith(NEW_NODE)`); err != nil {
		t.Fatal(err)
	}
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if err := e.EnableOutbox(lg, nil); err != nil {
		t.Fatal(err)
	}
	err = e.Batch(func(tx *reldb.Tx) error {
		if _, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(90)); err != nil {
			return err
		}
		if err := tx.Insert("product", reldb.Row{xdm.Str("P9"), xdm.Str("OLED 27"), xdm.Str("LG")}); err != nil {
			return err
		}
		return tx.Insert("vendor",
			reldb.Row{xdm.Str("Amazon"), xdm.Str("P9"), xdm.Float(500)},
			reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P9"), xdm.Float(480)},
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(*log) < 2 {
		t.Fatalf("batch delivered %d notifications, want >= 2 (update + insert events)", len(*log))
	}
	st := lg.Stats()
	if st.Appended != int64(len(*log)) {
		t.Errorf("outbox appended %d records for %d deliveries", st.Appended, len(*log))
	}
	if st.Acked != st.NextSeq-1 {
		t.Errorf("inline wave left unacked records: acked %d of %d", st.Acked, st.NextSeq-1)
	}
	recs, err := lg.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d; group append must assign contiguous sequences", i, r.Seq)
		}
		if r.Trigger != (*log)[i].Trigger {
			t.Errorf("log order diverges from delivery order at %d: %s vs %s", i, r.Trigger, (*log)[i].Trigger)
		}
	}
}

// TestCommitDeliveryErrorKeepsBatchState: with a sync failing action, the
// batch surfaces the delivery error but the data stays applied, and with
// an outbox the failed delivery's record stays durable for replay.
func TestCommitDeliveryErrorKeepsBatchState(t *testing.T) {
	e, _ := newCatalogEngine(t, ModeGrouped)
	boom := fmt.Errorf("sink down")
	e.RegisterAction("notifySmith", func(Invocation) error { return boom })
	if err := e.CreateTrigger(watchCRTTrigger); err != nil {
		t.Fatal(err)
	}
	lg, err := outbox.Open(t.TempDir(), outbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if err := e.EnableOutbox(lg, nil); err != nil {
		t.Fatal(err)
	}
	err = e.Batch(func(tx *reldb.Tx) error {
		_, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(90))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "sink down") {
		t.Fatalf("batch error = %v, want the delivery failure", err)
	}
	r, ok, _ := e.DB().GetByPK("vendor", xdm.Str("Amazon"), xdm.Str("P1"))
	if !ok || r[2].AsFloat() != 90 {
		t.Errorf("delivery error unwound the committed update: %v", r)
	}
	st := lg.Stats()
	if st.Appended == 0 {
		t.Fatal("failed delivery was never made durable")
	}
	if st.Acked != 0 {
		t.Errorf("failed delivery was acknowledged (acked=%d); it must stay due for replay", st.Acked)
	}
}

// TestCommitDeliveryErrorRefreshesEveryBaseline: a commit whose delivery
// to one group fails still moves every group's view of the data forward,
// so a later statement activates each group for what it changed and for
// nothing the failed commit changed. Two groups watch one update; the
// first group's action fails once, which aborts the commit's wave before
// the second group's delivery. MATERIALIZED diffs against a baseline the
// commit publishes: it must publish every group's before any delivery can
// fail, or the second group diffs the next statement against stale data.
func TestCommitDeliveryErrorRefreshesEveryBaseline(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			failed := false
			e.RegisterAction("boom", func(Invocation) error {
				if failed {
					return nil
				}
				failed = true
				return fmt.Errorf("boom")
			})
			for _, src := range []string{
				`CREATE TRIGGER A AFTER UPDATE ON view('catalog')/product DO boom(NEW_NODE)`,
				`CREATE TRIGGER B AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE)`,
			} {
				if err := e.CreateTrigger(src); err != nil {
					t.Fatal(err)
				}
			}
			err := e.Batch(func(tx *reldb.Tx) error {
				_, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(90))
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("batch error = %v, want A's delivery failure", err)
			}
			*log = nil
			if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Buy.com"), xdm.Str("P2")}, setPrice(50)); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, n := range *log {
				got = append(got, n.Trigger+" "+n.NewKey)
			}
			if want := []string{"B LCD 19"}; !slices.Equal(got, want) {
				t.Errorf("the later update delivered %q, want %q", got, want)
			}
		})
	}
}
