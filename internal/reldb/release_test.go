package reldb

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"quark/internal/xdm"
)

// releaser is an EngineState that logs its Release.
type releaser struct {
	name string
	log  *[]string
}

func (r *releaser) Release() { *r.log = append(*r.log, "release "+r.name) }

// A statement's EngineState is released once, after its last body, and a
// statement a body executes has its own, released when that statement ends —
// before the outer statement's next body runs. A failing body releases it
// too.
func TestEngineStateReleasedAfterTheLastBody(t *testing.T) {
	db := pvDB(t)
	loadPaperData(t, db)
	var log []string
	fail, inserted := false, 0
	body := func(name string, then func(*FireContext) error) func(*FireContext) error {
		return func(ctx *FireContext) error {
			log = append(log, name)
			if ctx.EngineState == nil {
				ctx.EngineState = &releaser{ctx.Table, &log}
			}
			if then != nil {
				return then(ctx)
			}
			return nil
		}
	}
	for _, tr := range []*SQLTrigger{
		{Name: "A", Table: "vendor", Event: EvUpdate, Body: body("A", func(*FireContext) error {
			inserted++
			return db.Insert("product", Row{xdm.Str(fmt.Sprint("T", inserted)), xdm.Str("Tablet"), xdm.Str("Acme")})
		})},
		{Name: "N", Table: "product", Event: EvInsert, Body: body("N", nil)},
		{Name: "B", Table: "vendor", Event: EvUpdate, Body: body("B", func(*FireContext) error {
			if fail {
				return errors.New("B failed")
			}
			return nil
		})},
	} {
		if err := db.CreateTrigger(tr); err != nil {
			t.Fatal(err)
		}
	}
	cut := func() error {
		_, err := db.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
			r[2] = xdm.Float(r[2].AsFloat() - 1)
			return r
		})
		return err
	}
	if err := cut(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "N", "release product", "B", "release vendor"}
	if !slices.Equal(log, want) {
		t.Errorf("statement: %q, want %q", log, want)
	}
	log, fail = nil, true
	if err := cut(); err == nil {
		t.Fatal("B's error did not fail the statement")
	}
	if !slices.Equal(log, want) {
		t.Errorf("failing statement: %q, want %q", log, want)
	}
}

// A commit's BatchInfo.EngineState is released once, when the prepare phase
// has run the last firing wave's bodies — failed or not — and before Commit
// runs the staged deliveries.
func TestBatchEngineStateReleasedAfterPrepare(t *testing.T) {
	for _, failing := range []bool{false, true} {
		db := pvDB(t)
		loadPaperData(t, db)
		var log []string
		body := func(ctx *FireContext) error {
			log = append(log, fmt.Sprintf("%s %s", ctx.Table, ctx.Event))
			if ctx.Batch.EngineState == nil {
				ctx.Batch.EngineState = &releaser{"commit", &log}
			}
			ctx.Stage(func() error { log = append(log, "deliver"); return nil })
			if failing && ctx.Table == "vendor" {
				return errors.New("vendor body failed")
			}
			return nil
		}
		for _, tr := range []*SQLTrigger{
			{Name: "P", Table: "product", Event: EvInsert, Body: body},
			{Name: "V", Table: "vendor", Event: EvUpdate, Body: body},
		} {
			if err := db.CreateTrigger(tr); err != nil {
				t.Fatal(err)
			}
		}
		tx := db.Begin()
		if err := tx.Insert("product", Row{xdm.Str("P9"), xdm.Str("Tablet"), xdm.Str("Acme")}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r Row) Row {
			r[2] = xdm.Float(75)
			return r
		}); err != nil {
			t.Fatal(err)
		}
		want := []string{"product INSERT", "vendor UPDATE", "release commit"}
		if err := tx.Prepare(); (err != nil) != failing {
			t.Fatalf("failing=%t: Prepare = %v", failing, err)
		}
		if !slices.Equal(log, want) {
			t.Errorf("failing=%t: prepare logged %q, want %q", failing, log, want)
		}
		if failing {
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if want = append(want, "deliver", "deliver"); !slices.Equal(log, want) {
			t.Errorf("commit logged %q, want %q", log, want)
		}
	}
}
