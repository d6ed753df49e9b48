package core_test

import (
	"strings"
	"testing"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/shard"
	"quark/internal/xdm"
)

// A trigger on a view that nests review, a table with no primary key, has
// no canonical key to translate review's changes by: GROUPED and UNGROUPED
// reject it at CreateTrigger and leave the engine as it was, with no group
// and statements running. MATERIALIZED diffs whole snapshots, needs no
// key, and accepts it.
func TestUncompilableTriggerLeavesNoTrace(t *testing.T) {
	s := schema.New()
	s.MustAddTable(&schema.Table{Name: "product", PrimaryKey: []string{"pid"}, Columns: []schema.Column{
		{Name: "pid", Type: schema.TString}, {Name: "pname", Type: schema.TString}}})
	s.MustAddTable(&schema.Table{Name: "review", Columns: []schema.Column{
		{Name: "pid", Type: schema.TString}, {Name: "stars", Type: schema.TInt}}})
	for _, mode := range core.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			db, err := reldb.Open(s)
			if err != nil {
				t.Fatal(err)
			}
			e := core.NewEngine(db, mode)
			e.RegisterAction("notify", func(core.Invocation) error { return nil })
			if err := e.CreateView("reviews", `<catalog>{for $p in view('default')/product/row return <product name={$p/pname}>
				{for $r in view('default')/review/row[./pid = $p/pid] return <review>{$r/stars}</review>}</product>}</catalog>`); err != nil {
				t.Fatal(err)
			}
			err = e.CreateTrigger(`CREATE TRIGGER Watch AFTER UPDATE ON view('reviews')/product DO notify(NEW_NODE)`)
			if mode == core.ModeMaterialized {
				if err != nil {
					t.Fatalf("MATERIALIZED rejected the trigger: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "no canonical key") {
				t.Fatalf("CreateTrigger returned %v, want the canonical-key error", err)
			}
			if st := e.GroupStats(); len(st) != 0 {
				t.Errorf("the rejected trigger left groups %+v", st)
			}
			if err := e.Insert("product", reldb.Row{xdm.Str("P1"), xdm.Str("CRT 15")}); err != nil {
				t.Errorf("a statement after the rejected trigger: %v", err)
			}
		})
	}
}

// A sharded engine keeps a trigger on every shard or on none. Sharding
// routes rows by key, so it cannot hold the keyless table above; here
// shard 1 fails to install the trigger's first SQL trigger, whose name an
// SQL trigger of its own already has. Shard 1 leaves itself as it was,
// and the fleet drops the trigger from shard 0.
func TestShardedTriggerFailingOnOneShardLeavesNone(t *testing.T) {
	e, err := shard.New(schema.ProductVendor(), shard.Config{Shards: 2, Mode: core.ModeGrouped})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterAction("notify", func(core.Invocation) error { return nil })
	if err := e.CreateView("catalog", `<catalog>{for $p in view('default')/product/row return <product name={$p/pname}/>}</catalog>`); err != nil {
		t.Fatal(err)
	}
	taken := &reldb.SQLTrigger{Name: "xmlTrig_1", Table: "product", Event: reldb.EvUpdate, Body: func(*reldb.FireContext) error { return nil }}
	if err := e.Shard(1).DB().CreateTrigger(taken); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger(`CREATE TRIGGER Watch AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)`); err == nil {
		t.Fatal("CreateTrigger succeeded though shard 1 could not install it")
	}
	for i := 0; i < e.NumShards(); i++ {
		if st := e.Shard(i).Stats(); st.XMLTriggers != 0 || st.Groups != 0 || st.SQLTriggers != i {
			t.Errorf("shard %d kept %d triggers, %d groups and %d SQL triggers", i, st.XMLTriggers, st.Groups, st.SQLTriggers)
		}
	}
	if err := e.Insert("product", reldb.Row{xdm.Str("P1"), xdm.Str("CRT 15"), xdm.Str("Samsung")}); err != nil {
		t.Errorf("a statement after the rejected trigger: %v", err)
	}
}
