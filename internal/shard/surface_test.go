package shard

import (
	"testing"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/xdm"
)

// resolves reports whether table's key is in the directory and its owner
// holds the row.
func resolves(t *testing.T, e *Engine, table string, key ...xdm.Value) bool {
	t.Helper()
	owner, ok := e.OwnerOf(table, key...)
	if !ok {
		for i := 0; i < e.NumShards(); i++ {
			if _, found, _ := e.Shard(i).GetByPK(table, key...); found {
				t.Fatalf("%s %v is on shard %d but not in the directory", table, key, i)
			}
		}
		return false
	}
	_, found, err := e.Shard(owner).GetByPK(table, key...)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("directory sends %s %v to shard %d, which lacks it", table, key, owner)
	}
	return true
}

// TestPKChangeOnOneShard changes primary keys through UpdateByPK without
// leaving the shard (a vendor renamed under its product, a product re-keyed
// within its routing group), then deletes a row by key inside a Batch:
// after each, the new key resolves, the old one does not, and the
// directory agrees with the rows.
func TestPKChangeOnOneShard(t *testing.T) {
	e := newCatalogEngine(t, 2)
	mustInsert(t, e, "product", row("P1", "CRT 15", "Samsung"), row("P2", "CRT 15", "Viewsonic"))
	mustInsert(t, e, "vendor", row("Amazon", "P1", 100.0), row("Bestbuy", "P1", 120.0))
	home, _ := e.OwnerOf("product", xdm.Str("P1"))

	steps := []struct {
		table    string
		from, to []xdm.Value
		set      func(reldb.Row) reldb.Row
	}{
		{"vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, []xdm.Value{xdm.Str("Zoom"), xdm.Str("P1")},
			func(r reldb.Row) reldb.Row { r[0] = xdm.Str("Zoom"); return r }},
		{"product", []xdm.Value{xdm.Str("P2")}, []xdm.Value{xdm.Str("P8")},
			func(r reldb.Row) reldb.Row { r[0] = xdm.Str("P8"); return r }},
	}
	for _, st := range steps {
		changed, err := e.UpdateByPK(st.table, st.from, st.set)
		if err != nil || !changed {
			t.Fatalf("%s %v -> %v: changed=%v err=%v", st.table, st.from, st.to, changed, err)
		}
		if owner, _ := e.OwnerOf(st.table, st.to...); owner != home {
			t.Errorf("%s %v moved to shard %d, want %d", st.table, st.to, owner, home)
		}
		if !resolves(t, e, st.table, st.to...) || resolves(t, e, st.table, st.from...) {
			t.Errorf("%s %v -> %v: the new key must resolve and the old one not", st.table, st.from, st.to)
		}
		if err := e.VerifyDirectory(); err != nil {
			t.Fatal(err)
		}
	}

	gone := []xdm.Value{xdm.Str("Zoom"), xdm.Str("P1")}
	if err := e.Batch(func(tx *Tx) error {
		removed, err := tx.DeleteByPK("vendor", gone...)
		if err == nil && !removed {
			t.Error("Tx.DeleteByPK removed nothing")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if resolves(t, e, "vendor", gone...) || !resolves(t, e, "vendor", xdm.Str("Bestbuy"), xdm.Str("P1")) {
		t.Error("after Tx.DeleteByPK the deleted key must not resolve and its sibling must")
	}
	if err := e.VerifyDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupStatsSumsTheFleet: after a write on each of two shards, every
// counter of the fleet's GroupStats is the sum over Shard(i).GroupStats.
func TestGroupStatsSumsTheFleet(t *testing.T) {
	e := newCatalogEngine(t, 2)
	e.RegisterAction("notify", func(core.Invocation) error { return nil })
	if err := e.CreateView("m", `<m>{for $q in view('default')/product/row return <p name={$q/pname} mfr={$q/mfr}></p>}</m>`); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`CREATE TRIGGER a AFTER UPDATE ON view('m')/p WHERE NEW_NODE/@mfr = 'ACME' DO notify(NEW_NODE)`,
		`CREATE TRIGGER b AFTER UPDATE ON view('m')/p WHERE NEW_NODE/@mfr = 'LG' DO notify(NEW_NODE)`,
	} {
		if err := e.CreateTrigger(src); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct names until two land on different shards.
	var pids []string
	seen := map[int]bool{}
	for i := 0; len(seen) < 2; i++ {
		pid := string(rune('A' + i))
		mustInsert(t, e, "product", row(pid, "name "+pid, "Samsung"))
		if o, _ := e.OwnerOf("product", xdm.Str(pid)); !seen[o] {
			seen[o] = true
			pids = append(pids, pid)
		}
	}
	for _, pid := range pids {
		if _, err := e.UpdateByPK("product", []xdm.Value{xdm.Str(pid)}, func(r reldb.Row) reldb.Row {
			r[2] = xdm.Str("ACME")
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}

	fleet := e.GroupStats()
	if len(fleet) != 1 || fleet[0].Members != 2 {
		t.Fatalf("fleet groups: %+v", fleet)
	}
	var want core.GroupStat
	for i := 0; i < e.NumShards(); i++ {
		gs := e.Shard(i).GroupStats()
		if len(gs) != 1 {
			t.Fatalf("shard %d has %d groups", i, len(gs))
		}
		if gs[0].Fires == 0 {
			t.Errorf("shard %d never fired; the test proves no sum", i)
		}
		want.Fires += gs[0].Fires
		want.EvalNS += gs[0].EvalNS
		want.DeltaRows += gs[0].DeltaRows
		want.Activations += gs[0].Activations
		want.RowsReused += gs[0].RowsReused
		want.JoinsSkipped += gs[0].JoinsSkipped
		want.NodesBuilt += gs[0].NodesBuilt
		want.OpsShared += gs[0].OpsShared
		want.OpsEvaluated += gs[0].OpsEvaluated
		want.RowsProduced += gs[0].RowsProduced
	}
	got := fleet[0]
	got.Sig, got.Mode, got.ModeName, got.Members = "", 0, "", 0
	if got != want {
		t.Errorf("fleet GroupStats %+v, want the shards' sum %+v", got, want)
	}
	if want.Activations != 2 {
		t.Errorf("%d activations, want 2 (one ACME update per shard)", want.Activations)
	}
}
