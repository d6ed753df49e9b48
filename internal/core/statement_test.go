package core

import (
	"strings"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// The plans that fire for one statement evaluate in one evaluation context,
// but each starts from an empty memo: a synchronous action of the first
// UNGROUPED member that writes another table — here it renames product P2
// into the 'CRT 15' group, bringing Buy.com's vendor element in — is seen by
// the second member's evaluation of the same statement. The two members have
// no condition, so they evaluate one shared plan, which a memo kept across
// bodies would serve from before the write.
func TestUngroupedMemberSeesAnEarlierActionsWrite(t *testing.T) {
	e, log := newCatalogEngine(t, ModeUngrouped)
	renamed := false
	var order []string
	e.RegisterAction("notifySmith", func(inv Invocation) error {
		order = append(order, inv.Trigger)
		*log = append(*log, notification{Trigger: inv.Trigger, NewXML: inv.New.Serialize(false)})
		if inv.Trigger != "First" || renamed {
			return nil
		}
		renamed = true
		_, err := e.DB().UpdateByPK("product", []xdm.Value{xdm.Str("P2")}, func(r reldb.Row) reldb.Row {
			r[1] = xdm.Str("CRT 15")
			return r
		})
		return err
	})
	for _, name := range []string{"First", "Second"} {
		if err := e.CreateTrigger(`CREATE TRIGGER ` + name + ` AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE)`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
		r[2] = xdm.Float(75)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if gs := e.GroupStats(); len(gs) != 1 || gs[0].Mode != ModeUngrouped {
		t.Fatalf("groups = %+v, want the two members in one UNGROUPED group", gs)
	}
	// The vendor statement's First, the nested product statement's First and
	// Second, then the vendor statement's Second.
	if len(*log) != 4 || order[0] != "First" || order[3] != "Second" {
		t.Fatalf("notifications %v, want First, the nested statement's two, Second", order)
	}
	first, second := (*log)[0].NewXML, (*log)[3].NewXML
	if strings.Contains(first, "Buy.com") {
		t.Errorf("First's NEW_NODE holds Buy.com before the rename: %s", first)
	}
	if !strings.Contains(second, "Buy.com") || !strings.Contains(second, "75") {
		t.Errorf("Second's NEW_NODE misses the rename the first action made, or the update itself: %s", second)
	}
}
