package core

import (
	"strings"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// twoGroups registers two groups on one path, in this order: First, which
// fires on any product, and Second, which watches 'CRT 15'. Their plans share
// the affected-node graph's operators.
func twoGroups(t *testing.T, e *Engine) {
	t.Helper()
	for _, src := range []string{
		`CREATE TRIGGER First AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER Second AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`,
	} {
		if err := e.CreateTrigger(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

func cutAmazonP1(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, setPrice(75)); err != nil {
		t.Fatal(err)
	}
}

// opsShared returns GroupStat.OpsShared of the group trigger belongs to.
func opsShared(t *testing.T, e *Engine, trigger string) int64 {
	t.Helper()
	e.mu.RLock()
	sig := e.triggers[trigger].g.sig
	e.mu.RUnlock()
	for _, gs := range e.GroupStats() {
		if gs.Sig == sig {
			return gs.OpsShared
		}
	}
	t.Fatalf("no group for %s", trigger)
	return 0
}

// On the point path the second group's plan takes what the first group's
// plan computed for the same statement: nothing was written in between.
func TestGroupsShareTheStatementsWork(t *testing.T) {
	e, log := newCatalogEngine(t, ModeGrouped)
	twoGroups(t, e)
	cutAmazonP1(t, e)
	if len(*log) != 2 {
		t.Fatalf("notifications %v, want First's and Second's", *log)
	}
	if (*log)[0].NewXML != (*log)[1].NewXML {
		t.Errorf("the groups saw different NEW_NODEs: %s, %s", (*log)[0].NewXML, (*log)[1].NewXML)
	}
	if n := opsShared(t, e, "Second"); n == 0 {
		t.Error("Second took nothing from First")
	}
	if n := opsShared(t, e, "First"); n != 0 {
		t.Errorf("First, which ran first, took %d outputs", n)
	}
}

// A synchronous action of the first group that writes a table the second
// group's plan reads — it renames product P2 into the 'CRT 15' group,
// bringing Buy.com's vendor element in — is seen by the second group's
// evaluation of the same statement: the write ends what the first plan's
// outputs may serve.
func TestGroupSeesAnEarlierGroupsWrite(t *testing.T) {
	e, log := newCatalogEngine(t, ModeGrouped)
	renamed := false
	e.RegisterAction("notifySmith", func(inv Invocation) error {
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
	twoGroups(t, e)
	cutAmazonP1(t, e)
	first, second := (*log)[0], (*log)[len(*log)-1]
	if first.Trigger != "First" || second.Trigger != "Second" {
		t.Fatalf("notifications %v, want the statement's First first and its Second last", *log)
	}
	if strings.Contains(first.NewXML, "Buy.com") {
		t.Errorf("First's NEW_NODE holds Buy.com before the rename: %s", first.NewXML)
	}
	if !strings.Contains(second.NewXML, "Buy.com") || !strings.Contains(second.NewXML, "75") {
		t.Errorf("Second's NEW_NODE misses the rename First's action made, or the update itself: %s", second.NewXML)
	}
}

// The members of one UNGROUPED group evaluate their own plans — the paper's
// per-trigger translation — and take nothing from each other, although
// their plans share most of their operators.
func TestUngroupedMembersShareNothing(t *testing.T) {
	e, log := newCatalogEngine(t, ModeUngrouped)
	for _, src := range []string{
		`CREATE TRIGGER A AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER B AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'LCD 19' DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER C AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`,
	} {
		if err := e.CreateTrigger(src); err != nil {
			t.Fatal(err)
		}
	}
	cutAmazonP1(t, e)
	if len(*log) != 2 {
		t.Fatalf("notifications %v, want A's and C's", *log)
	}
	gs := e.GroupStats()
	if len(gs) != 1 || gs[0].Mode != ModeUngrouped || gs[0].Fires < 3 {
		t.Fatalf("groups %+v, want one UNGROUPED group that evaluated each member's plan", gs)
	}
	if gs[0].OpsShared != 0 {
		t.Errorf("the members took %d outputs from each other", gs[0].OpsShared)
	}
}
