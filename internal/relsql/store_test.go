package relsql_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/relsql"
	"quark/internal/workload"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// staleCheck verifies every plan through the shadow and counts the plans
// for whose table the shadow rejects the SQL in stale.
type staleCheck struct {
	sh       *relsql.Shadow
	stale    map[string]string // by table
	rejected int
}

func (c *staleCheck) VerifyPlan(table, sqlText string, deltas map[string]*xqgm.Transition, rows []xqgm.Tuple) error {
	if s, ok := c.stale[table]; ok && c.sh.VerifyPlan(table, s, deltas, rows) != nil {
		c.rejected++
	}
	return c.sh.VerifyPlan(table, sqlText, deltas, rows)
}

// A grouped plan's SQL lists its constants table, which changes when a
// trigger joins the group without the plan being compiled again. The
// shadow's mirror executes the SQL the plan renders then, before and after
// a member joins, and agrees with the evaluator row for row: the joined
// member's TrigIDs is in both. The SQL rendered before the join no longer
// agrees.
func TestVerifyPlanBeforeAndAfterAMemberJoins(t *testing.T) {
	w, err := workload.Build(workload.Params{Depth: 2, LeafTuples: 64, Fanout: 8}, core.ModeGrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := w.Engine
	var fired []string
	e.RegisterAction("rec", func(inv core.Invocation) error {
		fired = append(fired, inv.Trigger)
		return nil
	})
	create := func(name string, elem int) {
		t.Helper()
		if err := e.CreateTrigger(fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' DO rec(NEW_NODE)`, name, w.TopNames[elem])); err != nil {
			t.Fatal(err)
		}
	}
	create("a", 0)
	create("b", 1)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sh, err := relsql.NewShadow(e.DB())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	check := &staleCheck{sh: sh, stale: map[string]string{}}
	e.SetPlanShadow(check)
	payload := 1000.0
	update := func() {
		t.Helper()
		payload++
		if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Int(3)}, func(r reldb.Row) reldb.Row {
			r[len(r)-1] = xdm.Float(payload)
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}

	update()
	before := sh.Verified()
	if before == 0 || !slices.Equal(fired, []string{"a"}) {
		t.Fatalf("before the join: %d plans verified, delivered %v; want some and [a]", before, fired)
	}
	texts := e.SQLTexts()
	create("c", 0) // into a's row
	create("d", 2) // a row of its own
	after := e.SQLTexts()
	for key, text := range after {
		if !strings.Contains(text, "'a,c'") || !strings.Contains(text, "'d'") || strings.Contains(texts[key], "'a,c'") {
			t.Errorf("%s renders the constants table as it was:\n%s", key, text)
		}
		check.stale[key[strings.LastIndex(key, "/")+1:]] = texts[key]
	}

	fired = nil
	update()
	if sh.Verified() == before || !slices.Equal(fired, []string{"a", "c"}) {
		t.Errorf("after the join: %d plans verified (%d before), delivered %v; want more and [a c]", sh.Verified(), before, fired)
	}
	if check.rejected == 0 {
		t.Error("the shadow accepts the SQL rendered before the join: the check cannot tell")
	}
}
