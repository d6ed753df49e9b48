package core

import (
	"testing"

	"quark/internal/reldb"
	"quark/internal/relsql"
	"quark/internal/schema"
	"quark/internal/sqlshim"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// TestRenderedSQLExecutesOnShim drives the paper's catalog triggers in every
// translated mode with relsql's shadow, over the sqlshim engine, attached:
// each firing's rendered SQL must parse, execute, and reproduce the
// evaluator's result multiset on real INSERTED_/DELETED_ tables — per
// statement and per batched commit.
func TestRenderedSQLExecutesOnShim(t *testing.T) {
	for _, mode := range []Mode{ModeUngrouped, ModeGrouped} {
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			for _, src := range []string{
				`CREATE TRIGGER Notify AFTER UPDATE ON view('catalog')/product
				 WHERE OLD_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`,
				`CREATE TRIGGER Cheap AFTER UPDATE ON view('catalog')/product
				 WHERE count(NEW_NODE/vendor[./price < 110]) >= 1 DO notifySmith(NEW_NODE)`,
				`CREATE TRIGGER NewProd AFTER INSERT ON view('catalog')/product DO notifySmith(NEW_NODE)`,
				`CREATE TRIGGER GoneProd AFTER DELETE ON view('catalog')/product DO notifySmith(OLD_NODE)`,
			} {
				if err := e.CreateTrigger(src); err != nil {
					t.Fatal(err)
				}
			}
			sh, err := relsql.NewShadow(e.db)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			e.SetPlanShadow(sh)

			if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(75)
				return r
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert("vendor", reldb.Row{xdm.Str("Newegg"), xdm.Str("P2"), xdm.Float(210)}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Delete("vendor", func(r reldb.Row) bool {
				return r[0].AsString() == "Circuitcity"
			}); err != nil {
				t.Fatal(err)
			}
			// Batched commit: a multi-statement transaction over both
			// tables, evaluated once under the commit's net deltas.
			if err := e.Batch(func(tx *reldb.Tx) error {
				if err := tx.Insert("product", reldb.Row{xdm.Str("P4"), xdm.Str("OLED 27"), xdm.Str("LG")}); err != nil {
					return err
				}
				return tx.Insert("vendor",
					reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(300)},
					reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P4"), xdm.Float(310)})
			}); err != nil {
				t.Fatal(err)
			}

			if sh.Verified() == 0 {
				t.Fatal("shadow verified no plan evaluations")
			}
			if len(*log) == 0 {
				t.Fatal("triggers delivered no notifications")
			}
			t.Logf("mode %s: %d plan evaluations verified on the SQL backend", mode, sh.Verified())
		})
	}
}

// TestOldTableBagSemanticsSQL is the duplicate-row regression for the B_old
// rendering fix: on a keyless table holding two identical rows with one of
// them freshly inserted, B_old = (B EXCEPT ALL Δ) UNION ALL ∇ keeps exactly
// one copy. The old set-based EXCEPT rendering annihilates both copies —
// the bug this PR fixes — and the in-memory evaluator must agree with the
// fixed SQL.
func TestOldTableBagSemanticsSQL(t *testing.T) {
	def := &schema.Table{
		Name:    "b",
		Columns: []schema.Column{{Name: "x", Type: schema.TInt}},
	}
	s := schema.New()
	s.MustAddTable(def)
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	// Post-statement state: two identical rows, one of them just inserted.
	if err := db.Insert("b", reldb.Row{xdm.Int(7)}, reldb.Row{xdm.Int(7)}); err != nil {
		t.Fatal(err)
	}
	deltas := map[string]*xqgm.Transition{
		"b": {Inserted: []reldb.Row{{xdm.Int(7)}}},
	}

	// Evaluator: B_old must hold exactly one copy of the row.
	root := xqgm.NewTable(def, xqgm.SrcOld)
	rows, err := xqgm.NewEvalContext(db, deltas).Eval(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 7 {
		t.Fatalf("evaluator B_old = %v, want exactly one row (7)", rows)
	}

	// Rendered SQL on the shim backend must agree.
	sdb := sqlshim.NewDB()
	for _, stmt := range []string{
		"CREATE TABLE b (x INTEGER)",
		"CREATE TABLE INSERTED_b (x INTEGER)",
		"CREATE TABLE DELETED_b (x INTEGER)",
		"INSERT INTO b VALUES (7), (7)",
		"INSERT INTO INSERTED_b VALUES (7)",
	} {
		if _, err := sdb.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	sqlText := RenderSQL(root)
	res, err := sdb.Exec(sqlText)
	if err != nil {
		t.Fatalf("rendered B_old SQL failed: %v\n%s", err, sqlText)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("rendered B_old SQL = %v, want exactly one row (7)\n%s", res.Rows, sqlText)
	}

	// The pre-fix rendering used set-semantics EXCEPT: both copies vanish,
	// silently under-reporting the old state. Executing that shape shows
	// why the ROW_NUMBER bag-difference emulation is required.
	legacy := "SELECT x FROM b EXCEPT SELECT x FROM INSERTED_b UNION ALL SELECT x FROM DELETED_b"
	res, err = sdb.Exec(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("legacy set-based EXCEPT yielded %v; expected it to (wrongly) drop every copy — regression fixture is stale", res.Rows)
	}
}
