package core

import (
	"fmt"
	"strings"
	"testing"

	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/sqlshim"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// shimShadow is a test-local PlanShadow over the sqlshim engine directly
// (no database/sql): every plan firing rebuilds a mirror of the store plus
// the transition tables and requires the rendered SQL to reproduce the
// evaluator's rows exactly. internal/relsql is the packaged form of the
// same idea, through database/sql.
type shimShadow struct {
	db       *reldb.DB
	verified int
}

func ddlForTable(t *schema.Table, name string, withPK bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE %s (", name)
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", c.Name, c.Type)
	}
	if withPK && t.HasPrimaryKey() {
		fmt.Fprintf(&sb, ", PRIMARY KEY (%s)", strings.Join(t.PrimaryKey, ", "))
	}
	sb.WriteString(")")
	return sb.String()
}

func loadShimTable(sdb *sqlshim.DB, name string, width int, rows []reldb.Row) error {
	stmt := fmt.Sprintf("INSERT INTO %s VALUES (%s)",
		name, strings.TrimSuffix(strings.Repeat("?, ", width), ", "))
	for _, r := range rows {
		if _, err := sdb.Exec(stmt, r...); err != nil {
			return err
		}
	}
	return nil
}

func (s *shimShadow) VerifyPlan(table, sqlText string, deltas map[string]*xqgm.Transition, rows []xqgm.Tuple) error {
	sdb := sqlshim.NewDB()
	for _, t := range s.db.Schema().Tables() {
		if _, err := sdb.Exec(ddlForTable(t, t.Name, true)); err != nil {
			return err
		}
		if _, err := sdb.Exec(ddlForTable(t, "INSERTED_"+t.Name, false)); err != nil {
			return err
		}
		if _, err := sdb.Exec(ddlForTable(t, "DELETED_"+t.Name, false)); err != nil {
			return err
		}
		var base []reldb.Row
		if err := s.db.Scan(t.Name, func(r reldb.Row) bool {
			base = append(base, r)
			return true
		}); err != nil {
			return err
		}
		if err := loadShimTable(sdb, t.Name, len(t.Columns), base); err != nil {
			return err
		}
		if d := deltas[t.Name]; d != nil {
			if err := loadShimTable(sdb, "INSERTED_"+t.Name, len(t.Columns), d.Inserted); err != nil {
				return err
			}
			if err := loadShimTable(sdb, "DELETED_"+t.Name, len(t.Columns), d.Deleted); err != nil {
				return err
			}
		}
	}
	res, err := sdb.Exec(sqlText)
	if err != nil {
		return fmt.Errorf("execute rendered SQL on %s: %w", table, err)
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[xdm.TupleKey(r)]++
	}
	for _, r := range res.Rows {
		counts[xdm.TupleKey(r)]--
	}
	for k, n := range counts {
		if n != 0 {
			return fmt.Errorf("plan on %s: SQL result diverges from evaluator (%+d of %q); evaluator %d rows, SQL %d rows",
				table, -n, k, len(rows), len(res.Rows))
		}
	}
	s.verified++
	return nil
}

// TestRenderedSQLExecutesOnShim drives the paper's catalog triggers in every
// translated mode with the shadow attached: each firing's rendered SQL must
// parse, execute, and reproduce the evaluator's result multiset on real
// INSERTED_/DELETED_ tables — per statement and per batched commit.
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
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			sh := &shimShadow{db: e.db}
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

			if sh.verified == 0 {
				t.Fatal("shadow verified no plan evaluations")
			}
			if len(*log) == 0 {
				t.Fatal("triggers delivered no notifications")
			}
			t.Logf("mode %s: %d plan evaluations verified on the SQL backend", mode, sh.verified)
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
