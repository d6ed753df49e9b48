package relsql

import (
	"database/sql"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/sqlshim"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

var shadowSeq atomic.Int64

// Shadow mirrors a reldb store onto a database/sql backend and verifies
// every translated plan's rendered SQL against the evaluator's result. It
// implements core.PlanShadow structurally (no import of internal/core).
//
// Verification is stateless per call: the mirror is rebuilt from the source
// store and the firing's transition tables each time, so the shadow never
// drifts and needs no write-path integration.
type Shadow struct {
	mu       sync.Mutex
	src      reldb.Reader
	db       *sql.DB
	dsn      string
	verified atomic.Int64
}

// NewShadow opens a backend database mirroring src.
func NewShadow(src reldb.Reader) (*Shadow, error) {
	dsn := fmt.Sprintf("relsql-shadow-%d", shadowSeq.Add(1))
	db, err := sql.Open("sqlshim", dsn)
	if err != nil {
		return nil, fmt.Errorf("relsql: open backend: %w", err)
	}
	return &Shadow{src: src, db: db, dsn: dsn}, nil
}

// Close releases the backend database.
func (s *Shadow) Close() error {
	sqlshim.Detach(s.dsn)
	return s.db.Close()
}

// Verified reports how many plan evaluations this shadow has verified.
func (s *Shadow) Verified() int64 { return s.verified.Load() }

func createSQL(name string, t *schema.Table, withPK bool) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(name)
	sb.WriteString(" (")
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteByte(' ')
		sb.WriteString(c.Type.String())
	}
	// Transition tables are bags: the same row can legitimately appear
	// twice (e.g. two identical inserts on a keyless table), so they never
	// carry the base table's key.
	if withPK && t.HasPrimaryKey() {
		sb.WriteString(", PRIMARY KEY (")
		sb.WriteString(strings.Join(t.PrimaryKey, ", "))
		sb.WriteString(")")
	}
	sb.WriteString(")")
	return sb.String()
}

// sync rebuilds the mirror: base tables from the source store (post-statement
// state, matching what an AFTER trigger sees) and transition tables from the
// firing's deltas. Tables absent from deltas get empty transition tables —
// the evaluator treats missing transitions as empty too.
func (s *Shadow) sync(deltas map[string]*xqgm.Transition) error {
	for _, t := range s.src.Schema().Tables() {
		names := []string{t.Name, "INSERTED_" + t.Name, "DELETED_" + t.Name}
		for i, n := range names {
			if _, err := s.db.Exec("DROP TABLE IF EXISTS " + n); err != nil {
				return err
			}
			if _, err := s.db.Exec(createSQL(n, t, i == 0)); err != nil {
				return err
			}
		}
		var rows []reldb.Row
		if err := s.src.Scan(t.Name, func(r reldb.Row) bool {
			rows = append(rows, r)
			return true
		}); err != nil {
			return err
		}
		if err := s.insertAll(t.Name, len(t.Columns), rows); err != nil {
			return err
		}
		if d := deltas[t.Name]; d != nil {
			if err := s.insertAll("INSERTED_"+t.Name, len(t.Columns), d.Inserted); err != nil {
				return err
			}
			if err := s.insertAll("DELETED_"+t.Name, len(t.Columns), d.Deleted); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Shadow) insertAll(table string, width int, rows []reldb.Row) error {
	if len(rows) == 0 {
		return nil
	}
	ph := "(" + strings.TrimSuffix(strings.Repeat("?, ", width), ", ") + ")"
	stmt := "INSERT INTO " + table + " VALUES " + ph
	for _, r := range rows {
		args := make([]any, width)
		for i, v := range r {
			args[i] = sqlshim.Canon(v)
		}
		if _, err := s.db.Exec(stmt, args...); err != nil {
			return fmt.Errorf("relsql: load %s: %w", table, err)
		}
	}
	return nil
}

// VerifyPlan implements the core.PlanShadow seam: rebuild the mirror for
// this firing, run the rendered SQL, and compare the result multiset with
// the evaluator's rows.
func (s *Shadow) VerifyPlan(table, sqlText string, deltas map[string]*xqgm.Transition, rows []xqgm.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sync(deltas); err != nil {
		return fmt.Errorf("relsql: sync mirror: %w", err)
	}
	got, err := s.queryAll(sqlText)
	if err != nil {
		return fmt.Errorf("relsql: execute plan for %s: %w", table, err)
	}
	want := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]any, len(r))
		for j, v := range r {
			vals[j] = sqlshim.Canon(v)
		}
		want[i] = canonRow(vals)
	}
	if diff := multisetDiff(want, got); diff != "" {
		return fmt.Errorf("relsql: plan result mismatch on %s:\n%s", table, diff)
	}
	s.verified.Add(1)
	return nil
}

// ExplainPlan returns the backend's EXPLAIN QUERY PLAN text for a rendered
// plan (one line per plan step). The mirror's tables must exist, so the
// schema is synced first with empty transitions.
func (s *Shadow) ExplainPlan(sqlText string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sync(nil); err != nil {
		return "", err
	}
	lines, err := s.queryAll("EXPLAIN QUERY PLAN " + sqlText)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(strings.TrimPrefix(l, "s:"))
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// queryAll runs a query and returns one canonical string per result row.
func (s *Shadow) queryAll(q string) ([]string, error) {
	rws, err := s.db.Query(q)
	if err != nil {
		return nil, err
	}
	defer rws.Close()
	cols, err := rws.Columns()
	if err != nil {
		return nil, err
	}
	var out []string
	for rws.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rws.Scan(ptrs...); err != nil {
			return nil, err
		}
		out = append(out, canonRow(vals))
	}
	return out, rws.Err()
}

// canonRow renders one result row as an injective, type-tagged string so
// multiset comparison across the SQL boundary is exact.
func canonRow(vals []any) string {
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteString(" | ")
		}
		switch x := v.(type) {
		case nil:
			sb.WriteString("null")
		case []byte:
			fmt.Fprintf(&sb, "s:%s", x)
		case string:
			fmt.Fprintf(&sb, "s:%s", x)
		case int64:
			fmt.Fprintf(&sb, "i:%d", x)
		case float64:
			fmt.Fprintf(&sb, "f:%s", xdm.Float(x).Lexical())
		case bool:
			fmt.Fprintf(&sb, "b:%t", x)
		default:
			fmt.Fprintf(&sb, "?:%v", x)
		}
	}
	return sb.String()
}

// multisetDiff compares two row multisets and describes the difference
// ("" when identical).
func multisetDiff(want, got []string) string {
	counts := map[string]int{}
	for _, w := range want {
		counts[w]++
	}
	for _, g := range got {
		counts[g]--
	}
	var missing, extra []string
	for k, n := range counts {
		for ; n > 0; n-- {
			missing = append(missing, k)
		}
		for ; n < 0; n++ {
			extra = append(extra, k)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var sb strings.Builder
	fmt.Fprintf(&sb, "evaluator rows: %d, SQL rows: %d\n", len(want), len(got))
	for _, m := range missing {
		sb.WriteString("  only evaluator: " + m + "\n")
	}
	for _, e := range extra {
		sb.WriteString("  only SQL:       " + e + "\n")
	}
	return strings.TrimSuffix(sb.String(), "\n")
}
