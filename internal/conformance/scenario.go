// Package conformance is a golden-file conformance harness for the
// trigger-translation pipeline, in the spirit of RegreSQL's
// expected-result files: scenario fixtures under testdata/ declare a
// schema, data, an XML view, XML triggers, and an update script (with
// optional begin/commit/rollback batch blocks); the committed golden
// files hold the notification log the MATERIALIZED oracle produces for
// the script, executed both statement-by-statement and batched. TestGolden
// then requires every row of its matrix — each translation mode on one
// engine or a sharded fleet, with every delivery and injection style — to
// reproduce that log exactly. Regenerate goldens with
// `go test ./internal/conformance -run 'TestGolden$' -update`.
package conformance

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"quark/internal/schema"
	"quark/internal/shard"
	"quark/internal/xdm"
)

// Scenario is one parsed conformance fixture.
type Scenario struct {
	Name     string
	Schema   *schema.Schema
	Data     []DataRow
	Views    []View
	Triggers []string
	Script   []Stmt
	// Routing declares how the scenario partitions under the sharded
	// engine ([routing] section); tables without an entry use the shard
	// package defaults. The declared routing must co-locate every view
	// element's provenance — for the catalog scenarios that means routing
	// product BY its grouping column pname, vendors via their product.
	Routing []shard.TableRouting
}

// DataRow is one initial row of a table.
type DataRow struct {
	Table string
	Row   []xdm.Value
}

// View is one named XQuery view.
type View struct {
	Name string
	Src  string
}

// StmtKind enumerates script statements.
type StmtKind uint8

// Script statement kinds.
const (
	StInsert StmtKind = iota
	StUpdate
	StDelete
	StBegin
	StCommit
	StRollback
	StDrop // drop trigger NAME, outside begin..commit only
)

// Stmt is one script statement. For updates, Sets maps columns to new
// values; Where (when WhereAll is false) is an equality on one column.
type Stmt struct {
	Kind     StmtKind
	Table    string
	Row      []xdm.Value          // insert
	Sets     map[string]xdm.Value // update
	WhereCol string
	WhereVal xdm.Value
	WhereAll bool
	Trigger  string // drop
	Text     string // source line, used as the unit label
}

// ParseFile loads and parses a scenario fixture.
func ParseFile(path, name string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(b), name)
}

// Parse parses the scenario fixture text.
func Parse(src, name string) (*Scenario, error) {
	sc := &Scenario{Name: name, Schema: schema.New()}
	lines := strings.Split(src, "\n")
	section := ""
	sectionArg := ""
	var block []string

	flush := func() error {
		text := strings.TrimSpace(strings.Join(block, "\n"))
		switch section {
		case "view":
			if text == "" {
				return fmt.Errorf("empty [view %s] section", sectionArg)
			}
			sc.Views = append(sc.Views, View{Name: sectionArg, Src: text})
		case "trigger":
			if text == "" {
				return fmt.Errorf("empty [trigger] section")
			}
			sc.Triggers = append(sc.Triggers, text)
		}
		block = nil
		return nil
	}

	for ln, raw := range lines {
		line := strings.TrimRight(raw, " \t")
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "[") && strings.HasSuffix(trimmed, "]") {
			if err := flush(); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", name, ln+1, err)
			}
			head := strings.TrimSuffix(strings.TrimPrefix(trimmed, "["), "]")
			parts := strings.SplitN(head, " ", 2)
			section = parts[0]
			sectionArg = ""
			if len(parts) == 2 {
				sectionArg = strings.TrimSpace(parts[1])
			}
			continue
		}
		switch section {
		case "view", "trigger":
			block = append(block, line)
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		var err error
		switch section {
		case "schema":
			err = sc.parseTable(trimmed)
		case "data":
			err = sc.parseData(trimmed)
		case "routing":
			err = sc.parseRouting(trimmed)
		case "script":
			err = sc.parseStmt(trimmed)
		default:
			err = fmt.Errorf("content outside a known section: %q", trimmed)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, ln+1, err)
		}
	}
	if err := flush(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(sc.Schema.Tables()) == 0 {
		return nil, fmt.Errorf("%s: scenario has no [schema] tables", name)
	}
	return sc, nil
}

// parseTable parses `table <name>: <col> <type> [pk] [fk(t.c)], ...`.
func (sc *Scenario) parseTable(line string) error {
	rest, ok := strings.CutPrefix(line, "table ")
	if !ok {
		return fmt.Errorf("expected `table <name>: ...`, got %q", line)
	}
	name, cols, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("missing `:` in table declaration %q", line)
	}
	t := &schema.Table{Name: strings.TrimSpace(name)}
	for _, colSpec := range strings.Split(cols, ",") {
		fields := strings.Fields(colSpec)
		if len(fields) < 2 {
			return fmt.Errorf("column spec %q needs `<name> <type>`", colSpec)
		}
		col := schema.Column{Name: fields[0]}
		switch fields[1] {
		case "int":
			col.Type = schema.TInt
		case "float":
			col.Type = schema.TFloat
		case "string":
			col.Type = schema.TString
		default:
			return fmt.Errorf("unknown column type %q", fields[1])
		}
		for _, flag := range fields[2:] {
			switch {
			case flag == "pk":
				t.PrimaryKey = append(t.PrimaryKey, col.Name)
			case strings.HasPrefix(flag, "fk(") && strings.HasSuffix(flag, ")"):
				ref := strings.TrimSuffix(strings.TrimPrefix(flag, "fk("), ")")
				rt, rc, ok := strings.Cut(ref, ".")
				if !ok {
					return fmt.Errorf("foreign key %q must be fk(table.column)", flag)
				}
				t.ForeignKeys = append(t.ForeignKeys, schema.ForeignKey{
					Columns: []string{col.Name}, RefTable: rt, RefColumns: []string{rc},
				})
			default:
				return fmt.Errorf("unknown column flag %q", flag)
			}
		}
		t.Columns = append(t.Columns, col)
	}
	return sc.Schema.AddTable(t)
}

// parseRouting parses one [routing] line:
//
//	<table>: by <col> [<col>...]   root table, partitioned by these columns
//	<table>: via <parent-table>    child table, co-located with its parent
func (sc *Scenario) parseRouting(line string) error {
	table, rule, ok := strings.Cut(line, ":")
	if !ok {
		return fmt.Errorf("expected `<table>: by <cols>` or `<table>: via <parent>`, got %q", line)
	}
	table = strings.TrimSpace(table)
	if _, err := sc.table(table); err != nil {
		return err
	}
	fields := strings.Fields(rule)
	if len(fields) < 2 {
		return fmt.Errorf("routing rule %q needs `by <cols>` or `via <parent>`", rule)
	}
	switch fields[0] {
	case "by":
		sc.Routing = append(sc.Routing, shard.TableRouting{Table: table, ByColumns: fields[1:]})
	case "via":
		if len(fields) != 2 {
			return fmt.Errorf("routing rule %q: via takes exactly one parent table", rule)
		}
		sc.Routing = append(sc.Routing, shard.TableRouting{Table: table, ViaParent: fields[1]})
	default:
		return fmt.Errorf("unknown routing rule %q (want by/via)", fields[0])
	}
	return nil
}

// parseData parses `<table>: v1 v2 v3`.
func (sc *Scenario) parseData(line string) error {
	table, vals, ok := strings.Cut(line, ":")
	if !ok {
		return fmt.Errorf("expected `<table>: values`, got %q", line)
	}
	table = strings.TrimSpace(table)
	row, err := sc.parseRow(table, vals)
	if err != nil {
		return err
	}
	sc.Data = append(sc.Data, DataRow{Table: table, Row: row})
	return nil
}

// tokenize splits on whitespace, honoring double quotes.
func tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			if inQuote {
				out = append(out, cur.String()) // may be empty
				cur.Reset()
			}
			inQuote = !inQuote
		case !inQuote && (r == ' ' || r == '\t'):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

func (sc *Scenario) table(name string) (*schema.Table, error) {
	t, ok := sc.Schema.Table(name)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return t, nil
}

func (sc *Scenario) parseRow(table, vals string) ([]xdm.Value, error) {
	t, err := sc.table(table)
	if err != nil {
		return nil, err
	}
	toks := tokenize(vals)
	if len(toks) != len(t.Columns) {
		return nil, fmt.Errorf("table %s expects %d values, got %d (%q)", table, len(t.Columns), len(toks), vals)
	}
	row := make([]xdm.Value, len(toks))
	for i, tok := range toks {
		v, err := typedValue(t.Columns[i].Type, tok)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", t.Columns[i].Name, err)
		}
		row[i] = v
	}
	return row, nil
}

func typedValue(ct schema.ColType, tok string) (xdm.Value, error) {
	if tok == "NULL" {
		return xdm.Null, nil
	}
	switch ct {
	case schema.TInt:
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return xdm.Null, fmt.Errorf("bad int %q", tok)
		}
		return xdm.Int(n), nil
	case schema.TFloat:
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return xdm.Null, fmt.Errorf("bad float %q", tok)
		}
		return xdm.Float(f), nil
	default:
		return xdm.Str(tok), nil
	}
}

func (sc *Scenario) colType(table, col string) (schema.ColType, error) {
	t, err := sc.table(table)
	if err != nil {
		return 0, err
	}
	ci := t.ColIndex(col)
	if ci < 0 {
		return 0, fmt.Errorf("table %s has no column %q", table, col)
	}
	return t.Columns[ci].Type, nil
}

// parseStmt parses one script line.
func (sc *Scenario) parseStmt(line string) error {
	switch line {
	case "begin":
		sc.Script = append(sc.Script, Stmt{Kind: StBegin, Text: line})
		return nil
	case "commit":
		sc.Script = append(sc.Script, Stmt{Kind: StCommit, Text: line})
		return nil
	case "rollback":
		sc.Script = append(sc.Script, Stmt{Kind: StRollback, Text: line})
		return nil
	}
	if name, ok := strings.CutPrefix(line, "drop trigger "); ok {
		for k := len(sc.Script) - 1; k >= 0; k-- {
			if kind := sc.Script[k].Kind; kind == StBegin {
				return fmt.Errorf("drop trigger inside begin..commit: %q", line)
			} else if kind == StCommit || kind == StRollback {
				break
			}
		}
		sc.Script = append(sc.Script, Stmt{Kind: StDrop, Trigger: strings.TrimSpace(name), Text: line})
		return nil
	}
	fields := strings.SplitN(line, " ", 2)
	if len(fields) != 2 {
		return fmt.Errorf("bad statement %q", line)
	}
	op, rest := fields[0], strings.TrimSpace(fields[1])
	switch op {
	case "insert":
		table, vals, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("insert wants `insert <table>: values`, got %q", line)
		}
		table = strings.TrimSpace(table)
		row, err := sc.parseRow(table, vals)
		if err != nil {
			return err
		}
		sc.Script = append(sc.Script, Stmt{Kind: StInsert, Table: table, Row: row, Text: line})
		return nil
	case "update":
		// update <table> set c=v[, c=v] where c=v | where *
		setPart, wherePart, ok := strings.Cut(rest, " where ")
		if !ok {
			return fmt.Errorf("update needs a where clause (use `where *` for all rows): %q", line)
		}
		table, sets, ok := strings.Cut(setPart, " set ")
		if !ok {
			return fmt.Errorf("update wants `update <table> set ...`, got %q", line)
		}
		table = strings.TrimSpace(table)
		st := Stmt{Kind: StUpdate, Table: table, Sets: map[string]xdm.Value{}, Text: line}
		for _, as := range strings.Split(sets, ",") {
			col, val, ok := strings.Cut(strings.TrimSpace(as), "=")
			if !ok {
				return fmt.Errorf("bad assignment %q", as)
			}
			ct, err := sc.colType(table, strings.TrimSpace(col))
			if err != nil {
				return err
			}
			toks := tokenize(val)
			if len(toks) != 1 {
				return fmt.Errorf("bad assignment value %q", val)
			}
			v, err := typedValue(ct, toks[0])
			if err != nil {
				return err
			}
			st.Sets[strings.TrimSpace(col)] = v
		}
		if err := sc.parseWhere(&st, wherePart); err != nil {
			return err
		}
		sc.Script = append(sc.Script, st)
		return nil
	case "delete":
		table, wherePart, ok := strings.Cut(rest, " where ")
		if !ok {
			return fmt.Errorf("delete needs a where clause (use `where *` for all rows): %q", line)
		}
		st := Stmt{Kind: StDelete, Table: strings.TrimSpace(table), Text: line}
		if err := sc.parseWhere(&st, wherePart); err != nil {
			return err
		}
		sc.Script = append(sc.Script, st)
		return nil
	default:
		return fmt.Errorf("unknown statement %q", line)
	}
}

func (sc *Scenario) parseWhere(st *Stmt, where string) error {
	where = strings.TrimSpace(where)
	if where == "*" {
		st.WhereAll = true
		return nil
	}
	col, val, ok := strings.Cut(where, "=")
	if !ok {
		return fmt.Errorf("where clause must be `<col>=<val>` or `*`: %q", where)
	}
	st.WhereCol = strings.TrimSpace(col)
	ct, err := sc.colType(st.Table, st.WhereCol)
	if err != nil {
		return err
	}
	toks := tokenize(val)
	if len(toks) != 1 {
		return fmt.Errorf("bad where value %q", val)
	}
	v, err := typedValue(ct, toks[0])
	if err != nil {
		return err
	}
	st.WhereVal = v
	return nil
}
