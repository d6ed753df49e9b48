package core

import (
	"fmt"
	"strconv"
	"strings"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// RenderSQL renders an XQGM plan as executable SQL in the style of the
// paper's Figure 16 (WITH common-table-expressions feeding a final SELECT).
// The dialect is the portable subset executed by internal/sqlshim behind
// the relsql backend:
//
//   - every CTE carries an explicit column list with unique names, so no
//     positional c%d names leak into outer SELECTs;
//   - string literals escape single quotes, reserved-word identifiers are
//     double-quoted;
//   - B_old and the pruned transition tables are bag expressions (§4.2 /
//     Definition 8): EXCEPT ALL is emulated with ROW_NUMBER occurrence
//     numbering since SQLite has no EXCEPT ALL, with operands explicitly
//     parenthesized;
//   - anti joins render as NOT EXISTS with NULL padding to the full
//     combined width, matching the evaluator's tuple shape;
//   - XML construction and path navigation render as UDF calls
//     (xml_element, xml_attr, xml_concat, path_step, ...) the backend
//     implements with the same semantics as the evaluator.
func RenderSQL(root *xqgm.Operator) string {
	r := &sqlRenderer{refs: map[*xqgm.Operator]*relRef{}}
	final := r.render(root)
	var sb strings.Builder
	if len(r.ctes) > 0 {
		sb.WriteString("WITH ")
		for i, c := range r.ctes {
			if i > 0 {
				sb.WriteString(",\n")
			}
			sb.WriteString(c.name)
			sb.WriteString("(")
			sb.WriteString(colList(c.cols))
			sb.WriteString(") AS (\n  ")
			sb.WriteString(strings.ReplaceAll(c.body, "\n", "\n  "))
			sb.WriteString("\n)")
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "SELECT %s FROM %s", colList(final.cols), final.name)
	return sb.String()
}

// relRef is a rendered relation: a name usable in FROM clauses plus its
// output column identifiers (sanitized, unique within the relation).
type relRef struct {
	name string
	cols []string
}

type cte struct {
	name string
	cols []string
	body string
}

type sqlRenderer struct {
	refs map[*xqgm.Operator]*relRef
	ctes []cte
	seq  int
}

// render returns a relation reference usable in FROM clauses, materializing
// intermediate operators as CTEs.
func (r *sqlRenderer) render(o *xqgm.Operator) *relRef {
	if ref, ok := r.refs[o]; ok {
		return ref
	}
	ref := r.renderOp(o)
	r.refs[o] = ref
	return ref
}

func (r *sqlRenderer) renderOp(o *xqgm.Operator) *relRef {
	switch o.Type {
	case xqgm.OpTable:
		cols := uniqueCols(o.Names, o.OutWidth())
		switch o.Source {
		case xqgm.SrcDelta:
			return &relRef{name: qid("INSERTED_" + o.Table), cols: cols}
		case xqgm.SrcNabla:
			return &relRef{name: qid("DELETED_" + o.Table), cols: cols}
		case xqgm.SrcDeltaPruned:
			body := "-- pruned delta: rows also deleted in the same transition removed with multiplicity (Definition 8)\n" +
				bagDiff(cols, qid("INSERTED_"+o.Table), qid("DELETED_"+o.Table))
			return r.addCTE("INSERTED_"+o.Table+"_pruned", cols, body)
		case xqgm.SrcNablaPruned:
			body := "-- pruned nabla: rows also inserted in the same transition removed with multiplicity (Definition 8)\n" +
				bagDiff(cols, qid("DELETED_"+o.Table), qid("INSERTED_"+o.Table))
			return r.addCTE("DELETED_"+o.Table+"_pruned", cols, body)
		case xqgm.SrcOld:
			// B_old = (B EXCEPT ALL delta) UNION ALL nabla, per Section
			// 4.2 — a bag expression, so plain EXCEPT/UNION (set
			// operators) would collapse duplicate rows.
			body := "-- B_old = (B EXCEPT ALL INSERTED_) UNION ALL DELETED_ (Section 4.2, bag semantics;\n" +
				"-- EXCEPT ALL emulated with ROW_NUMBER occurrence numbering, operands parenthesized)\n" +
				bagDiff(cols, qid(o.Table), qid("INSERTED_"+o.Table)) +
				"\nUNION ALL\n" +
				fmt.Sprintf("SELECT %s FROM %s", colList(cols), qid("DELETED_"+o.Table))
			return r.addCTE(o.Table+"_old", cols, body)
		default: // SrcBase
			return &relRef{name: qid(o.Table), cols: cols}
		}
	case xqgm.OpConstants:
		cols := uniqueCols(o.Names, len(o.Names))
		listing := o.Consts.Listing()
		rows := make([]string, 0, len(listing))
		for _, row := range listing {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = renderLit(v)
			}
			rows = append(rows, "("+strings.Join(cells, ", ")+")")
		}
		body := fmt.Sprintf("-- constants(%s)\nVALUES\n  %s",
			strings.Join(o.Names, ", "), strings.Join(rows, ",\n  "))
		return r.addCTE("Constants", cols, body)
	case xqgm.OpSelect:
		in := r.render(o.Inputs[0])
		body := fmt.Sprintf("SELECT %s\nFROM %s\nWHERE %s",
			colList(in.cols), in.name, r.renderExpr(o.Pred, exprCtx{l: in}))
		return r.addCTE("Filtered", in.cols, body)
	case xqgm.OpProject:
		in := r.render(o.Inputs[0])
		names := make([]string, len(o.Projs))
		for i, p := range o.Projs {
			names[i] = p.Name
		}
		cols := uniqueCols(names, len(o.Projs))
		items := make([]string, len(o.Projs))
		for i, p := range o.Projs {
			items[i] = r.renderExpr(p.E, exprCtx{l: in}) + " AS " + qid(cols[i])
		}
		body := fmt.Sprintf("SELECT %s\nFROM %s", strings.Join(items, ", "), in.name)
		return r.addCTE("Projected", cols, body)
	case xqgm.OpJoin:
		return r.renderJoin(o)
	case xqgm.OpGroupBy:
		return r.renderGroupBy(o)
	case xqgm.OpUnion:
		first := r.render(o.Inputs[0])
		parts := make([]string, len(o.Inputs))
		for i, input := range o.Inputs {
			in := r.render(input)
			parts[i] = fmt.Sprintf("SELECT %s FROM %s", colList(in.cols), in.name)
		}
		sep := "\nUNION ALL\n"
		if o.Distinct {
			sep = "\nUNION\n"
		}
		cols := append([]string(nil), first.cols...)
		return r.addCTE("Unioned", cols, strings.Join(parts, sep))
	case xqgm.OpOrderBy:
		in := r.render(o.Inputs[0])
		ords := make([]string, len(o.OrderCols))
		for i, oc := range o.OrderCols {
			ords[i] = qid(in.cols[oc.Col])
			if oc.Desc {
				ords[i] += " DESC"
			}
		}
		body := fmt.Sprintf("SELECT %s FROM %s ORDER BY %s",
			colList(in.cols), in.name, strings.Join(ords, ", "))
		return r.addCTE("Ordered", in.cols, body)
	default:
		return r.addCTE("Op", []string{"c0"}, "-- unsupported operator "+o.Type.String())
	}
}

func (r *sqlRenderer) renderJoin(o *xqgm.Operator) *relRef {
	lr := r.render(o.Inputs[0])
	rr := r.render(o.Inputs[1])
	outNames := make([]string, 0, len(lr.cols)+len(rr.cols))
	outNames = append(outNames, lr.cols...)
	outNames = append(outNames, rr.cols...)
	cols := uniqueCols(outNames, len(outNames))

	conds := make([]string, 0, len(o.On)+1)
	for _, eq := range o.On {
		conds = append(conds, fmt.Sprintf("L.%s = R.%s", qid(lr.cols[eq.L]), qid(rr.cols[eq.R])))
	}
	if o.JoinPred != nil {
		conds = append(conds, r.renderExpr(o.JoinPred, exprCtx{l: lr, r: rr, qualify: true}))
	}

	switch o.JoinKind {
	case xqgm.JoinLeftAnti, xqgm.JoinRightAnti:
		// Anti joins keep the unmatched rows of one side, NULL-padded to
		// the full combined width (the evaluator's tuple shape); there is
		// no SQL ANTI JOIN, so render as NOT EXISTS.
		keep, drop := lr, rr
		keepAlias, dropAlias := "L", "R"
		if o.JoinKind == xqgm.JoinRightAnti {
			keep, drop = rr, lr
			keepAlias, dropAlias = "R", "L"
		}
		items := make([]string, len(cols))
		for i := range cols {
			fromLeft := i < len(lr.cols)
			if fromLeft == (o.JoinKind == xqgm.JoinLeftAnti) {
				src := lr.cols
				off := 0
				if !fromLeft {
					src = rr.cols
					off = len(lr.cols)
				}
				items[i] = fmt.Sprintf("%s.%s AS %s", keepAlias, qid(src[i-off]), qid(cols[i]))
			} else {
				items[i] = "NULL AS " + qid(cols[i])
			}
		}
		sub := fmt.Sprintf("SELECT 1 FROM %s AS %s", drop.name, dropAlias)
		if len(conds) > 0 {
			sub += " WHERE " + strings.Join(conds, " AND ")
		}
		body := fmt.Sprintf("-- anti join rendered as NOT EXISTS with NULL padding to full width\nSELECT %s\nFROM %s AS %s\nWHERE NOT EXISTS (%s)",
			strings.Join(items, ", "), keep.name, keepAlias, sub)
		return r.addCTE("Joined", cols, body)
	}

	kind := "JOIN"
	if o.JoinKind == xqgm.JoinLeftOuter {
		kind = "LEFT OUTER JOIN"
	}
	items := make([]string, 0, len(cols))
	for i, c := range lr.cols {
		items = append(items, fmt.Sprintf("L.%s AS %s", qid(c), qid(cols[i])))
	}
	for i, c := range rr.cols {
		items = append(items, fmt.Sprintf("R.%s AS %s", qid(c), qid(cols[len(lr.cols)+i])))
	}
	on := "1=1"
	if len(conds) > 0 {
		on = strings.Join(conds, " AND ")
	}
	body := fmt.Sprintf("SELECT %s\nFROM %s AS L %s %s AS R ON %s",
		strings.Join(items, ", "), lr.name, kind, rr.name, on)
	return r.addCTE("Joined", cols, body)
}

func (r *sqlRenderer) renderGroupBy(o *xqgm.Operator) *relRef {
	in := r.render(o.Inputs[0])
	rawOut := make([]string, 0, len(o.GroupCols)+len(o.Aggs))
	gb := make([]string, 0, len(o.GroupCols))
	for _, g := range o.GroupCols {
		rawOut = append(rawOut, in.cols[g])
		gb = append(gb, qid(in.cols[g]))
	}
	for _, a := range o.Aggs {
		rawOut = append(rawOut, a.Name)
	}
	cols := uniqueCols(rawOut, len(rawOut))
	items := make([]string, 0, len(cols))
	for i := range o.GroupCols {
		items = append(items, gb[i]+" AS "+qid(cols[i]))
	}
	// Document order for order-sensitive aggregation (aggXMLFrag) follows
	// the input's canonical key, like the evaluator's pre-aggregation sort.
	var ord []string
	if key := o.Inputs[0].Key; len(key) > 0 {
		for _, k := range key {
			ord = append(ord, qid(in.cols[k]))
		}
	} else {
		for _, c := range in.cols {
			ord = append(ord, qid(c))
		}
	}
	for j, a := range o.Aggs {
		arg := "*"
		if a.Arg != nil {
			arg = r.renderExpr(a.Arg, exprCtx{l: in})
		}
		call := strings.ToUpper(a.Func.String()) + "(" + arg
		if a.Func == xqgm.AggXMLFrag {
			call += " ORDER BY " + strings.Join(ord, ", ")
		}
		call += ")"
		items = append(items, call+" AS "+qid(cols[len(o.GroupCols)+j]))
	}
	body := fmt.Sprintf("SELECT %s\nFROM %s", strings.Join(items, ", "), in.name)
	if len(gb) > 0 {
		body += "\nGROUP BY " + strings.Join(gb, ", ")
	}
	return r.addCTE("Grouped", cols, body)
}

func (r *sqlRenderer) addCTE(base string, cols []string, body string) *relRef {
	r.seq++
	name := fmt.Sprintf("%s_%d", sqlIdent(base), r.seq)
	r.ctes = append(r.ctes, cte{name: name, cols: cols, body: body})
	return &relRef{name: name, cols: cols}
}

// bagDiff renders a bag difference A EXCEPT ALL B over the given columns.
// SQLite has no EXCEPT ALL; numbering duplicate occurrences with ROW_NUMBER
// turns the bag difference into a set difference: the i-th copy of a row
// survives iff B holds fewer than i copies.
func bagDiff(cols []string, a, b string) string {
	list := colList(cols)
	numbered := func(rel string) string {
		return fmt.Sprintf("SELECT %s, ROW_NUMBER() OVER (PARTITION BY %s) AS occ_ FROM %s", list, list, rel)
	}
	return fmt.Sprintf("SELECT %s FROM (\n  (%s)\n  EXCEPT\n  (%s)\n)", list, numbered(a), numbered(b))
}

func colList(cols []string) string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = qid(c)
	}
	return strings.Join(out, ", ")
}

// uniqueCols sanitizes output column names and disambiguates duplicates
// (e.g. a self-join's two pid columns become pid and pid_2), so explicit
// CTE column lists never carry ambiguous or positional names.
func uniqueCols(names []string, width int) []string {
	out := make([]string, width)
	used := make(map[string]bool, width)
	for i := 0; i < width; i++ {
		base := ""
		if i < len(names) {
			base = names[i]
		}
		if base == "" {
			base = fmt.Sprintf("c%d", i)
		}
		base = sqlIdent(base)
		cand := base
		for n := 2; used[strings.ToLower(cand)]; n++ {
			cand = fmt.Sprintf("%s_%d", base, n)
		}
		used[strings.ToLower(cand)] = true
		out[i] = cand
	}
	return out
}

// sqlIdent sanitizes a name into identifier characters.
func sqlIdent(s string) string {
	if s == "" {
		return "c"
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = append([]byte{'_'}, out...)
	}
	return string(out)
}

// sqlReserved holds keywords that must be double-quoted when used as
// identifiers (column names like "order" or "group" appear in schemas).
var sqlReserved = map[string]bool{
	"all": true, "and": true, "as": true, "asc": true, "between": true,
	"by": true, "case": true, "create": true, "cross": true, "default": true,
	"delete": true, "desc": true, "distinct": true, "drop": true, "else": true,
	"end": true, "except": true, "exists": true, "explain": true, "false": true,
	"from": true, "group": true, "having": true, "in": true, "index": true,
	"inner": true, "insert": true, "intersect": true, "into": true, "is": true,
	"join": true, "key": true, "left": true, "like": true, "limit": true,
	"not": true, "null": true, "offset": true, "on": true, "or": true,
	"order": true, "outer": true, "over": true, "partition": true,
	"plan": true, "primary": true, "query": true, "references": true,
	"right": true, "row_number": true, "select": true, "set": true,
	"table": true, "then": true, "true": true, "union": true, "unique": true,
	"update": true, "using": true, "values": true, "when": true,
	"where": true, "with": true,
}

// qid quotes an identifier when it collides with a reserved word.
func qid(s string) string {
	if sqlReserved[strings.ToLower(s)] {
		return `"` + s + `"`
	}
	return s
}

// sqlStr renders a SQL string literal with single quotes escaped.
func sqlStr(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// exprCtx carries column-name context for expression rendering.
type exprCtx struct {
	l, r    *relRef
	qualify bool // qualify input-0 refs as L. and input-1 refs as R.
	inPath  bool // inside a path-step predicate: input 0 column 0 is ITEM
}

// sqlCallNames maps evaluator function names to the backend's UDF names.
var sqlCallNames = map[string]string{
	"data":       "xml_data",
	"string":     "xml_string",
	"count":      "seq_count",
	"empty":      "seq_empty",
	"exists":     "seq_exists",
	"concat":     "concat",
	"abs":        "ABS",
	"coalesce":   "COALESCE",
	"deep-equal": "deep_equal",
}

func (r *sqlRenderer) renderExpr(e xqgm.Expr, c exprCtx) string {
	switch x := e.(type) {
	case *xqgm.ColRef:
		if x.Input == 0 {
			if c.inPath {
				// A path-step predicate sees the current step item as
				// input 0 column 0 (xqgm.PathStep.Eval); the backend
				// binds it as ITEM.
				return "ITEM"
			}
			if c.l != nil && x.Col < len(c.l.cols) {
				if c.qualify {
					return "L." + qid(c.l.cols[x.Col])
				}
				return qid(c.l.cols[x.Col])
			}
		}
		if x.Input == 1 && c.r != nil && x.Col < len(c.r.cols) {
			return "R." + qid(c.r.cols[x.Col])
		}
		return fmt.Sprintf("c%d", x.Col)
	case *xqgm.Lit:
		return renderLit(x.V)
	case *xqgm.Cmp:
		op := x.Op
		if op == "!=" {
			op = "<>"
		}
		return fmt.Sprintf("(%s %s %s)", r.renderExpr(x.L, c), op, r.renderExpr(x.R, c))
	case *xqgm.Arith:
		op := x.Op
		if op == "div" {
			op = "/"
		}
		if op == "mod" {
			op = "%"
		}
		return fmt.Sprintf("(%s %s %s)", r.renderExpr(x.L, c), op, r.renderExpr(x.R, c))
	case *xqgm.Logic:
		if x.Op == "not" {
			return "NOT (" + r.renderExpr(x.Args[0], c) + ")"
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = r.renderExpr(a, c)
		}
		return "(" + strings.Join(parts, " "+strings.ToUpper(x.Op)+" ") + ")"
	case *xqgm.IsNullExpr:
		if x.Neg {
			return "(" + r.renderExpr(x.E, c) + " IS NOT NULL)"
		}
		return "(" + r.renderExpr(x.E, c) + " IS NULL)"
	case *xqgm.Call:
		if x.Name == "not" {
			return "NOT (" + r.renderExpr(x.Args[0], c) + ")"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = r.renderExpr(a, c)
		}
		name := sqlCallNames[x.Name]
		if name == "" {
			name = sqlIdent(x.Name)
		}
		return name + "(" + strings.Join(args, ", ") + ")"
	case *xqgm.ElemCtor:
		parts := []string{sqlStr(x.Name)}
		for _, a := range x.Attrs {
			parts = append(parts, fmt.Sprintf("xml_attr(%s, %s)", sqlStr(a.Name), r.renderExpr(a.E, c)))
		}
		for _, ch := range x.Children {
			parts = append(parts, r.renderExpr(ch, c))
		}
		return "xml_element(" + strings.Join(parts, ", ") + ")"
	case *xqgm.PathStep:
		args := []string{r.renderExpr(x.In, c), sqlStr(x.Axis), sqlStr(x.Name)}
		if x.Predicate != nil {
			pc := c
			pc.inPath = true
			args = append(args, r.renderExpr(x.Predicate, pc))
		}
		return "path_step(" + strings.Join(args, ", ") + ")"
	default:
		if sq, ok := e.(interface{ SeqItems() []xqgm.Expr }); ok {
			items := sq.SeqItems()
			parts := make([]string, len(items))
			for i, it := range items {
				parts[i] = r.renderExpr(it, c)
			}
			return "xml_concat(" + strings.Join(parts, ", ") + ")"
		}
		return e.String()
	}
}

// renderLit renders a literal value in the backend's lexical forms.
func renderLit(v xdm.Value) string {
	switch v.Kind() {
	case xdm.KindNull:
		return "NULL"
	case xdm.KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	case xdm.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case xdm.KindFloat:
		return v.Lexical()
	case xdm.KindString:
		return sqlStr(v.AsString())
	case xdm.KindNode:
		return "xml_parse(" + sqlStr(v.AsNode().Serialize(false)) + ")"
	case xdm.KindSeq:
		items := v.AsSeq()
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = renderLit(it)
		}
		return "xml_concat(" + strings.Join(parts, ", ") + ")"
	default:
		return "NULL"
	}
}
