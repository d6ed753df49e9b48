package sqlshim

import (
	"fmt"
	"strings"

	"quark/internal/xdm"
)

type parser struct {
	toks   []token
	i      int
	params int
}

// parseStmt parses a single SQL statement (optionally ;-terminated).
func parseStmt(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlshim: trailing input at %q", p.peek().text)
	}
	return st, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tkEOF }

// isKw reports whether the current token is the given keyword.
func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tkIdent && strings.EqualFold(t.text, kw)
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sqlshim: expected %s, got %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

// accept consumes the punct token if present.
func (p *parser) accept(punct string) bool {
	t := p.peek()
	if t.kind == tkPunct && t.text == punct {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(punct string) error {
	if !p.accept(punct) {
		return fmt.Errorf("sqlshim: expected %q, got %q", punct, p.peek().text)
	}
	return nil
}

// ident consumes an identifier (bare or quoted).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tkIdent || t.kind == tkQIdent {
		p.i++
		return t.text, nil
	}
	return "", fmt.Errorf("sqlshim: expected identifier, got %q", t.text)
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.isKw("create"):
		return p.createTable()
	case p.isKw("drop"):
		return p.dropTable()
	case p.isKw("insert"):
		return p.insert()
	case p.isKw("delete"):
		return p.delete()
	case p.isKw("explain"):
		p.i++
		if err := p.expectKw("query"); err != nil {
			return nil, err
		}
		if err := p.expectKw("plan"); err != nil {
			return nil, err
		}
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: q}, nil
	default:
		return p.query()
	}
}

func (p *parser) createTable() (Stmt, error) {
	p.i++ // CREATE
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.isKw("primary") {
			p.i++
			if err := p.expectKw("key"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PK = append(ct.PK, c)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		} else {
			cn, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ := ""
			for p.peek().kind == tkIdent && !p.isKw("primary") {
				// type name tokens (e.g. DOUBLE PRECISION) until , or )
				if typ != "" {
					typ += " "
				}
				typ += p.next().text
			}
			ct.Cols = append(ct.Cols, ColDef{Name: cn, Type: typ})
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) dropTable() (Stmt, error) {
	p.i++ // DROP
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	d := &DropTable{}
	if p.acceptKw("if") {
		if err := p.expectKw("exists"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d.Name = name
	return d, nil
}

func (p *parser) insert() (Stmt, error) {
	p.i++ // INSERT
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.accept("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, c)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	rows, err := p.valuesRows()
	if err != nil {
		return nil, err
	}
	ins.Rows = rows
	return ins, nil
}

func (p *parser) delete() (Stmt, error) {
	p.i++ // DELETE
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name}
	if p.acceptKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

func (p *parser) valuesRows() ([][]Expr, error) {
	var rows [][]Expr
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.accept(",") {
			break
		}
	}
	return rows, nil
}

func (p *parser) query() (*Query, error) {
	q := &Query{}
	if p.acceptKw("with") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			cte := CTEDef{Name: name}
			if p.accept("(") {
				for {
					c, err := p.ident()
					if err != nil {
						return nil, err
					}
					cte.Cols = append(cte.Cols, c)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			if err := p.expectKw("as"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			body, err := p.compound()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			cte.Body = body
			q.With = append(q.With, cte)
			if !p.accept(",") {
				break
			}
		}
	}
	body, err := p.compound()
	if err != nil {
		return nil, err
	}
	q.Body = body
	return q, nil
}

func (p *parser) compound() (*Compound, error) {
	first, err := p.operand()
	if err != nil {
		return nil, err
	}
	c := &Compound{First: first}
	for {
		var op string
		switch {
		case p.isKw("union"):
			p.i++
			op = "union"
			if p.acceptKw("all") {
				op = "union all"
			}
		case p.isKw("except"):
			p.i++
			op = "except"
		case p.isKw("intersect"):
			p.i++
			op = "intersect"
		default:
			return c, nil
		}
		o, err := p.operand()
		if err != nil {
			return nil, err
		}
		c.Rest = append(c.Rest, CompoundTail{Op: op, Operand: o})
	}
}

func (p *parser) operand() (Operand, error) {
	switch {
	case p.isKw("select"):
		return p.selectCore()
	case p.isKw("values"):
		p.i++
		rows, err := p.valuesRows()
		if err != nil {
			return nil, err
		}
		return &ValuesCore{Rows: rows}, nil
	case p.peek().kind == tkPunct && p.peek().text == "(":
		p.i++
		c, err := p.compound()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, fmt.Errorf("sqlshim: expected SELECT, VALUES or (, got %q", p.peek().text)
	}
}

func (p *parser) selectCore() (*SelectCore, error) {
	p.i++ // SELECT
	sc := &SelectCore{}
	for {
		if p.accept("*") {
			sc.Items = append(sc.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{E: e}
			if p.acceptKw("as") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.As = a
			}
			sc.Items = append(sc.Items, item)
		}
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKw("from") {
		first := FromItem{}
		if err := p.fromSource(&first); err != nil {
			return nil, err
		}
		sc.From = append(sc.From, first)
		for {
			join := ""
			switch {
			case p.isKw("join"):
				p.i++
				join = "inner"
			case p.isKw("inner"):
				p.i++
				if err := p.expectKw("join"); err != nil {
					return nil, err
				}
				join = "inner"
			case p.isKw("left"):
				p.i++
				p.acceptKw("outer")
				if err := p.expectKw("join"); err != nil {
					return nil, err
				}
				join = "left"
			case p.isKw("cross"):
				p.i++
				if err := p.expectKw("join"); err != nil {
					return nil, err
				}
				join = "cross"
			case p.peek().kind == tkPunct && p.peek().text == ",":
				p.i++
				join = "cross"
			default:
				join = ""
			}
			if join == "" {
				break
			}
			fi := FromItem{Join: join}
			if err := p.fromSource(&fi); err != nil {
				return nil, err
			}
			if p.acceptKw("on") {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				fi.On = e
			}
			sc.From = append(sc.From, fi)
		}
	}
	if p.acceptKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sc.Where = e
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sc.GroupBy = append(sc.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		specs, err := p.orderSpecs()
		if err != nil {
			return nil, err
		}
		sc.OrderBy = specs
	}
	return sc, nil
}

func (p *parser) orderSpecs() ([]OrderSpec, error) {
	var specs []OrderSpec
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		spec := OrderSpec{E: e}
		if p.acceptKw("desc") {
			spec.Desc = true
		} else {
			p.acceptKw("asc")
		}
		specs = append(specs, spec)
		if !p.accept(",") {
			break
		}
	}
	return specs, nil
}

func (p *parser) fromSource(fi *FromItem) error {
	if p.accept("(") {
		c, err := p.compound()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		fi.Sub = c
	} else {
		name, err := p.ident()
		if err != nil {
			return err
		}
		fi.Table = name
	}
	if p.acceptKw("as") {
		a, err := p.ident()
		if err != nil {
			return err
		}
		fi.Alias = a
	} else if t := p.peek(); (t.kind == tkIdent || t.kind == tkQIdent) && !fromClauseKw(t.text) {
		fi.Alias = t.text
		p.i++
	}
	return nil
}

// fromClauseKw lists keywords that terminate a FROM source (so a bare
// identifier after a table name is only taken as an alias when it is not
// one of these).
func fromClauseKw(s string) bool {
	switch strings.ToLower(s) {
	case "join", "inner", "left", "cross", "on", "where", "group", "order",
		"union", "except", "intersect", "as", "outer", "having", "limit":
		return true
	}
	return false
}

// --- expressions ---

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	var args []Expr
	for p.isKw("or") {
		p.i++
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		if args == nil {
			args = []Expr{l}
		}
		args = append(args, r)
	}
	if args != nil {
		return &LogicE{Op: "or", Args: args}, nil
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	var args []Expr
	for p.isKw("and") {
		p.i++
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		if args == nil {
			args = []Expr{l}
		}
		args = append(args, r)
	}
	if args != nil {
		return &LogicE{Op: "and", Args: args}, nil
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.isKw("not") && !p.nextIsExists() {
		p.i++
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryE{Op: "not", E: e}, nil
	}
	if p.isKw("not") {
		// NOT EXISTS (...)
		p.i++
		e, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryE{Op: "not", E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) nextIsExists() bool {
	t := p.toks[p.i+1]
	return t.kind == tkIdent && strings.EqualFold(t.text, "exists")
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.isKw("is") {
		p.i++
		neg := p.acceptKw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &IsNullE{E: l, Neg: neg}, nil
	}
	t := p.peek()
	if t.kind == tkPunct {
		switch t.text {
		case "=", "<", ">", "<=", ">=", "<>", "!=":
			p.i++
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinaryE{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkPunct && (t.text == "+" || t.text == "-") {
			p.i++
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryE{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkPunct && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.i++
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryE{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.peek()
	if t.kind == tkPunct && t.text == "-" {
		p.i++
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*LitE); ok && lit.V.IsNumeric() {
			if lit.V.Kind() == xdm.KindInt {
				return &LitE{V: xdm.Int(-lit.V.AsInt())}, nil
			}
			return &LitE{V: xdm.Float(-lit.V.AsFloat())}, nil
		}
		return &UnaryE{Op: "-", E: e}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tkString || t.kind == tkInt || t.kind == tkFloat:
		p.i++
		v, err := litFromToken(t)
		if err != nil {
			return nil, err
		}
		return &LitE{V: v}, nil
	case t.kind == tkParam:
		p.i++
		idx := p.params
		p.params++
		return &ParamE{Idx: idx}, nil
	case t.kind == tkPunct && t.text == "(":
		p.i++
		if p.isKw("select") || p.isKw("values") {
			c, err := p.compound()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &SubqueryE{Q: c}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tkIdent && strings.EqualFold(t.text, "exists"):
		p.i++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		c, err := p.compound()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &ExistsE{Q: c}, nil
	case t.kind == tkIdent && strings.EqualFold(t.text, "null"):
		p.i++
		return &LitE{}, nil
	case t.kind == tkIdent && strings.EqualFold(t.text, "true"):
		p.i++
		return &LitE{V: xdm.True}, nil
	case t.kind == tkIdent && strings.EqualFold(t.text, "false"):
		p.i++
		return &LitE{V: xdm.False}, nil
	case t.kind == tkIdent || t.kind == tkQIdent:
		p.i++
		name := t.text
		// function call?
		if t.kind == tkIdent && p.accept("(") {
			return p.callTail(name)
		}
		if p.accept(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColE{Qual: name, Name: col}, nil
		}
		return &ColE{Name: name}, nil
	default:
		return nil, fmt.Errorf("sqlshim: unexpected token %q in expression", t.text)
	}
}

func (p *parser) callTail(name string) (Expr, error) {
	lname := strings.ToLower(name)
	call := &CallE{Name: lname}
	if p.accept("*") {
		call.Star = true
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if !p.accept(")") {
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if p.accept(",") {
				continue
			}
			break
		}
		if p.acceptKw("order") {
			if err := p.expectKw("by"); err != nil {
				return nil, err
			}
			specs, err := p.orderSpecs()
			if err != nil {
				return nil, err
			}
			call.OrderBy = specs
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if lname == "row_number" && p.isKw("over") {
		p.i++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		w := &WindowE{Fn: "row_number"}
		if p.acceptKw("partition") {
			if err := p.expectKw("by"); err != nil {
				return nil, err
			}
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				w.PartitionBy = append(w.PartitionBy, e)
				if !p.accept(",") {
					break
				}
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return w, nil
	}
	return call, nil
}
