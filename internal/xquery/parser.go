package xquery

import (
	"fmt"
	"strings"

	"quark/internal/xdm"
)

// maxDepth bounds how deeply expressions may nest (parentheses, predicates,
// function arguments, if/FLWOR bodies, element constructors and their
// enclosed expressions). The parser recurses once per level, so without a
// bound hostile input overflows the goroutine stack, which kills the
// process; real views and trigger conditions nest a dozen levels.
const maxDepth = 256

// Parser is a recursive-descent parser for the supported XQuery subset.
type Parser struct {
	lx    *Lexer
	tok   Token
	depth int // nesting levels open, counted across enclosed-expression sub-parsers
}

// Parse parses a complete expression.
func Parse(src string) (Expr, error) { return parseNested(src, 0) }

// parseNested parses src as a complete expression found depth levels
// inside an enclosing one.
func parseNested(src string, depth int) (Expr, error) {
	p := &Parser{lx: NewLexer(src), depth: depth}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, fmt.Errorf("xquery: unexpected %s at offset %d", p.tok, p.tok.Pos)
	}
	return e, nil
}

// NewParserAt creates a parser whose input starts mid-string; used by the
// trigger DDL parser to parse embedded expressions.
func NewParserAt(lx *Lexer, tok Token) *Parser { return &Parser{lx: lx, tok: tok} }

// Current returns the current lookahead token.
func (p *Parser) Current() Token { return p.tok }

// ParseExprPublic parses one expression and leaves the lookahead at the
// following token.
func (p *Parser) ParseExprPublic() (Expr, error) { return p.parseExpr() }

func (p *Parser) advance() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) expectSymbol(sym string) error {
	if p.tok.Kind != TokSymbol || p.tok.Text != sym {
		return fmt.Errorf("xquery: expected %q, found %s at offset %d", sym, p.tok, p.tok.Pos)
	}
	return p.advance()
}

func (p *Parser) isIdent(kw string) bool {
	return p.tok.Kind == TokIdent && p.tok.Text == kw
}

func (p *Parser) isSymbol(sym string) bool {
	return p.tok.Kind == TokSymbol && p.tok.Text == sym
}

// descend opens one nesting level at source offset pos; the caller closes
// it with p.depth-- once the nested construct is parsed.
func (p *Parser) descend(pos int) error {
	if p.depth >= maxDepth {
		return fmt.Errorf("xquery: expression nests deeper than %d levels at offset %d", maxDepth, pos)
	}
	p.depth++
	return nil
}

// chain consumes the operator of a left-associative chain (a + b + c ...).
// The loop that parses a chain does not recurse, but the tree it builds is
// one level deeper per operator and everything downstream recurses over the
// tree, so each operator opens a level too; the loop's caller closes them all
// by restoring p.depth.
func (p *Parser) chain() error {
	if err := p.descend(p.tok.Pos); err != nil {
		return err
	}
	return p.advance()
}

func (p *Parser) parseExpr() (e Expr, err error) {
	if err := p.descend(p.tok.Pos); err != nil {
		return nil, err
	}
	switch {
	case p.isIdent("for"), p.isIdent("let"):
		e, err = p.parseFLWOR()
	case p.isIdent("some"), p.isIdent("every"):
		e, err = p.parseQuantified()
	case p.isIdent("if"):
		e, err = p.parseIf()
	default:
		e, err = p.parseOr()
	}
	p.depth--
	return e, err
}

func (p *Parser) parseFLWOR() (Expr, error) {
	f := &FLWOR{}
	for {
		switch {
		case p.isIdent("for"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				if p.tok.Kind != TokVar {
					return nil, fmt.Errorf("xquery: expected $var in for at offset %d", p.tok.Pos)
				}
				v := p.tok.Text
				if err := p.advance(); err != nil {
					return nil, err
				}
				if !p.isIdent("in") {
					return nil, fmt.Errorf("xquery: expected 'in' at offset %d", p.tok.Pos)
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
				seq, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Clauses = append(f.Clauses, ForClause{Var: v, Seq: seq})
				if p.isSymbol(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		case p.isIdent("let"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				if p.tok.Kind != TokVar {
					return nil, fmt.Errorf("xquery: expected $var in let at offset %d", p.tok.Pos)
				}
				v := p.tok.Text
				if err := p.advance(); err != nil {
					return nil, err
				}
				if !p.isSymbol(":=") {
					return nil, fmt.Errorf("xquery: expected ':=' at offset %d", p.tok.Pos)
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
				seq, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Clauses = append(f.Clauses, LetClause{Var: v, Seq: seq})
				if p.isSymbol(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		default:
			goto clausesDone
		}
	}
clausesDone:
	if len(f.Clauses) == 0 {
		return nil, fmt.Errorf("xquery: FLWOR without clauses at offset %d", p.tok.Pos)
	}
	if p.isIdent("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	if !p.isIdent("return") {
		return nil, fmt.Errorf("xquery: expected 'return' at offset %d", p.tok.Pos)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	f.Return = r
	return f, nil
}

func (p *Parser) parseQuantified() (Expr, error) {
	every := p.isIdent("every")
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokVar {
		return nil, fmt.Errorf("xquery: expected $var at offset %d", p.tok.Pos)
	}
	v := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.isIdent("in") {
		return nil, fmt.Errorf("xquery: expected 'in' at offset %d", p.tok.Pos)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	seq, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.isIdent("satisfies") {
		return nil, fmt.Errorf("xquery: expected 'satisfies' at offset %d", p.tok.Pos)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	sat, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Quantified{Every: every, Var: v, Seq: seq, Sat: sat}, nil
}

func (p *Parser) parseIf() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if !p.isIdent("then") {
		return nil, fmt.Errorf("xquery: expected 'then' at offset %d", p.tok.Pos)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	th, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.isIdent("else") {
		return nil, fmt.Errorf("xquery: expected 'else' at offset %d", p.tok.Pos)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	el, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: cond, Then: th, Else: el}, nil
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	args := []Expr{l}
	for p.isIdent("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		args = append(args, r)
	}
	if len(args) == 1 {
		return l, nil
	}
	return &Logic{Op: "or", Args: args}, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	args := []Expr{l}
	for p.isIdent("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		args = append(args, r)
	}
	if len(args) == 1 {
		return l, nil
	}
	return &Logic{Op: "and", Args: args}, nil
}

var cmpOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSymbol && cmpOps[p.tok.Text] {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Cmp{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	open := p.depth
	for p.isSymbol("+") || p.isSymbol("-") {
		op := p.tok.Text
		if err := p.chain(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Arith{Op: op, L: l, R: r}
	}
	p.depth = open
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	open := p.depth
	for p.isSymbol("*") || p.isIdent("div") || p.isIdent("mod") {
		op := p.tok.Text
		if err := p.chain(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Arith{Op: op, L: l, R: r}
	}
	p.depth = open
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.isSymbol("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return &Arith{Op: "-", L: &Lit{V: xdm.Int(0)}, R: e}, nil
	}
	return p.parsePath()
}

func (p *Parser) parsePath() (Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	var steps []Step
	for p.isSymbol("/") || p.isSymbol("//") {
		axis := "child"
		if p.tok.Text == "//" {
			axis = "descendant"
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var name string
		switch {
		case p.isSymbol("@"):
			axis = "attribute"
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind != TokIdent && !p.isSymbol("*") {
				return nil, fmt.Errorf("xquery: expected attribute name at offset %d", p.tok.Pos)
			}
			name = p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.isSymbol("*"):
			name = "*"
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.isSymbol("."):
			axis = "self"
			name = "."
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.Kind == TokIdent:
			name = p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("xquery: expected step name at offset %d", p.tok.Pos)
		}
		st := Step{Axis: axis, Name: name}
		for p.isSymbol("[") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			pe, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
			st.Preds = append(st.Preds, pe)
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return base, nil
	}
	return &Path{Base: base, Steps: steps}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TokNumber:
		v := xdm.ParseTyped(p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{V: v}, nil
	case p.tok.Kind == TokString:
		v := xdm.Str(p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{V: v}, nil
	case p.tok.Kind == TokVar:
		v := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &VarRef{Name: v}, nil
	case p.isSymbol("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.isSymbol("."):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ContextItem{}, nil
	case p.isSymbol("<"):
		return p.parseElemCtor()
	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		if name == "OLD_NODE" || name == "NEW_NODE" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &NodeRef{Old: name == "OLD_NODE"}, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isSymbol("(") {
			return nil, fmt.Errorf("xquery: unexpected identifier %q at offset %d", name, p.tok.Pos)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []Expr
		if !p.isSymbol(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.isSymbol(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if name == "view" {
			if len(args) != 1 {
				return nil, fmt.Errorf("xquery: view() takes one string argument")
			}
			lit, ok := args[0].(*Lit)
			if !ok || lit.V.Kind() != xdm.KindString {
				return nil, fmt.Errorf("xquery: view() argument must be a string literal")
			}
			return &ViewRef{Name: lit.V.AsString()}, nil
		}
		return &FnCall{Name: name, Args: args}, nil
	default:
		return nil, fmt.Errorf("xquery: unexpected %s at offset %d", p.tok, p.tok.Pos)
	}
}

// parseElemCtor parses a direct element constructor. The lookahead token is
// '<'; the constructor is scanned in raw character mode starting at its
// position.
func (p *Parser) parseElemCtor() (Expr, error) {
	src := p.lx.Src()
	pos := p.tok.Pos // at '<'
	e, next, err := p.scanCtor(src, pos)
	if err != nil {
		return nil, err
	}
	p.lx.SetPos(next)
	if err := p.advance(); err != nil {
		return nil, err
	}
	return e, nil
}

// scanCtor parses "<name attr=... > content </name>" starting at pos
// (which must be '<'); returns the node and the offset just past it.
func (p *Parser) scanCtor(src string, pos int) (*ElemCtor, int, error) {
	if pos >= len(src) || src[pos] != '<' {
		return nil, 0, fmt.Errorf("xquery: expected '<' at offset %d", pos)
	}
	i := pos + 1
	name, i := scanCtorName(src, i)
	if name == "" {
		return nil, 0, fmt.Errorf("xquery: expected element name at offset %d", i)
	}
	e := &ElemCtor{Name: name}
	// Attributes.
	for {
		i = skipWS(src, i)
		if i >= len(src) {
			return nil, 0, fmt.Errorf("xquery: unterminated constructor <%s>", name)
		}
		if strings.HasPrefix(src[i:], "/>") {
			return e, i + 2, nil
		}
		if src[i] == '>' {
			i++
			break
		}
		an, j := scanCtorName(src, i)
		if an == "" {
			return nil, 0, fmt.Errorf("xquery: expected attribute name at offset %d", i)
		}
		i = skipWS(src, j)
		if i >= len(src) || src[i] != '=' {
			return nil, 0, fmt.Errorf("xquery: expected '=' after attribute %q", an)
		}
		i = skipWS(src, i+1)
		if i >= len(src) {
			return nil, 0, fmt.Errorf("xquery: unterminated attribute %q", an)
		}
		switch src[i] {
		case '{':
			expr, j, err := p.scanEnclosed(src, i)
			if err != nil {
				return nil, 0, err
			}
			e.Attrs = append(e.Attrs, AttrCtor{Name: an, Val: expr})
			i = j
		case '"', '\'':
			q := src[i]
			j := i + 1
			start := j
			// The value may itself be an enclosed expression: name="{...}".
			for j < len(src) && src[j] != q {
				j++
			}
			if j >= len(src) {
				return nil, 0, fmt.Errorf("xquery: unterminated attribute value for %q", an)
			}
			raw := src[start:j]
			if strings.HasPrefix(raw, "{") && strings.HasSuffix(raw, "}") {
				inner, err := parseNested(raw[1:len(raw)-1], p.depth)
				if err != nil {
					return nil, 0, err
				}
				e.Attrs = append(e.Attrs, AttrCtor{Name: an, Val: inner})
			} else {
				e.Attrs = append(e.Attrs, AttrCtor{Name: an, Val: &Lit{V: xdm.Str(raw)}})
			}
			i = j + 1
		default:
			return nil, 0, fmt.Errorf("xquery: expected attribute value at offset %d", i)
		}
	}
	// Content.
	for {
		if i >= len(src) {
			return nil, 0, fmt.Errorf("xquery: missing </%s>", name)
		}
		if strings.HasPrefix(src[i:], "</") {
			j := i + 2
			cn, j := scanCtorName(src, j)
			if cn != name {
				return nil, 0, fmt.Errorf("xquery: mismatched </%s>, want </%s>", cn, name)
			}
			j = skipWS(src, j)
			if j >= len(src) || src[j] != '>' {
				return nil, 0, fmt.Errorf("xquery: expected '>' after </%s", name)
			}
			return e, j + 1, nil
		}
		switch src[i] {
		case '<':
			if err := p.descend(i); err != nil {
				return nil, 0, err
			}
			child, j, err := p.scanCtor(src, i)
			p.depth--
			if err != nil {
				return nil, 0, err
			}
			e.Content = append(e.Content, child)
			i = j
		case '{':
			expr, j, err := p.scanEnclosed(src, i)
			if err != nil {
				return nil, 0, err
			}
			e.Content = append(e.Content, expr)
			i = j
		default:
			start := i
			for i < len(src) && src[i] != '<' && src[i] != '{' {
				i++
			}
			txt := strings.TrimSpace(src[start:i])
			if txt != "" {
				e.Content = append(e.Content, &Lit{V: xdm.Str(txt)})
			}
		}
	}
}

// scanEnclosed parses "{ Expr }" starting at the '{' and returns the
// expression and the offset just past the '}'.
func (p *Parser) scanEnclosed(src string, pos int) (Expr, int, error) {
	// Find the matching close brace, accounting for nesting and strings.
	depth := 0
	i := pos
	for i < len(src) {
		switch src[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				inner := src[pos+1 : i]
				e, err := parseNested(inner, p.depth)
				if err != nil {
					return nil, 0, err
				}
				return e, i + 1, nil
			}
		case '\'', '"':
			q := src[i]
			i++
			for i < len(src) && src[i] != q {
				i++
			}
		}
		i++
	}
	return nil, 0, fmt.Errorf("xquery: unbalanced '{' at offset %d", pos)
}

func skipWS(src string, i int) int {
	for i < len(src) {
		switch src[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

func scanCtorName(src string, i int) (string, int) {
	start := i
	for i < len(src) {
		c := src[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' || c == '=' || c == '/' || c == '<' || c == '{' {
			break
		}
		i++
	}
	return src[start:i], i
}
