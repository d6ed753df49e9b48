package xquery

import (
	"strconv"

	"quark/internal/xdm"
)

// Expr is an XQuery AST node.
type Expr interface {
	render(r *renderer)
}

// renderer accumulates an AST's text in one buffer, so rendering costs time
// linear in the output however deep the tree is. With abstract set, every
// Lit is written as "?": the shape of an expression with its constants
// taken out, which is what structurally similar triggers share (§5.1).
type renderer struct {
	b        []byte
	abstract bool
}

func (r *renderer) WriteString(s string) { r.b = append(r.b, s...) }

func (r *renderer) WriteByte(c byte) error {
	r.b = append(r.b, c)
	return nil
}

func (r *renderer) exprs(es []Expr, sep string) {
	for i, e := range es {
		if i > 0 {
			r.WriteString(sep)
		}
		e.render(r)
	}
}

// Lit is a literal value.
type Lit struct {
	V xdm.Value
}

func (e *Lit) render(r *renderer) {
	if r.abstract {
		r.WriteByte('?')
		return
	}
	r.WriteString(e.V.String())
}

// VarRef references a bound variable.
type VarRef struct {
	Name string
}

func (e *VarRef) render(r *renderer) { r.WriteString("$" + e.Name) }

// ViewRef is view('name') — the root of a path over a registered view.
type ViewRef struct {
	Name string
}

func (e *ViewRef) render(r *renderer) {
	r.WriteString("view(")
	r.b = strconv.AppendQuote(r.b, e.Name)
	r.WriteByte(')')
}

// NodeRef references the trigger's OLD_NODE / NEW_NODE binding.
type NodeRef struct {
	Old bool
}

func (e *NodeRef) render(r *renderer) {
	if e.Old {
		r.WriteString("OLD_NODE")
	} else {
		r.WriteString("NEW_NODE")
	}
}

// Step is one XPath step.
type Step struct {
	Axis  string // "child", "descendant", "attribute", "self"
	Name  string // "*" matches any element
	Preds []Expr // predicates, evaluated with "." bound to the step item
}

func (s Step) String() string { return string(s.Append(nil)) }

// Append appends the step's text to b.
func (s Step) Append(b []byte) []byte {
	r := renderer{b: b}
	s.render(&r)
	return r.b
}

func (s Step) render(r *renderer) {
	switch s.Axis {
	case "descendant":
		r.WriteString("//")
	case "attribute":
		r.WriteString("/@")
	case "self":
		r.WriteString("/.")
	default:
		r.WriteString("/")
	}
	if s.Axis != "self" {
		r.WriteString(s.Name)
	}
	for _, p := range s.Preds {
		r.WriteString("[")
		p.render(r)
		r.WriteString("]")
	}
}

// Path is a base expression followed by steps.
type Path struct {
	Base  Expr
	Steps []Step
}

func (e *Path) render(r *renderer) {
	e.Base.render(r)
	for _, s := range e.Steps {
		s.render(r)
	}
}

// ContextItem is "." inside a predicate.
type ContextItem struct{}

func (e *ContextItem) render(r *renderer) { r.WriteString(".") }

func renderBinary(r *renderer, l Expr, op string, rhs Expr) {
	r.WriteString("(")
	l.render(r)
	r.WriteString(" " + op + " ")
	rhs.render(r)
	r.WriteString(")")
}

// Cmp is a general comparison.
type Cmp struct {
	Op   string
	L, R Expr
}

func (e *Cmp) render(r *renderer) { renderBinary(r, e.L, e.Op, e.R) }

// Arith is an arithmetic expression (+ - * div mod).
type Arith struct {
	Op   string
	L, R Expr
}

func (e *Arith) render(r *renderer) { renderBinary(r, e.L, e.Op, e.R) }

// Logic is and/or/not.
type Logic struct {
	Op   string
	Args []Expr
}

func (e *Logic) render(r *renderer) {
	if e.Op == "not" {
		r.WriteString("not(")
		e.Args[0].render(r)
		r.WriteString(")")
		return
	}
	r.WriteString("(")
	r.exprs(e.Args, " "+e.Op+" ")
	r.WriteString(")")
}

// FnCall is a function call: one of xqgm's function table, or distinct()
// as a view's for-source.
type FnCall struct {
	Name string
	Args []Expr
}

func (e *FnCall) render(r *renderer) {
	r.WriteString(e.Name + "(")
	r.exprs(e.Args, ", ")
	r.WriteString(")")
}

// Quantified is some/every $v in seq satisfies pred.
type Quantified struct {
	Every bool
	Var   string
	Seq   Expr
	Sat   Expr
}

func (e *Quantified) render(r *renderer) {
	kw := "some"
	if e.Every {
		kw = "every"
	}
	r.WriteString(kw + " $" + e.Var + " in ")
	e.Seq.render(r)
	r.WriteString(" satisfies ")
	e.Sat.render(r)
}

// IfExpr is if (cond) then a else b.
type IfExpr struct {
	Cond, Then, Else Expr
}

func (e *IfExpr) render(r *renderer) {
	r.WriteString("if (")
	e.Cond.render(r)
	r.WriteString(") then ")
	e.Then.render(r)
	r.WriteString(" else ")
	e.Else.render(r)
}

// ForClause / LetClause are FLWOR clauses.
type ForClause struct {
	Var string
	Seq Expr
}

// LetClause binds a variable to an expression.
type LetClause struct {
	Var string
	Seq Expr
}

// FLWOR is a for/let/where/return expression.
type FLWOR struct {
	Clauses []any // ForClause | LetClause, in source order
	Where   Expr
	Return  Expr
}

func (e *FLWOR) render(r *renderer) {
	for _, c := range e.Clauses {
		switch c := c.(type) {
		case ForClause:
			r.WriteString("for $" + c.Var + " in ")
			c.Seq.render(r)
		case LetClause:
			r.WriteString("let $" + c.Var + " := ")
			c.Seq.render(r)
		}
		r.WriteString(" ")
	}
	if e.Where != nil {
		r.WriteString("where ")
		e.Where.render(r)
		r.WriteString(" ")
	}
	r.WriteString("return ")
	e.Return.render(r)
}

// AttrCtor is one attribute of an element constructor: name="literal" or
// name={expr}.
type AttrCtor struct {
	Name string
	Val  Expr
}

// ElemCtor is a direct element constructor. Content items are text
// literals (Lit of string) or enclosed expressions.
type ElemCtor struct {
	Name    string
	Attrs   []AttrCtor
	Content []Expr
}

func (e *ElemCtor) render(r *renderer) {
	r.WriteString("<" + e.Name)
	for _, a := range e.Attrs {
		r.WriteString(" " + a.Name + "={")
		a.Val.render(r)
		r.WriteString("}")
	}
	r.WriteString(">")
	for _, c := range e.Content {
		r.WriteString("{")
		c.render(r)
		r.WriteString("}")
	}
	r.WriteString("</" + e.Name + ">")
}

// String renders any AST node.
func String(e Expr) string {
	if e == nil {
		return "<nil>"
	}
	var r renderer
	e.render(&r)
	return string(r.b)
}

// Walk calls fn on e and, while fn returns true, on each of its
// subexpressions in the order String renders them: the literals Walk meets
// come in the order of AppendAbstract's "?"s.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	walkAll := func(es ...Expr) {
		for _, x := range es {
			Walk(x, fn)
		}
	}
	switch x := e.(type) {
	case *Path:
		Walk(x.Base, fn)
		for _, s := range x.Steps {
			walkAll(s.Preds...)
		}
	case *Cmp:
		walkAll(x.L, x.R)
	case *Arith:
		walkAll(x.L, x.R)
	case *Logic:
		walkAll(x.Args...)
	case *FnCall:
		walkAll(x.Args...)
	case *Quantified:
		walkAll(x.Seq, x.Sat)
	case *IfExpr:
		walkAll(x.Cond, x.Then, x.Else)
	case *FLWOR:
		for _, c := range x.Clauses {
			switch c := c.(type) {
			case ForClause:
				Walk(c.Seq, fn)
			case LetClause:
				Walk(c.Seq, fn)
			}
		}
		walkAll(x.Where, x.Return)
	case *ElemCtor:
		for _, a := range x.Attrs {
			Walk(a.Val, fn)
		}
		walkAll(x.Content...)
	}
}

// AppendAbstract appends e's text with every literal replaced by "?", in
// the order a traversal of the AST meets them, to b.
func AppendAbstract(b []byte, e Expr) []byte {
	if e == nil {
		return append(b, "<nil>"...)
	}
	r := renderer{b: b, abstract: true}
	e.render(&r)
	return r.b
}
