package xqgm

import (
	"fmt"
	"strings"

	"quark/internal/xdm"
)

// Expr is a scalar expression evaluated against the tuples of an operator's
// input(s). ColRef.Input selects which input's tuple is referenced (0 for
// unary operators; 0 = left, 1 = right inside join predicates).
type Expr interface {
	Eval(env *Env) (xdm.Value, error)
	String() string
}

// Env carries the input tuples an expression may reference and the chunks
// its element constructors build from. The zero Env is ready to use; an
// operator pass takes the context's (EvalContext.passEnv) and re-points it
// at each tuple.
type Env struct {
	In    [2][]xdm.Value
	nodes xdm.Chunks
}

// ColRef references column Col of input Input.
type ColRef struct {
	Input int
	Col   int
}

// Col is shorthand for a reference to column c of input 0.
func Col(c int) *ColRef { return &ColRef{Input: 0, Col: c} }

// Col2 is shorthand for a reference to column c of input 1.
func Col2(c int) *ColRef { return &ColRef{Input: 1, Col: c} }

// Eval implements Expr.
func (e *ColRef) Eval(env *Env) (xdm.Value, error) {
	t := env.In[e.Input]
	if e.Col < 0 || e.Col >= len(t) {
		return xdm.Null, fmt.Errorf("xqgm: column %d out of range (width %d)", e.Col, len(t))
	}
	return t[e.Col], nil
}

func (e *ColRef) String() string {
	if e.Input == 0 {
		return fmt.Sprintf("$%d", e.Col)
	}
	return fmt.Sprintf("$%d.%d", e.Input, e.Col)
}

// Lit is a literal value.
type Lit struct {
	V xdm.Value
}

// LitOf wraps a value as a literal expression.
func LitOf(v xdm.Value) *Lit { return &Lit{V: v} }

// Eval implements Expr.
func (e *Lit) Eval(*Env) (xdm.Value, error) { return e.V, nil }

func (e *Lit) String() string { return e.V.String() }

// Cmp is a general comparison (paper supports =, !=, <, <=, >, >=).
type Cmp struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (e *Cmp) Eval(env *Env) (xdm.Value, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return xdm.Null, err
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return xdm.Null, err
	}
	return xdm.CompareOp(e.Op, l, r)
}

func (e *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Arith is a binary arithmetic expression (+, -, *, div, mod).
type Arith struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (e *Arith) Eval(env *Env) (xdm.Value, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return xdm.Null, err
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return xdm.Null, err
	}
	return xdm.Arith(e.Op, xdm.Atomize(l), xdm.Atomize(r))
}

func (e *Arith) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Logic is a boolean combinator: "and", "or" over Args, or "not" over
// Args[0]. Three-valued logic: Null operands follow SQL semantics.
type Logic struct {
	Op   string
	Args []Expr
}

// Eval implements Expr.
func (e *Logic) Eval(env *Env) (xdm.Value, error) {
	switch e.Op {
	case "and":
		sawNull := false
		for _, a := range e.Args {
			v, err := a.Eval(env)
			if err != nil {
				return xdm.Null, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			if !v.EffectiveBool() {
				return xdm.False, nil
			}
		}
		if sawNull {
			return xdm.Null, nil
		}
		return xdm.True, nil
	case "or":
		sawNull := false
		for _, a := range e.Args {
			v, err := a.Eval(env)
			if err != nil {
				return xdm.Null, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			if v.EffectiveBool() {
				return xdm.True, nil
			}
		}
		if sawNull {
			return xdm.Null, nil
		}
		return xdm.False, nil
	case "not":
		v, err := e.Args[0].Eval(env)
		if err != nil {
			return xdm.Null, err
		}
		if v.IsNull() {
			return xdm.Null, nil
		}
		return xdm.Bool(!v.EffectiveBool()), nil
	default:
		return xdm.Null, fmt.Errorf("xqgm: unknown logic op %q", e.Op)
	}
}

func (e *Logic) String() string {
	if e.Op == "not" {
		return fmt.Sprintf("not(%s)", e.Args[0])
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, " "+e.Op+" ") + ")"
}

// And builds a conjunction, flattening nested Ands and dropping nil terms.
func And(args ...Expr) Expr {
	var flat []Expr
	for _, a := range args {
		if a == nil {
			continue
		}
		if l, ok := a.(*Logic); ok && l.Op == "and" {
			flat = append(flat, l.Args...)
			continue
		}
		flat = append(flat, a)
	}
	switch len(flat) {
	case 0:
		return LitOf(xdm.True)
	case 1:
		return flat[0]
	default:
		return &Logic{Op: "and", Args: flat}
	}
}

// Conjuncts flattens a conjunction into its terms; nil has none.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*Logic); ok && l.Op == "and" {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, Conjuncts(a)...)
		}
		return out
	}
	return []Expr{e}
}

// Func is one entry of the function table: a function a view or trigger
// expression may call. The translator (compile.Translate) checks a call's
// name and argument count here when the view or trigger is created;
// Call.Eval computes it, and plan SQL calls the backend function SQL.
type Func struct {
	Min, Max int // argument count; Max < 0: Min or more
	SQL      string
	op       funcOp
}

type funcOp uint8

const (
	fnData funcOp = iota
	fnString
	fnCount
	fnEmpty
	fnExists
	fnNot
	fnConcat
	fnAbs
	fnCoalesce
	fnDeepEqual
)

// funcs is the function table. count, empty and exists apply to a
// sequence-valued argument (typically an aggXMLFrag column); deep-equal is
// the tagger-level OLD_NODE = NEW_NODE comparison of Appendix E.1.
var funcs = map[string]Func{
	"data":       {1, 1, "xml_data", fnData},
	"string":     {1, 1, "xml_string", fnString},
	"count":      {1, 1, "seq_count", fnCount},
	"empty":      {1, 1, "seq_empty", fnEmpty},
	"exists":     {1, 1, "seq_exists", fnExists},
	"not":        {1, 1, "NOT", fnNot},
	"concat":     {2, -1, "concat", fnConcat},
	"abs":        {1, 1, "ABS", fnAbs},
	"coalesce":   {1, -1, "COALESCE", fnCoalesce},
	"deep-equal": {2, 2, "deep_equal", fnDeepEqual},
}

// LookupFunc returns the function table's entry for name.
func LookupFunc(name string) (Func, bool) {
	f, ok := funcs[name]
	return f, ok
}

// CheckCall returns an error unless the function table has name, taking n
// arguments.
func CheckCall(name string, n int) error {
	f, ok := funcs[name]
	return f.check(name, ok, n)
}

func (f Func) check(name string, known bool, n int) error {
	if !known {
		return fmt.Errorf("xqgm: unknown function %q", name)
	}
	if n < f.Min || f.Max >= 0 && n > f.Max {
		return fmt.Errorf("xqgm: %s() does not take %d argument(s)", name, n)
	}
	return nil
}

// Call calls a function of the function table.
type Call struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (e *Call) Eval(env *Env) (xdm.Value, error) {
	f, ok := funcs[e.Name]
	if err := f.check(e.Name, ok, len(e.Args)); err != nil {
		return xdm.Null, err
	}
	var buf [4]xdm.Value // the arguments of every call but a long concat
	vals := buf[:0]
	for _, a := range e.Args {
		v, err := a.Eval(env)
		if err != nil {
			return xdm.Null, err
		}
		vals = append(vals, v)
	}
	switch f.op {
	case fnData:
		return xdm.Atomize(vals[0]), nil
	case fnString:
		return xdm.Str(vals[0].AsString()), nil
	case fnCount:
		return xdm.Int(int64(vals[0].SeqLen())), nil
	case fnEmpty:
		return xdm.Bool(vals[0].SeqLen() == 0), nil
	case fnExists:
		return xdm.Bool(vals[0].SeqLen() > 0), nil
	case fnNot:
		if vals[0].IsNull() {
			return xdm.Null, nil
		}
		return xdm.Bool(!vals[0].EffectiveBool()), nil
	case fnConcat:
		var sb strings.Builder
		for _, v := range vals {
			sb.WriteString(v.AsString())
		}
		return xdm.Str(sb.String()), nil
	case fnAbs:
		v := xdm.Atomize(vals[0])
		if v.IsNull() {
			return xdm.Null, nil
		}
		if v.Kind() == xdm.KindInt {
			i := v.AsInt()
			if i < 0 {
				i = -i
			}
			return xdm.Int(i), nil
		}
		x := v.AsFloat()
		if x < 0 {
			x = -x
		}
		return xdm.Float(x), nil
	case fnCoalesce:
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return xdm.Null, nil
	default: // fnDeepEqual: structural equality, node values included
		return xdm.Bool(xdm.Equal(vals[0], vals[1])), nil
	}
}

func (e *Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// IsNullExpr tests a value for null (SQL IS NULL).
type IsNullExpr struct {
	E   Expr
	Neg bool
}

// Eval implements Expr.
func (e *IsNullExpr) Eval(env *Env) (xdm.Value, error) {
	v, err := e.E.Eval(env)
	if err != nil {
		return xdm.Null, err
	}
	if e.Neg {
		return xdm.Bool(!v.IsNull()), nil
	}
	return xdm.Bool(v.IsNull()), nil
}

func (e *IsNullExpr) String() string {
	if e.Neg {
		return fmt.Sprintf("(%s IS NOT NULL)", e.E)
	}
	return fmt.Sprintf("(%s IS NULL)", e.E)
}

// AttrSpec is one attribute of an ElemCtor: name={E}.
type AttrSpec struct {
	Name string
	E    Expr
}

// ElemCtor is the XML element construction function embedded in Project
// operators (paper Section 2.1). Children expressions yielding nodes are
// embedded as they are (nodes are immutable, so content is shared, never
// copied); sequences are spliced; scalars become text content.
type ElemCtor struct {
	Name     string
	Attrs    []AttrSpec
	Children []Expr
}

// Eval implements Expr.
func (e *ElemCtor) Eval(env *Env) (xdm.Value, error) {
	var buf [8]xdm.Value
	content := buf[:0] // the attributes, then the children's values
	for _, a := range e.Attrs {
		v, err := a.E.Eval(env)
		if err != nil {
			return xdm.Null, err
		}
		content = append(content, xdm.NodeVal(env.nodes.Attr(a.Name, v)))
	}
	for _, c := range e.Children {
		v, err := c.Eval(env)
		if err != nil {
			return xdm.Null, err
		}
		content = append(content, v)
	}
	return xdm.NodeVal(env.nodes.Elem(e.Name, content...)), nil
}

func (e *ElemCtor) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	sb.WriteString(e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(&sb, " %s={%s}", a.Name, a.E)
	}
	sb.WriteString(">{")
	for i, c := range e.Children {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteString("}</")
	sb.WriteString(e.Name)
	sb.WriteByte('>')
	return sb.String()
}

// SeqCtor assembles the sequence of its items' values: the field
// elements a view's $row/* content expands to.
type SeqCtor struct {
	Items []Expr
}

// Eval implements Expr.
func (e *SeqCtor) Eval(env *Env) (xdm.Value, error) {
	out := make([]xdm.Value, 0, len(e.Items))
	for _, it := range e.Items {
		v, err := it.Eval(env)
		if err != nil {
			return xdm.Null, err
		}
		out = append(out, v)
	}
	return xdm.Seq(out), nil
}

func (e *SeqCtor) String() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// PathStep navigates within a node-valued expression: child element access,
// attribute access, or descendant search. It implements the XPath axes the
// paper supports (child, attribute, descendant-or-self) over already
// constructed XML values; the compiler uses it when a path cannot be
// composed away into relational columns.
type PathStep struct {
	In        Expr
	Axis      string // "child", "attribute", "descendant"
	Name      string // "*" for any element
	Predicate Expr   // optional, evaluated with the step result as input 0 column 0
}

// Eval implements Expr.
func (e *PathStep) Eval(env *Env) (xdm.Value, error) {
	v, err := e.In.Eval(env)
	if err != nil {
		return xdm.Null, err
	}
	var out []xdm.Value
	for _, item := range v.AsSeq() {
		n := item.AsNode()
		if n == nil {
			continue
		}
		switch e.Axis {
		case "child":
			for _, c := range n.ChildElements(e.Name) {
				out = append(out, xdm.NodeVal(c))
			}
		case "attribute":
			// Attribute values atomize to untyped atomics: parse numerics
			// so comparisons against numbers behave numerically.
			if e.Name == "*" {
				for _, a := range n.Attrs() {
					out = append(out, xdm.ParseTyped(a.Text()))
				}
			} else if av, ok := n.Attribute(e.Name); ok {
				out = append(out, xdm.ParseTyped(av))
			}
		case "descendant":
			for _, d := range n.Descendants(e.Name, nil) {
				out = append(out, xdm.NodeVal(d))
			}
		default:
			return xdm.Null, fmt.Errorf("xqgm: unsupported axis %q", e.Axis)
		}
	}
	if e.Predicate != nil && len(out) > 0 {
		// The predicate sees the step item as input 0 and inherits input 1
		// (e.g. the constants-table row in grouped trigger plans, enabling
		// arbitrarily nested grouped conditions, paper §5.1): env is
		// re-pointed at each item and put back afterwards.
		outer, item := env.In[0], make([]xdm.Value, 1)
		env.In[0] = item
		kept := out[:0]
		for _, v := range out {
			item[0] = v
			pv, err := e.Predicate.Eval(env)
			if err != nil {
				env.In[0] = outer
				return xdm.Null, err
			}
			if !pv.IsNull() && pv.EffectiveBool() {
				kept = append(kept, v)
			}
		}
		env.In[0] = outer
		out = kept
	}
	switch len(out) {
	case 0:
		return xdm.Null, nil
	case 1:
		return out[0], nil
	default:
		return xdm.Seq(out), nil
	}
}

func (e *PathStep) String() string {
	sep := "/"
	name := e.Name
	switch e.Axis {
	case "attribute":
		name = "@" + name
	case "descendant":
		sep = "//"
	}
	s := fmt.Sprintf("%s%s%s", e.In, sep, name)
	if e.Predicate != nil {
		s += fmt.Sprintf("[%s]", e.Predicate)
	}
	return s
}

// RewriteExpr returns a copy of e with every subexpression passed through
// fn (bottom-up). fn may return the expression unchanged.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ColRef, *Lit:
		return fn(e)
	case *Cmp:
		return fn(&Cmp{Op: x.Op, L: RewriteExpr(x.L, fn), R: RewriteExpr(x.R, fn)})
	case *Arith:
		return fn(&Arith{Op: x.Op, L: RewriteExpr(x.L, fn), R: RewriteExpr(x.R, fn)})
	case *Logic:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteExpr(a, fn)
		}
		return fn(&Logic{Op: x.Op, Args: args})
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteExpr(a, fn)
		}
		return fn(&Call{Name: x.Name, Args: args})
	case *IsNullExpr:
		return fn(&IsNullExpr{E: RewriteExpr(x.E, fn), Neg: x.Neg})
	case *ElemCtor:
		attrs := make([]AttrSpec, len(x.Attrs))
		for i, a := range x.Attrs {
			attrs[i] = AttrSpec{Name: a.Name, E: RewriteExpr(a.E, fn)}
		}
		kids := make([]Expr, len(x.Children))
		for i, c := range x.Children {
			kids[i] = RewriteExpr(c, fn)
		}
		return fn(&ElemCtor{Name: x.Name, Attrs: attrs, Children: kids})
	case *SeqCtor:
		items := make([]Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = RewriteExpr(it, fn)
		}
		return fn(&SeqCtor{Items: items})
	case *PathStep:
		return fn(&PathStep{In: RewriteExpr(x.In, fn), Axis: x.Axis, Name: x.Name, Predicate: RewriteExpr(x.Predicate, fn)})
	default:
		return fn(e)
	}
}

// ExprCols collects the input-0 column indexes referenced by e.
func ExprCols(e Expr) []int {
	set := map[int]bool{}
	RewriteExpr(e, func(x Expr) Expr {
		if cr, ok := x.(*ColRef); ok && cr.Input == 0 {
			set[cr.Col] = true
		}
		return x
	})
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// ShiftCols returns a copy of e with every input-0 ColRef shifted by delta.
func ShiftCols(e Expr, delta int) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		if cr, ok := x.(*ColRef); ok && cr.Input == 0 {
			return &ColRef{Input: 0, Col: cr.Col + delta}
		}
		return x
	})
}

// SubstituteCols returns a copy of e with input-0 ColRefs remapped through
// m (old column index -> new column index). Unmapped references are left
// unchanged.
func SubstituteCols(e Expr, m map[int]int) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		if cr, ok := x.(*ColRef); ok && cr.Input == 0 {
			if nc, ok := m[cr.Col]; ok {
				return &ColRef{Input: 0, Col: nc}
			}
		}
		return x
	})
}
