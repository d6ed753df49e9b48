package core

import (
	"fmt"

	"quark/internal/compile"
	"quark/internal/grouping"
	"quark/internal/xdm"
	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// Layout is where a plan row holds the view's columns: the NEW version's
// from column New on, the OLD version's from column Old on. Conditions and
// action arguments compile against both the translated-trigger plans
// (ANGraph layout) and the materialized baseline (tuple-pair layout).
type Layout struct {
	New, Old int
}

func (l Layout) col(old bool, i int) int {
	if old {
		return l.Old + i
	}
	return l.New + i
}

// condCompiler translates trigger Condition / Action-argument expressions
// (over OLD_NODE / NEW_NODE) into xqgm expressions over a plan row,
// performing condition pushdown where the navigation tree provides scalar
// bindings (attributes) and falling back to generic path navigation over
// the constructed node values otherwise.
type condCompiler struct {
	nav    *compile.NavNode
	layout Layout
	// consts records the literals, which compile to grouping.ConstRef
	// placeholders (trigger grouping, §5.1); the first nCond are a
	// template's condition's.
	consts []xdm.Value
	nCond  int
}

// template compiles a trigger's condition and action arguments, whose
// constants follow the condition's. The arguments read theirs from input 1,
// where activation puts a member's Consts.
func (cc *condCompiler) template(cond xquery.Expr, args []xquery.Expr) (xqgm.Expr, []xqgm.Expr, error) {
	top := condScope{cc: cc}.resolve
	var c xqgm.Expr
	if cond != nil {
		var err error
		if c, err = compile.Translate(cond, top); err != nil {
			return nil, nil, err
		}
	}
	cc.nCond = len(cc.consts)
	out := make([]xqgm.Expr, len(args))
	for i, a := range args {
		ce, err := compile.Translate(a, top)
		if err != nil {
			return nil, nil, err
		}
		out[i] = grouping.ReadConsts(ce, 0)
	}
	return c, out, nil
}

// appendLits appends the literals of a trigger's condition and then of its
// action arguments to b, in the order template numbers its constants:
// Translate meets them in the order xquery.Walk does.
func appendLits(b []xdm.Value, cond xquery.Expr, args []xquery.Expr) []xdm.Value {
	lits := func(x xquery.Expr) bool {
		if l, ok := x.(*xquery.Lit); ok {
			b = append(b, l.V)
		}
		return true
	}
	xquery.Walk(cond, lits)
	for _, a := range args {
		xquery.Walk(a, lits)
	}
	return b
}

// condScope is the compile.Resolver of a trigger expression. At the top
// level OLD_NODE and NEW_NODE are the plan row's node columns; inside a
// step predicate or a quantifier's condition (item) the step item ".", and
// the quantifier's variable itemVar, are column 0 of the predicate's input,
// and the plan row is out of reach. Literals are the template's constants.
type condScope struct {
	cc      *condCompiler
	item    bool
	itemVar string
}

func (s condScope) resolve(e xquery.Expr) (xqgm.Expr, error) {
	switch x := e.(type) {
	case *xquery.Lit:
		s.cc.consts = append(s.cc.consts, x.V)
		return &grouping.ConstRef{Idx: len(s.cc.consts) - 1}, nil
	case *xquery.NodeRef:
		if s.item {
			return nil, fmt.Errorf("%s inside a predicate is not supported", xquery.String(e))
		}
		return xqgm.Col(s.cc.layout.col(x.Old, s.cc.nav.NodeCol)), nil
	case *xquery.ContextItem:
		if !s.item {
			return nil, fmt.Errorf(`"." outside a predicate`)
		}
		return xqgm.Col(0), nil
	case *xquery.VarRef:
		if !s.item || x.Name != s.itemVar {
			return nil, fmt.Errorf("unbound variable $%s in trigger expression", x.Name)
		}
		return xqgm.Col(0), nil
	case *xquery.Path:
		return s.path(x)
	case *xquery.Quantified:
		return s.quantified(x)
	}
	return nil, nil
}

// path translates a path from OLD_NODE, NEW_NODE, "." or the quantifier's
// variable. OLD_NODE/@attr or NEW_NODE/@attr with a scalar column recorded
// in the navigation tree reads that column (condition pushdown); anything
// else navigates the constructed node value.
func (s condScope) path(p *xquery.Path) (xqgm.Expr, error) {
	switch b := p.Base.(type) {
	case *xquery.NodeRef:
		if st := p.Steps[0]; !s.item && len(p.Steps) == 1 && st.Axis == "attribute" && len(st.Preds) == 0 {
			if col, ok := s.cc.nav.Attrs[st.Name]; ok {
				return xqgm.Col(s.cc.layout.col(b.Old, col)), nil
			}
		}
	case *xquery.ContextItem, *xquery.VarRef:
	default:
		return nil, fmt.Errorf("trigger paths must start at OLD_NODE, NEW_NODE or a predicate's item, got %s", xquery.String(p))
	}
	cur, err := s.resolve(p.Base)
	if err != nil {
		return nil, err
	}
	pred := condScope{cc: s.cc, item: true}.resolve
	for _, st := range p.Steps {
		if st.Axis == "self" {
			if len(st.Preds) > 0 {
				return nil, fmt.Errorf("predicates on a self step are not supported: %s", xquery.String(p))
			}
			continue
		}
		step := &xqgm.PathStep{In: cur, Axis: st.Axis, Name: st.Name}
		for _, pd := range st.Preds {
			pe, err := compile.Translate(pd, pred)
			if err != nil {
				return nil, err
			}
			step.Predicate = xqgm.And(step.Predicate, pe)
		}
		cur = step
	}
	return cur, nil
}

// quantified translates some/every $v in path satisfies p to
// count(path[p']) > 0, or = count(path).
func (s condScope) quantified(q *xquery.Quantified) (xqgm.Expr, error) {
	seq, err := compile.Translate(q.Seq, s.resolve)
	if err != nil {
		return nil, err
	}
	sat, err := compile.Translate(q.Sat, condScope{cc: s.cc, item: true, itemVar: q.Var}.resolve)
	if err != nil {
		return nil, err
	}
	step, ok := seq.(*xqgm.PathStep)
	if !ok {
		return nil, fmt.Errorf("quantified expression requires a path source")
	}
	filtered := &xqgm.PathStep{In: step.In, Axis: step.Axis, Name: step.Name, Predicate: xqgm.And(step.Predicate, sat)}
	cnt := &xqgm.Call{Name: "count", Args: []xqgm.Expr{filtered}}
	if q.Every {
		total := &xqgm.Call{Name: "count", Args: []xqgm.Expr{step}}
		return &xqgm.Cmp{Op: "=", L: cnt, R: total}, nil
	}
	return &xqgm.Cmp{Op: ">", L: cnt, R: xqgm.LitOf(xdm.Int(0))}, nil
}
