package core

import (
	"fmt"

	"quark/internal/compile"
	"quark/internal/grouping"
	"quark/internal/xdm"
	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// Layout abstracts where the old/new versions of the view's columns live in
// a plan's output row, so conditions and action arguments compile against
// both the translated-trigger plans (ANGraph layout) and the materialized
// baseline (tuple-pair layout).
type Layout struct {
	NewCol func(i int) int
	OldCol func(i int) int
}

// condCompiler translates trigger Condition / Action-argument expressions
// (over OLD_NODE / NEW_NODE) into xqgm expressions over a plan row,
// performing condition pushdown where the navigation tree provides scalar
// bindings (attributes, counts) and falling back to generic path
// navigation over the constructed node values otherwise.
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
	var c xqgm.Expr
	if cond != nil {
		var err error
		if c, err = cc.compile(cond); err != nil {
			return nil, nil, err
		}
	}
	cc.nCond = len(cc.consts)
	out := make([]xqgm.Expr, len(args))
	for i, a := range args {
		ce, err := cc.compile(a)
		if err != nil {
			return nil, nil, err
		}
		out[i] = grouping.ReadConsts(ce, 0)
	}
	return c, out, nil
}

func (cc *condCompiler) lit(v xdm.Value) xqgm.Expr {
	cc.consts = append(cc.consts, v)
	return &grouping.ConstRef{Idx: len(cc.consts) - 1}
}

func (cc *condCompiler) nodeCol(old bool) int {
	if old {
		return cc.layout.OldCol(cc.nav.NodeCol)
	}
	return cc.layout.NewCol(cc.nav.NodeCol)
}

// compile translates a trigger expression.
func (cc *condCompiler) compile(e xquery.Expr) (xqgm.Expr, error) {
	switch x := e.(type) {
	case *xquery.Lit:
		return cc.lit(x.V), nil
	case *xquery.NodeRef:
		return xqgm.Col(cc.nodeCol(x.Old)), nil
	case *xquery.Path:
		return cc.compilePath(x)
	case *xquery.Cmp:
		l, err := cc.compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.compile(x.R)
		if err != nil {
			return nil, err
		}
		return &xqgm.Cmp{Op: x.Op, L: l, R: r}, nil
	case *xquery.Arith:
		l, err := cc.compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.compile(x.R)
		if err != nil {
			return nil, err
		}
		return &xqgm.Arith{Op: x.Op, L: l, R: r}, nil
	case *xquery.Logic:
		args := make([]xqgm.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := cc.compile(a)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return &xqgm.Logic{Op: x.Op, Args: args}, nil
	case *xquery.FnCall:
		switch x.Name {
		case "count", "empty", "exists", "data", "string", "not", "abs":
			args := make([]xqgm.Expr, len(x.Args))
			for i, a := range x.Args {
				ce, err := cc.compile(a)
				if err != nil {
					return nil, err
				}
				args[i] = ce
			}
			return &xqgm.Call{Name: x.Name, Args: args}, nil
		default:
			return nil, fmt.Errorf("core: unsupported function %q in trigger expression", x.Name)
		}
	case *xquery.Quantified:
		// some/every $v in <path> satisfies p  ==>  count(path[p']) >/= 0.
		seq, err := cc.compile(x.Seq)
		if err != nil {
			return nil, err
		}
		sat, err := cc.compileItemPred(x.Sat, x.Var)
		if err != nil {
			return nil, err
		}
		step, ok := seq.(*xqgm.PathStep)
		if !ok {
			return nil, fmt.Errorf("core: quantified expression requires a path source")
		}
		filtered := &xqgm.PathStep{In: step.In, Axis: step.Axis, Name: step.Name, Predicate: andPreds(step.Predicate, sat)}
		cnt := &xqgm.Call{Name: "count", Args: []xqgm.Expr{filtered}}
		if x.Every {
			total := &xqgm.Call{Name: "count", Args: []xqgm.Expr{step}}
			return &xqgm.Cmp{Op: "=", L: cnt, R: total}, nil
		}
		return &xqgm.Cmp{Op: ">", L: cnt, R: xqgm.LitOf(xdm.Int(0))}, nil
	default:
		return nil, fmt.Errorf("core: unsupported trigger expression %s", xquery.String(e))
	}
}

func andPreds(a, b xqgm.Expr) xqgm.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &xqgm.Logic{Op: "and", Args: []xqgm.Expr{a, b}}
}

// compilePath translates OLD_NODE/NEW_NODE paths. Attribute access on the
// path's top element is pushed down to the scalar column recorded in the
// navigation tree (condition pushdown); anything else navigates the
// constructed node value.
func (cc *condCompiler) compilePath(p *xquery.Path) (xqgm.Expr, error) {
	nr, ok := p.Base.(*xquery.NodeRef)
	if !ok {
		return nil, fmt.Errorf("core: trigger paths must start at OLD_NODE or NEW_NODE, got %s", xquery.String(p))
	}
	// Pushdown: NODE/@attr with a recorded scalar binding.
	if len(p.Steps) == 1 && p.Steps[0].Axis == "attribute" && len(p.Steps[0].Preds) == 0 {
		if col, ok := cc.nav.Attrs[p.Steps[0].Name]; ok {
			if nr.Old {
				return xqgm.Col(cc.layout.OldCol(col)), nil
			}
			return xqgm.Col(cc.layout.NewCol(col)), nil
		}
	}
	// Generic navigation over the node value.
	var cur xqgm.Expr = xqgm.Col(cc.nodeCol(nr.Old))
	for _, st := range p.Steps {
		axis := st.Axis
		if axis == "self" {
			continue
		}
		step := &xqgm.PathStep{In: cur, Axis: axis, Name: st.Name}
		for _, pd := range st.Preds {
			pe, err := cc.compileItemPred(pd, "")
			if err != nil {
				return nil, err
			}
			step.Predicate = andPreds(step.Predicate, pe)
		}
		cur = step
	}
	return cur, nil
}

// compileItemPred compiles a predicate evaluated per step item: the context
// item "." (and the quantifier variable when itemVar is set) becomes column
// 0 of the predicate environment.
func (cc *condCompiler) compileItemPred(e xquery.Expr, itemVar string) (xqgm.Expr, error) {
	switch x := e.(type) {
	case *xquery.Lit:
		return cc.lit(x.V), nil
	case *xquery.ContextItem:
		return xqgm.Col(0), nil
	case *xquery.VarRef:
		if x.Name == itemVar {
			return xqgm.Col(0), nil
		}
		return nil, fmt.Errorf("core: unbound variable $%s in trigger predicate", x.Name)
	case *xquery.Path:
		var in xqgm.Expr
		steps := x.Steps
		switch b := x.Base.(type) {
		case *xquery.ContextItem:
			in = xqgm.Col(0)
		case *xquery.VarRef:
			if b.Name != itemVar {
				return nil, fmt.Errorf("core: unbound variable $%s in trigger predicate", b.Name)
			}
			in = xqgm.Col(0)
		case *xquery.NodeRef:
			return cc.compilePath(x)
		default:
			return nil, fmt.Errorf("core: unsupported predicate path %s", xquery.String(x))
		}
		cur := in
		for _, st := range steps {
			step := &xqgm.PathStep{In: cur, Axis: st.Axis, Name: st.Name}
			for _, pd := range st.Preds {
				pe, err := cc.compileItemPred(pd, itemVar)
				if err != nil {
					return nil, err
				}
				step.Predicate = andPreds(step.Predicate, pe)
			}
			cur = step
		}
		return cur, nil
	case *xquery.Cmp:
		l, err := cc.compileItemPred(x.L, itemVar)
		if err != nil {
			return nil, err
		}
		r, err := cc.compileItemPred(x.R, itemVar)
		if err != nil {
			return nil, err
		}
		return &xqgm.Cmp{Op: x.Op, L: l, R: r}, nil
	case *xquery.Arith:
		l, err := cc.compileItemPred(x.L, itemVar)
		if err != nil {
			return nil, err
		}
		r, err := cc.compileItemPred(x.R, itemVar)
		if err != nil {
			return nil, err
		}
		return &xqgm.Arith{Op: x.Op, L: l, R: r}, nil
	case *xquery.Logic:
		args := make([]xqgm.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := cc.compileItemPred(a, itemVar)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return &xqgm.Logic{Op: x.Op, Args: args}, nil
	case *xquery.FnCall:
		args := make([]xqgm.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := cc.compileItemPred(a, itemVar)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return &xqgm.Call{Name: x.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("core: unsupported predicate expression %s", xquery.String(e))
	}
}
