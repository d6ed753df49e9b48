package compile

import (
	"fmt"

	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// Resolver resolves, for one compilation context, the expressions Translate
// does not build itself: variables, paths, the context item, OLD_NODE and
// NEW_NODE, quantifiers. Translate offers it every node first, so it may
// also claim a literal or a call the context gives a meaning of its own
// (a trigger's constants, a view's count($set)); it returns nil for a node
// Translate should build.
type Resolver func(e xquery.Expr) (xqgm.Expr, error)

// Translate builds the xqgm expression for e. It builds comparisons,
// arithmetic, and/or, literals and calls itself, and checks each call's
// name and argument count against xqgm's function table; everything else
// is resolve's.
func Translate(e xquery.Expr, resolve Resolver) (xqgm.Expr, error) {
	if x, err := resolve(e); x != nil || err != nil {
		return x, err
	}
	switch x := e.(type) {
	case *xquery.Lit:
		return xqgm.LitOf(x.V), nil
	case *xquery.Cmp:
		args, err := translateAll(resolve, x.L, x.R)
		if err != nil {
			return nil, err
		}
		return &xqgm.Cmp{Op: x.Op, L: args[0], R: args[1]}, nil
	case *xquery.Arith:
		args, err := translateAll(resolve, x.L, x.R)
		if err != nil {
			return nil, err
		}
		return &xqgm.Arith{Op: x.Op, L: args[0], R: args[1]}, nil
	case *xquery.Logic:
		args, err := translateAll(resolve, x.Args...)
		if err != nil {
			return nil, err
		}
		return &xqgm.Logic{Op: x.Op, Args: args}, nil
	case *xquery.FnCall:
		if err := xqgm.CheckCall(x.Name, len(x.Args)); err != nil {
			return nil, err
		}
		args, err := translateAll(resolve, x.Args...)
		if err != nil {
			return nil, err
		}
		return &xqgm.Call{Name: x.Name, Args: args}, nil
	}
	return nil, fmt.Errorf("unsupported expression %s", xquery.String(e))
}

func translateAll(resolve Resolver, es ...xquery.Expr) ([]xqgm.Expr, error) {
	out := make([]xqgm.Expr, len(es))
	for i, e := range es {
		x, err := Translate(e, resolve)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}
