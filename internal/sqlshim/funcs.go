package sqlshim

import (
	"fmt"
	"sort"
	"strings"

	"quark/internal/xdm"
)

// callScalar dispatches the scalar UDFs emitted by core.RenderSQL. Each
// mirrors the corresponding internal/xqgm expression exactly.
func callScalar(name string, vals []xdm.Value) (xdm.Value, error) {
	switch name {
	case "xml_data":
		return xdm.Atomize(vals[0]), nil
	case "xml_string":
		return xdm.Str(vals[0].AsString()), nil
	case "seq_count":
		return xdm.Int(int64(vals[0].SeqLen())), nil
	case "seq_empty":
		return xdm.Bool(vals[0].SeqLen() == 0), nil
	case "seq_exists":
		return xdm.Bool(vals[0].SeqLen() > 0), nil
	case "concat":
		var sb strings.Builder
		for _, v := range vals {
			sb.WriteString(v.AsString())
		}
		return xdm.Str(sb.String()), nil
	case "abs":
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
		f := v.AsFloat()
		if f < 0 {
			f = -f
		}
		return xdm.Float(f), nil
	case "coalesce":
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return xdm.Null, nil
	case "deep_equal":
		return xdm.Bool(xdm.Equal(vals[0], vals[1])), nil
	case "xml_concat":
		// Mirrors the compiler's sequence constructor: no flattening here;
		// consumers splice via AsSeq.
		return xdm.Seq(append([]xdm.Value{}, vals...)), nil
	case "xml_parse":
		n, err := xdm.Parse(vals[0].AsString())
		if err != nil {
			return xdm.Null, fmt.Errorf("sqlshim: xml_parse: %v", err)
		}
		return xdm.NodeVal(n), nil
	case "xml_attr":
		return xdm.NodeVal(xdm.Attr(vals[0].AsString(), vals[1].Lexical())), nil
	case "xml_element":
		// The evaluator's own content assembly, object by object.
		return xdm.NodeVal(new(xdm.Chunks).Elem(vals[0].AsString(), vals[1:]...)), nil
	default:
		return xdm.Null, fmt.Errorf("sqlshim: unknown function %s", name)
	}
}

// evalPathStep implements path_step(input, axis, name[, predicate]). The
// predicate sees the step item as the sole binding of an inner scope named
// ITEM, with the enclosing scope still visible for constants-table columns.
func evalPathStep(en *env, x *CallE) (xdm.Value, error) {
	if len(x.Args) < 3 || len(x.Args) > 4 {
		return xdm.Null, fmt.Errorf("sqlshim: path_step takes 3 or 4 arguments")
	}
	in, err := evalExpr(en, x.Args[0])
	if err != nil {
		return xdm.Null, err
	}
	axisV, err := evalExpr(en, x.Args[1])
	if err != nil {
		return xdm.Null, err
	}
	nameV, err := evalExpr(en, x.Args[2])
	if err != nil {
		return xdm.Null, err
	}
	axis, name := axisV.AsString(), nameV.AsString()
	var out []xdm.Value
	for _, item := range in.AsSeq() {
		n := item.AsNode()
		if n == nil {
			continue
		}
		switch axis {
		case "child":
			for _, c := range n.ChildElements(name) {
				out = append(out, xdm.NodeVal(c))
			}
		case "attribute":
			if name == "*" {
				for _, a := range n.Attrs() {
					out = append(out, xdm.ParseTyped(a.Text()))
				}
			} else if av, ok := n.Attribute(name); ok {
				out = append(out, xdm.ParseTyped(av))
			}
		case "descendant":
			for _, d := range n.Descendants(name, nil) {
				out = append(out, xdm.NodeVal(d))
			}
		default:
			return xdm.Null, fmt.Errorf("sqlshim: unsupported axis %q", axis)
		}
	}
	if len(x.Args) == 4 {
		kept := out[:0]
		for _, item := range out {
			isc := &scope{parent: en.sc, binds: []*bind{{cols: []string{"item"}, row: []xdm.Value{item}}}}
			pen := &env{ctx: en.ctx, sc: isc, win: en.win, agg: en.agg}
			pv, err := evalExpr(pen, x.Args[3])
			if err != nil {
				return xdm.Null, err
			}
			if !pv.IsNull() && pv.EffectiveBool() {
				kept = append(kept, item)
			}
		}
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

// evalAggCall computes one aggregate over a group's joined rows, mirroring
// xqgm.evalAgg: COUNT(expr) sums sequence lengths of non-null values,
// SUM stays integral when every input is integral, AVG is always float,
// AGGXMLFRAG orders rows by its internal ORDER BY then splices sequences.
func evalAggCall(ctx *qctx, rowScope *scope, setRow setRowFn, a *CallE, rows [][][]xdm.Value) (xdm.Value, error) {
	en := &env{ctx: ctx, sc: rowScope}
	argVal := func(jr [][]xdm.Value) (xdm.Value, error) {
		setRow(jr)
		return evalExpr(en, a.Args[0])
	}
	switch a.Name {
	case "count":
		if a.Star {
			return xdm.Int(int64(len(rows))), nil
		}
		n := int64(0)
		for _, jr := range rows {
			v, err := argVal(jr)
			if err != nil {
				return xdm.Null, err
			}
			if !v.IsNull() {
				n += int64(v.SeqLen())
			}
		}
		return xdm.Int(n), nil
	case "sum", "avg":
		sum := 0.0
		allInt := true
		isum := int64(0)
		n := 0
		for _, jr := range rows {
			v, err := argVal(jr)
			if err != nil {
				return xdm.Null, err
			}
			v = xdm.Atomize(v)
			if v.IsNull() {
				continue
			}
			if v.Kind() == xdm.KindInt {
				isum += v.AsInt()
			} else {
				allInt = false
			}
			sum += v.AsFloat()
			n++
		}
		if n == 0 {
			return xdm.Null, nil
		}
		if a.Name == "avg" {
			return xdm.Float(sum / float64(n)), nil
		}
		if allInt {
			return xdm.Int(isum), nil
		}
		return xdm.Float(sum), nil
	case "min", "max":
		var best xdm.Value
		has := false
		for _, jr := range rows {
			v, err := argVal(jr)
			if err != nil {
				return xdm.Null, err
			}
			v = xdm.Atomize(v)
			if v.IsNull() {
				continue
			}
			if !has {
				best, has = v, true
				continue
			}
			c := xdm.Compare(v, best)
			if (a.Name == "min" && c < 0) || (a.Name == "max" && c > 0) {
				best = v
			}
		}
		if !has {
			return xdm.Null, nil
		}
		return best, nil
	case "aggxmlfrag":
		ordered := rows
		if len(a.OrderBy) > 0 {
			type krow struct {
				jr   [][]xdm.Value
				keys []xdm.Value
			}
			krows := make([]krow, len(rows))
			for i, jr := range rows {
				setRow(jr)
				keys := make([]xdm.Value, len(a.OrderBy))
				for j, o := range a.OrderBy {
					v, err := evalExpr(en, o.E)
					if err != nil {
						return xdm.Null, err
					}
					keys[j] = v
				}
				krows[i] = krow{jr: jr, keys: keys}
			}
			sort.SliceStable(krows, func(x, y int) bool {
				for j := range a.OrderBy {
					r := xdm.Compare(krows[x].keys[j], krows[y].keys[j])
					if a.OrderBy[j].Desc {
						r = -r
					}
					if r != 0 {
						return r < 0
					}
				}
				return false
			})
			ordered = make([][][]xdm.Value, len(krows))
			for i, kr := range krows {
				ordered[i] = kr.jr
			}
		}
		var items []xdm.Value
		for _, jr := range ordered {
			v, err := argVal(jr)
			if err != nil {
				return xdm.Null, err
			}
			if v.IsNull() {
				continue
			}
			items = append(items, v.AsSeq()...)
		}
		return xdm.Seq(items), nil
	default:
		return xdm.Null, fmt.Errorf("sqlshim: unknown aggregate %s", a.Name)
	}
}
