// Package compile translates the XQuery subset into XQGM graphs (the
// XPERANTO role in the paper, Section 2.1): view definitions over the
// default view become operator DAGs, and a navigation tree is recorded per
// view so trigger Paths can be composed onto the view (Section 3.3) and
// trigger Conditions can be pushed down to scalar columns.
//
// The supported view dialect is the paper's (Figure 3 and the experimental
// hierarchies): element constructors over FLWOR expressions, iteration over
// distinct column values or table rows of the default view, let-bound
// correlated sets, count() predicates, and arbitrary nesting depth.
package compile

import (
	"fmt"

	"quark/internal/schema"
	"quark/internal/xdm"
	"quark/internal/xqgm"
	"quark/internal/xquery"
)

// NavNode is one level of a view's navigation tree: the producer of the
// elements reachable at a path step.
type NavNode struct {
	ElemName string
	Op       *xqgm.Operator // one output row per element instance
	NodeCol  int            // column carrying the constructed element
	KeyCols  []int          // canonical key of the element (within Op output)
	Attrs    map[string]int // attribute name -> scalar column
	Fields   map[string]int // scalar child element name -> column
	Children []*NavNode
}

// Find locates a descendant NavNode by element name (depth-first).
func (n *NavNode) Find(name string) *NavNode {
	if n == nil {
		return nil
	}
	if n.ElemName == name {
		return n
	}
	for _, c := range n.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Child returns the direct child NavNode by name.
func (n *NavNode) Child(name string) *NavNode {
	for _, c := range n.Children {
		if c.ElemName == name {
			return c
		}
	}
	return nil
}

// ViewDef is a compiled XML view.
type ViewDef struct {
	Name   string
	Source string
	Root   *xqgm.Operator // produces exactly one row: the view document
	Nav    *NavNode       // navigation tree rooted at the document element
}

// Compiler compiles views and trigger expressions over a relational schema.
type Compiler struct {
	schema *schema.Schema
	views  map[string]*ViewDef
}

// New creates a compiler over the schema.
func New(s *schema.Schema) *Compiler {
	return &Compiler{schema: s, views: map[string]*ViewDef{}}
}

// Schema returns the compiler's schema.
func (c *Compiler) Schema() *schema.Schema { return c.schema }

// View returns a previously compiled view.
func (c *Compiler) View(name string) (*ViewDef, bool) {
	v, ok := c.views[name]
	return v, ok
}

// CompileView parses and compiles an XQuery view definition, registers it
// under the given name, and returns it. The body must be a single element
// constructor (the document element).
func (c *Compiler) CompileView(name, src string) (*ViewDef, error) {
	ast, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	ctor, ok := ast.(*xquery.ElemCtor)
	if !ok {
		return nil, fmt.Errorf("compile: view %q must be a single element constructor, got %s", name, xquery.String(ast))
	}
	root, nav, err := c.compileDocCtor(ctor)
	if err != nil {
		return nil, fmt.Errorf("compile: view %q: %w", name, err)
	}
	xqgm.DeriveKeys(root)
	// The view graph is final here: prepare the document root (EvalView)
	// and every element producer (a MATERIALIZED group evaluates its own)
	// once, so evaluations never have to plan it.
	roots := []*xqgm.Operator{root}
	var producers func(n *NavNode)
	producers = func(n *NavNode) {
		if n.Op != nil {
			roots = append(roots, n.Op)
		}
		for _, c := range n.Children {
			producers(c)
		}
	}
	producers(nav)
	if err := xqgm.Prepare(roots...); err != nil {
		return nil, fmt.Errorf("compile: view %q: %w", name, err)
	}
	v := &ViewDef{Name: name, Source: src, Root: root, Nav: nav}
	c.views[name] = v
	return v, nil
}

// MustCompileView panics on error; for fixtures and examples.
func (c *Compiler) MustCompileView(name, src string) *ViewDef {
	v, err := c.CompileView(name, src)
	if err != nil {
		panic(err)
	}
	return v
}

// --- internal compilation machinery ---

// binding is a variable binding in scope.
type binding struct {
	// scalar: a single column of ctx.op.
	scalarCol int
	isScalar  bool
	// row: a contiguous column range of ctx.op mapping a table's columns.
	table string
	start int
	width int
	isRow bool
	// set: a deferred let-bound table path.
	set *setDef
}

// setDef is a let-bound path over the default view: table rows restricted
// by predicates that may correlate with outer variables or other sets.
type setDef struct {
	name  string
	table string
	preds []xquery.Expr
	// realized tracks, per compilation context, where the set's row
	// binding landed after realization.
	realizedStart int
	realizedWidth int
	realized      bool
}

// ctx is a compilation context: the current tuple stream and scope.
type ctx struct {
	op      *xqgm.Operator
	keyCols []int // canonical key of the iteration (within op output)
	vars    map[string]*binding
}

func (cx *ctx) clone() *ctx {
	nv := make(map[string]*binding, len(cx.vars))
	for k, v := range cx.vars {
		b := *v
		if v.set != nil {
			sd := *v.set
			b.set = &sd
		}
		nv[k] = &b
	}
	return &ctx{op: cx.op, keyCols: append([]int(nil), cx.keyCols...), vars: nv}
}

// compileDocCtor compiles the document element: scalar content is inlined;
// FLWOR content is compiled, aggregated with aggXMLFrag, and spliced.
func (c *Compiler) compileDocCtor(ctor *xquery.ElemCtor) (*xqgm.Operator, *NavNode, error) {
	nav := &NavNode{ElemName: ctor.Name, Attrs: map[string]int{}, Fields: map[string]int{}}
	var childExprs []xqgm.Expr
	var cur *xqgm.Operator // aggregated child fragments joined cross-wise
	fragCols := 0

	for _, item := range ctor.Content {
		fl, ok := item.(*xquery.FLWOR)
		if !ok {
			// Literal text only at document level.
			lit, ok := item.(*xquery.Lit)
			if !ok {
				return nil, nil, fmt.Errorf("unsupported document content %s", xquery.String(item))
			}
			childExprs = append(childExprs, xqgm.LitOf(lit.V))
			continue
		}
		child, childNav, err := c.compileFLWOR(fl, nil)
		if err != nil {
			return nil, nil, err
		}
		// Aggregate all rows into one fragment.
		g := xqgm.NewGroupBy(child.op, nil,
			xqgm.Agg{Name: "frag", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(child.nodeCol)})
		if cur == nil {
			cur = g
		} else {
			cur = xqgm.NewJoin(xqgm.JoinInner, cur, g, nil, nil)
		}
		childExprs = append(childExprs, xqgm.Col(fragCols))
		fragCols++
		if childNav != nil {
			nav.Children = append(nav.Children, childNav)
		}
	}
	if cur == nil {
		// Constant document.
		cur = xqgm.NewConstants([]string{"one"}, []xqgm.Tuple{{xdm.Int(1)}})
	}
	docCtor := &xqgm.ElemCtor{Name: ctor.Name, Children: childExprs}
	for _, a := range ctor.Attrs {
		lit, ok := a.Val.(*xquery.Lit)
		if !ok {
			return nil, nil, fmt.Errorf("document-level attributes must be literals")
		}
		docCtor.Attrs = append(docCtor.Attrs, xqgm.AttrSpec{Name: a.Name, E: xqgm.LitOf(lit.V)})
	}
	root := xqgm.NewProject(cur, xqgm.Proj{Name: ctor.Name, E: docCtor})
	nav.Op = root
	nav.NodeCol = 0
	nav.KeyCols = []int{}
	return root, nav, nil
}

// flResult is the compilation result of one FLWOR level: op produces one
// row per iteration with the constructed node.
type flResult struct {
	op      *xqgm.Operator
	nodeCol int
	keyCols []int // keys identifying each produced node (incl. parent keys)
}

// compileFLWOR compiles a FLWOR whose return is an element constructor.
// parent supplies the outer iteration (nil at the document level).
func (c *Compiler) compileFLWOR(f *xquery.FLWOR, parent *ctx) (*flResult, *NavNode, error) {
	cx := &ctx{vars: map[string]*binding{}}
	if parent != nil {
		cx = parent.clone()
	}

	// Process clauses in order.
	for _, cl := range f.Clauses {
		switch cl := cl.(type) {
		case xquery.ForClause:
			if err := c.compileForClause(cx, cl); err != nil {
				return nil, nil, err
			}
		case xquery.LetClause:
			sd, err := c.parseSetDef(cl)
			if err != nil {
				return nil, nil, err
			}
			cx.vars[cl.Var] = &binding{set: sd}
		}
	}
	if cx.op == nil {
		return nil, nil, fmt.Errorf("FLWOR has no iteration source")
	}

	ctor, ok := f.Return.(*xquery.ElemCtor)
	if !ok {
		return nil, nil, fmt.Errorf("FLWOR return must be an element constructor, got %s", xquery.String(f.Return))
	}

	nav := &NavNode{ElemName: ctor.Name, Attrs: map[string]int{}, Fields: map[string]int{}}

	// Compile nested content (FLWORs over sets/paths) and where-clause
	// aggregates. Nested children are grouped by the current keys and
	// joined back with a left-outer join; count() predicates reuse the same
	// group when they range over the same set.
	fragBySet := map[string]*childFragRef{}
	var contentExprs []xqgm.Expr

	for _, item := range ctor.Content {
		switch item := item.(type) {
		case *xquery.FLWOR:
			setName := nestedSetName(item)
			child, childNav, err := c.compileFLWOR(item, cx.clone())
			if err != nil {
				return nil, nil, err
			}
			// Group child nodes by this level's keys. The return constructor
			// yields one node per child row, so the count is count(*): counting
			// the node column would construct every child just to count it.
			aggs := []xqgm.Agg{
				{Name: "frag", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(child.nodeCol)},
				{Name: "cnt", Func: xqgm.AggCount},
			}
			parentKeyInChild := child.keyCols[:len(cx.keyCols)]
			g := xqgm.NewGroupBy(child.op, parentKeyInChild, aggs...)
			// Left-outer join back: childless parents keep empty content.
			on := make([]xqgm.JoinEq, len(cx.keyCols))
			for i, kc := range cx.keyCols {
				on[i] = xqgm.JoinEq{L: kc, R: i}
			}
			w := cx.op.OutWidth()
			cx.op = xqgm.NewJoin(xqgm.JoinLeftOuter, cx.op, g, on, nil)
			frag := &childFragRef{col: w + len(cx.keyCols), countCol: w + len(cx.keyCols) + 1}
			if setName != "" {
				fragBySet[setName] = frag
			}
			contentExprs = append(contentExprs, xqgm.Col(frag.col))
			if childNav != nil {
				nav.Children = append(nav.Children, childNav)
			}
		case *xquery.Lit:
			contentExprs = append(contentExprs, xqgm.LitOf(item.V))
		default:
			e, fieldName, err := c.compileContentExpr(cx, item)
			if err != nil {
				return nil, nil, err
			}
			contentExprs = append(contentExprs, e)
			_ = fieldName
		}
	}

	// Where clause.
	if f.Where != nil {
		for _, conj := range conjuncts(f.Where) {
			pred, err := c.compileWhereConj(cx, conj, fragBySet)
			if err != nil {
				return nil, nil, err
			}
			cx.op = xqgm.NewSelect(cx.op, pred)
		}
	}

	// Build the node constructor.
	elem := &xqgm.ElemCtor{Name: ctor.Name, Children: contentExprs}
	for _, a := range ctor.Attrs {
		e, err := c.compileScalar(cx, a.Val)
		if err != nil {
			return nil, nil, err
		}
		elem.Attrs = append(elem.Attrs, xqgm.AttrSpec{Name: a.Name, E: e})
	}

	// Final projection: node, keys, and useful scalars (attr sources and
	// counts) for condition pushdown.
	projs := []xqgm.Proj{{Name: ctor.Name, E: elem}}
	nodeCol := 0
	var outKeys []int
	for i, kc := range cx.keyCols {
		projs = append(projs, xqgm.Proj{Name: fmt.Sprintf("k%d", i), E: xqgm.Col(kc)})
		outKeys = append(outKeys, len(projs)-1)
	}
	for _, a := range ctor.Attrs {
		e, _ := c.compileScalar(cx, a.Val)
		if cr, ok := e.(*xqgm.ColRef); ok && cr.Input == 0 {
			// Reuse a key projection when it is the same column.
			pos := -1
			for pi := 1; pi < len(projs); pi++ {
				if pcr, ok := projs[pi].E.(*xqgm.ColRef); ok && pcr.Col == cr.Col {
					pos = pi
					break
				}
			}
			if pos < 0 {
				projs = append(projs, xqgm.Proj{Name: "a_" + a.Name, E: e})
				pos = len(projs) - 1
			}
			nav.Attrs[a.Name] = pos
		}
	}
	for setName, fr := range fragBySet {
		projs = append(projs, xqgm.Proj{Name: "cnt_" + setName, E: xqgm.Col(fr.countCol)})
		nav.Fields["count("+setName+")"] = len(projs) - 1
	}
	top := xqgm.NewProject(cx.op, projs...)
	nav.Op = top
	nav.NodeCol = nodeCol
	nav.KeyCols = outKeys
	return &flResult{op: top, nodeCol: nodeCol, keyCols: outKeys}, nav, nil
}

// nestedSetName returns the set variable a nested FLWOR iterates over, or
// "" when it iterates a raw path.
func nestedSetName(f *xquery.FLWOR) string {
	for _, cl := range f.Clauses {
		if fc, ok := cl.(xquery.ForClause); ok {
			if vr, ok := fc.Seq.(*xquery.VarRef); ok {
				return vr.Name
			}
			return ""
		}
	}
	return ""
}

func conjuncts(e xquery.Expr) []xquery.Expr {
	if l, ok := e.(*xquery.Logic); ok && l.Op == "and" {
		var out []xquery.Expr
		for _, a := range l.Args {
			out = append(out, conjuncts(a)...)
		}
		return out
	}
	return []xquery.Expr{e}
}

// compileForClause extends the context with one iteration source.
func (c *Compiler) compileForClause(cx *ctx, fc xquery.ForClause) error {
	switch seq := fc.Seq.(type) {
	case *xquery.FnCall:
		if seq.Name != "distinct" && seq.Name != "distinct-values" {
			return fmt.Errorf("unsupported for-source %s", xquery.String(fc.Seq))
		}
		tp, err := c.parseTablePath(seq.Args[0])
		if err != nil {
			return err
		}
		if tp.field == "" {
			return fmt.Errorf("distinct() requires a column path")
		}
		def, _ := c.schema.Table(tp.table)
		fi := def.ColIndex(tp.field)
		if fi < 0 {
			return fmt.Errorf("unknown column %s.%s", tp.table, tp.field)
		}
		src := xqgm.NewTable(def, xqgm.SrcBase)
		var op *xqgm.Operator = src
		if len(tp.preds) > 0 {
			pred, _, err := c.compileRowPreds(cx, tp.preds, tp.table, 0, src.OutWidth(), nil)
			if err != nil {
				return err
			}
			op = xqgm.NewSelect(op, pred)
		}
		dist := xqgm.NewGroupBy(op, []int{fi})
		c.joinInto(cx, dist, nil)
		// The distinct value is the last column block's col 0.
		col := cx.op.OutWidth() - 1
		cx.vars[fc.Var] = &binding{isScalar: true, scalarCol: col}
		cx.keyCols = append(cx.keyCols, col)
		return nil
	case *xquery.VarRef:
		// for $v in $set
		b, ok := cx.vars[seq.Name]
		if !ok || b.set == nil {
			return fmt.Errorf("for over unknown set $%s", seq.Name)
		}
		start, width, err := c.realizeSet(cx, b.set)
		if err != nil {
			return err
		}
		cx.vars[fc.Var] = &binding{isRow: true, table: b.set.table, start: start, width: width}
		def, _ := c.schema.Table(b.set.table)
		for _, pk := range def.PKIndexes() {
			cx.keyCols = append(cx.keyCols, start+pk)
		}
		return nil
	default:
		tp, err := c.parseTablePath(fc.Seq)
		if err != nil {
			return fmt.Errorf("unsupported for-source %s: %w", xquery.String(fc.Seq), err)
		}
		if tp.field != "" {
			return fmt.Errorf("for over a column path requires distinct()")
		}
		sd := &setDef{name: fc.Var, table: tp.table, preds: tp.preds}
		start, width, err := c.realizeSet(cx, sd)
		if err != nil {
			return err
		}
		cx.vars[fc.Var] = &binding{isRow: true, table: tp.table, start: start, width: width}
		def, _ := c.schema.Table(tp.table)
		for _, pk := range def.PKIndexes() {
			cx.keyCols = append(cx.keyCols, start+pk)
		}
		return nil
	}
}

// joinInto cross/equi-joins an operator into the context.
func (c *Compiler) joinInto(cx *ctx, op *xqgm.Operator, on []xqgm.JoinEq) {
	if cx.op == nil {
		cx.op = op
		return
	}
	cx.op = xqgm.NewJoin(xqgm.JoinInner, cx.op, op, on, nil)
}

// tablePath is view('default')/T/row[preds](/field)?.
type tablePath struct {
	table string
	preds []xquery.Expr
	field string
}

func (c *Compiler) parseTablePath(e xquery.Expr) (*tablePath, error) {
	p, ok := e.(*xquery.Path)
	if !ok {
		return nil, fmt.Errorf("not a path: %s", xquery.String(e))
	}
	vr, ok := p.Base.(*xquery.ViewRef)
	if !ok || vr.Name != "default" {
		return nil, fmt.Errorf("paths must start at view('default')")
	}
	if len(p.Steps) < 2 || p.Steps[1].Name != "row" {
		return nil, fmt.Errorf("default-view paths have the form /table/row")
	}
	table := p.Steps[0].Name
	if _, ok := c.schema.Table(table); !ok {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	tp := &tablePath{table: table}
	tp.preds = append(tp.preds, p.Steps[0].Preds...)
	tp.preds = append(tp.preds, p.Steps[1].Preds...)
	if len(p.Steps) > 2 {
		if len(p.Steps) > 3 {
			return nil, fmt.Errorf("at most one field step after /row")
		}
		tp.field = p.Steps[2].Name
		tp.preds = append(tp.preds, p.Steps[2].Preds...)
	}
	return tp, nil
}

func (c *Compiler) parseSetDef(cl xquery.LetClause) (*setDef, error) {
	tp, err := c.parseTablePath(cl.Seq)
	if err != nil {
		return nil, err
	}
	if tp.field != "" {
		return nil, fmt.Errorf("let-bound sets must bind rows, not columns")
	}
	return &setDef{name: cl.Var, table: tp.table, preds: tp.preds}, nil
}

// realizeSet joins the set's table (and, transitively, the sets it
// references) into the context, returning the column range of the set's
// rows. Already-realized sets are reused.
func (c *Compiler) realizeSet(cx *ctx, sd *setDef) (int, int, error) {
	if sd.realized {
		return sd.realizedStart, sd.realizedWidth, nil
	}
	// Realize referenced sets first.
	for _, p := range sd.preds {
		for _, ref := range setRefs(p, cx) {
			if ref != sd.name {
				if b := cx.vars[ref]; b != nil && b.set != nil && !b.set.realized {
					if _, _, err := c.realizeSet(cx, b.set); err != nil {
						return 0, 0, err
					}
				}
			}
		}
	}
	def, _ := c.schema.Table(sd.table)
	tbl := xqgm.NewTable(def, xqgm.SrcBase)
	start := 0
	if cx.op != nil {
		start = cx.op.OutWidth()
	}
	pred, eqs, err := c.compileRowPreds(cx, sd.preds, sd.table, start, len(def.Columns), cx.op)
	if err != nil {
		return 0, 0, err
	}
	if cx.op == nil {
		cx.op = tbl
		if pred != nil {
			cx.op = xqgm.NewSelect(cx.op, pred)
		}
	} else {
		cx.op = xqgm.NewJoin(xqgm.JoinInner, cx.op, tbl, eqs, nil)
		if pred != nil {
			cx.op = xqgm.NewSelect(cx.op, pred)
		}
	}
	sd.realized = true
	sd.realizedStart = start
	sd.realizedWidth = len(def.Columns)
	return start, len(def.Columns), nil
}

// setRefs lists set variables referenced in a predicate.
func setRefs(e xquery.Expr, cx *ctx) []string {
	var out []string
	var walk func(x xquery.Expr)
	walk = func(x xquery.Expr) {
		switch x := x.(type) {
		case *xquery.VarRef:
			if b, ok := cx.vars[x.Name]; ok && b.set != nil {
				out = append(out, x.Name)
			}
		case *xquery.Path:
			walk(x.Base)
			for _, s := range x.Steps {
				for _, p := range s.Preds {
					walk(p)
				}
			}
		case *xquery.Cmp:
			walk(x.L)
			walk(x.R)
		case *xquery.Arith:
			walk(x.L)
			walk(x.R)
		case *xquery.Logic:
			for _, a := range x.Args {
				walk(a)
			}
		case *xquery.FnCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// compileRowPreds compiles the predicates of a table path. Context items
// (".") refer to the new table's columns starting at rowStart. Equality
// predicates between a new-table column and an outer expression become
// equi-join pairs (returned separately) when joining; everything else goes
// into the residual predicate. When outer is nil, all predicates become a
// residual over the standalone table (rowStart is then 0).
func (c *Compiler) compileRowPreds(cx *ctx, preds []xquery.Expr, table string, rowStart, rowWidth int, outer *xqgm.Operator) (xqgm.Expr, []xqgm.JoinEq, error) {
	def, _ := c.schema.Table(table)
	var residual []xqgm.Expr
	var eqs []xqgm.JoinEq
	for _, p := range preds {
		for _, conj := range conjuncts(p) {
			// Try the equi-join form: ./col = outerScalar (either order).
			if outer != nil {
				if eq, ok2 := c.tryEquiPred(cx, conj, def, rowStart); ok2 {
					eqs = append(eqs, eq)
					continue
				}
			}
			e, err := c.compilePredExpr(cx, conj, def, rowStart)
			if err != nil {
				return nil, nil, err
			}
			residual = append(residual, e)
		}
	}
	if len(residual) == 0 {
		return nil, eqs, nil
	}
	if len(residual) == 1 {
		return residual[0], eqs, nil
	}
	return &xqgm.Logic{Op: "and", Args: residual}, eqs, nil
}

// tryEquiPred recognizes ./col = <outer scalar> forms.
func (c *Compiler) tryEquiPred(cx *ctx, e xquery.Expr, def *schema.Table, rowStart int) (xqgm.JoinEq, bool) {
	cmp, ok := e.(*xquery.Cmp)
	if !ok || cmp.Op != "=" {
		return xqgm.JoinEq{}, false
	}
	try := func(rowSide, outerSide xquery.Expr) (xqgm.JoinEq, bool) {
		col, ok := contextField(rowSide, def)
		if !ok {
			return xqgm.JoinEq{}, false
		}
		oe, err := c.compileScalar(cx, outerSide)
		if err != nil {
			return xqgm.JoinEq{}, false
		}
		cr, ok := oe.(*xqgm.ColRef)
		if !ok || cr.Input != 0 {
			return xqgm.JoinEq{}, false
		}
		return xqgm.JoinEq{L: cr.Col, R: col}, true
	}
	if eq, ok := try(cmp.L, cmp.R); ok {
		return eq, true
	}
	if eq, ok := try(cmp.R, cmp.L); ok {
		return eq, true
	}
	return xqgm.JoinEq{}, false
}

// contextField matches ./field or field paths rooted at the context item.
func contextField(e xquery.Expr, def *schema.Table) (int, bool) {
	p, ok := e.(*xquery.Path)
	if !ok {
		return 0, false
	}
	if _, ok := p.Base.(*xquery.ContextItem); !ok {
		return 0, false
	}
	if len(p.Steps) != 1 || p.Steps[0].Axis != "child" {
		return 0, false
	}
	ci := def.ColIndex(p.Steps[0].Name)
	if ci < 0 {
		return 0, false
	}
	return ci, true
}

// compilePredExpr compiles a predicate where "." refers to the new table's
// row (columns offset by rowStart) and variables come from scope.
func (c *Compiler) compilePredExpr(cx *ctx, e xquery.Expr, def *schema.Table, rowStart int) (xqgm.Expr, error) {
	switch x := e.(type) {
	case *xquery.Lit:
		return xqgm.LitOf(x.V), nil
	case *xquery.Cmp:
		l, err := c.compilePredExpr(cx, x.L, def, rowStart)
		if err != nil {
			return nil, err
		}
		r, err := c.compilePredExpr(cx, x.R, def, rowStart)
		if err != nil {
			return nil, err
		}
		return &xqgm.Cmp{Op: x.Op, L: l, R: r}, nil
	case *xquery.Arith:
		l, err := c.compilePredExpr(cx, x.L, def, rowStart)
		if err != nil {
			return nil, err
		}
		r, err := c.compilePredExpr(cx, x.R, def, rowStart)
		if err != nil {
			return nil, err
		}
		return &xqgm.Arith{Op: x.Op, L: l, R: r}, nil
	case *xquery.Logic:
		args := make([]xqgm.Expr, len(x.Args))
		for i, a := range x.Args {
			e, err := c.compilePredExpr(cx, a, def, rowStart)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &xqgm.Logic{Op: x.Op, Args: args}, nil
	case *xquery.Path:
		if col, ok := contextField(x, def); ok {
			return xqgm.Col(rowStart + col), nil
		}
		return c.compileScalar(cx, e)
	default:
		return c.compileScalar(cx, e)
	}
}

// compileScalar compiles an expression over in-scope variables to a scalar
// xqgm expression against the context operator.
func (c *Compiler) compileScalar(cx *ctx, e xquery.Expr) (xqgm.Expr, error) {
	switch x := e.(type) {
	case *xquery.Lit:
		return xqgm.LitOf(x.V), nil
	case *xquery.VarRef:
		b, ok := cx.vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("unbound variable $%s", x.Name)
		}
		if b.isScalar {
			return xqgm.Col(b.scalarCol), nil
		}
		return nil, fmt.Errorf("variable $%s is not scalar here", x.Name)
	case *xquery.Path:
		// $rowVar/field or $setVar/field (the set must be realized).
		vr, ok := x.Base.(*xquery.VarRef)
		if !ok {
			return nil, fmt.Errorf("unsupported scalar path %s", xquery.String(e))
		}
		b, ok := cx.vars[vr.Name]
		if !ok {
			return nil, fmt.Errorf("unbound variable $%s", vr.Name)
		}
		if b.set != nil && b.set.realized {
			b = &binding{isRow: true, table: b.set.table, start: b.set.realizedStart, width: b.set.realizedWidth}
		}
		if !b.isRow {
			return nil, fmt.Errorf("$%s/%s: $%s does not bind rows", vr.Name, x.Steps[0].Name, vr.Name)
		}
		if len(x.Steps) != 1 || x.Steps[0].Axis != "child" {
			return nil, fmt.Errorf("unsupported path %s", xquery.String(e))
		}
		def, _ := c.schema.Table(b.table)
		ci := def.ColIndex(x.Steps[0].Name)
		if ci < 0 {
			return nil, fmt.Errorf("unknown column %s.%s", b.table, x.Steps[0].Name)
		}
		return xqgm.Col(b.start + ci), nil
	case *xquery.Cmp:
		l, err := c.compileScalar(cx, x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileScalar(cx, x.R)
		if err != nil {
			return nil, err
		}
		return &xqgm.Cmp{Op: x.Op, L: l, R: r}, nil
	case *xquery.Arith:
		l, err := c.compileScalar(cx, x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileScalar(cx, x.R)
		if err != nil {
			return nil, err
		}
		return &xqgm.Arith{Op: x.Op, L: l, R: r}, nil
	case *xquery.Logic:
		args := make([]xqgm.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := c.compileScalar(cx, a)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return &xqgm.Logic{Op: x.Op, Args: args}, nil
	case *xquery.FnCall:
		if x.Name == "data" || x.Name == "string" {
			inner, err := c.compileScalar(cx, x.Args[0])
			if err != nil {
				return nil, err
			}
			return &xqgm.Call{Name: x.Name, Args: []xqgm.Expr{inner}}, nil
		}
		return nil, fmt.Errorf("unsupported function %s in scalar context", x.Name)
	default:
		return nil, fmt.Errorf("unsupported scalar expression %s", xquery.String(e))
	}
}

// compileContentExpr compiles non-FLWOR element content: $var/* expands a
// row into its field elements; $var/field produces a single field element;
// scalars embed as text.
func (c *Compiler) compileContentExpr(cx *ctx, e xquery.Expr) (xqgm.Expr, string, error) {
	if p, ok := e.(*xquery.Path); ok {
		if vr, ok := p.Base.(*xquery.VarRef); ok && len(p.Steps) == 1 && p.Steps[0].Axis == "child" {
			b, ok2 := cx.vars[vr.Name]
			if ok2 && b.set != nil && b.set.realized {
				b = &binding{isRow: true, table: b.set.table, start: b.set.realizedStart, width: b.set.realizedWidth}
			}
			if ok2 && b.isRow {
				def, _ := c.schema.Table(b.table)
				if p.Steps[0].Name == "*" {
					// All fields as child elements, in column order.
					var kids []xqgm.Expr
					for ci, col := range def.Columns {
						kids = append(kids, &xqgm.ElemCtor{
							Name:     col.Name,
							Children: []xqgm.Expr{xqgm.Col(b.start + ci)},
						})
					}
					// A sequence splice: wrap in a constructor-less seq via
					// nested expression list. Use a synthetic ElemCtor-free
					// approach: return children as a Call "seq"? Simplest:
					// return an expression list via chained ctor is wrong;
					// instead inline each field separately.
					return seqExpr(kids), "", nil
				}
				ci := def.ColIndex(p.Steps[0].Name)
				if ci < 0 {
					return nil, "", fmt.Errorf("unknown column %s.%s", b.table, p.Steps[0].Name)
				}
				return &xqgm.ElemCtor{Name: p.Steps[0].Name, Children: []xqgm.Expr{xqgm.Col(b.start + ci)}}, p.Steps[0].Name, nil
			}
		}
	}
	se, err := c.compileScalar(cx, e)
	if err != nil {
		return nil, "", err
	}
	return se, "", nil
}

// compileWhereConj compiles one where-conjunct; count($set) predicates
// resolve to the count column of the set's child aggregation when present.
func (c *Compiler) compileWhereConj(cx *ctx, e xquery.Expr, frags map[string]*childFragRef) (xqgm.Expr, error) {
	if cmp, ok := e.(*xquery.Cmp); ok {
		if col, ok2 := countRef(cmp.L, frags); ok2 {
			r, err := c.compileScalar(cx, cmp.R)
			if err != nil {
				return nil, err
			}
			return &xqgm.Cmp{Op: cmp.Op, L: xqgm.Col(col), R: r}, nil
		}
		if col, ok2 := countRef(cmp.R, frags); ok2 {
			l, err := c.compileScalar(cx, cmp.L)
			if err != nil {
				return nil, err
			}
			return &xqgm.Cmp{Op: cmp.Op, L: l, R: xqgm.Col(col)}, nil
		}
	}
	return c.compileScalar(cx, e)
}

// childFragRef records where a nested child's fragment and count columns
// landed in the enclosing context.
type childFragRef struct {
	col      int
	countCol int
}

func countRef(e xquery.Expr, frags map[string]*childFragRef) (int, bool) {
	fc, ok := e.(*xquery.FnCall)
	if !ok || fc.Name != "count" || len(fc.Args) != 1 {
		return 0, false
	}
	vr, ok := fc.Args[0].(*xquery.VarRef)
	if !ok {
		return 0, false
	}
	f, ok := frags[vr.Name]
	if !ok {
		return 0, false
	}
	return f.countCol, true
}

// seqExpr builds an expression evaluating to a sequence of the given
// expressions' values (used for $var/* expansion).
func seqExpr(items []xqgm.Expr) xqgm.Expr {
	return &seqCtor{items: items}
}

// seqCtor is an internal expression assembling a sequence value.
type seqCtor struct {
	items []xqgm.Expr
}

// Eval implements xqgm.Expr.
func (s *seqCtor) Eval(env *xqgm.Env) (xdm.Value, error) {
	out := make([]xdm.Value, 0, len(s.items))
	for _, it := range s.items {
		v, err := it.Eval(env)
		if err != nil {
			return xdm.Null, err
		}
		out = append(out, v)
	}
	return xdm.Seq(out), nil
}

// SeqItems exposes the assembled expressions so SQL rendering (core.RenderSQL)
// can emit the sequence as an executable xml_concat call without depending on
// this unexported type.
func (s *seqCtor) SeqItems() []xqgm.Expr { return s.items }

func (s *seqCtor) String() string {
	out := "("
	for i, it := range s.items {
		if i > 0 {
			out += ", "
		}
		out += it.String()
	}
	return out + ")"
}
