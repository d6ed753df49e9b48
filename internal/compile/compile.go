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
	// row: a table's columns, from column start of ctx.op on.
	table string
	start int
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
	nav := &NavNode{ElemName: ctor.Name, Attrs: map[string]int{}}
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
		child, err := c.compileFLWOR(fl, nil)
		if err != nil {
			return nil, nil, err
		}
		// Aggregate all rows into one fragment.
		g := xqgm.NewGroupBy(child.Op, nil,
			xqgm.Agg{Name: "frag", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(child.NodeCol)})
		if cur == nil {
			cur = g
		} else {
			cur = xqgm.NewJoin(xqgm.JoinInner, cur, g, nil, nil)
		}
		childExprs = append(childExprs, xqgm.Col(fragCols))
		fragCols++
		nav.Children = append(nav.Children, child)
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

// compileFLWOR compiles a FLWOR whose return is an element constructor to
// its navigation node, whose operator produces one row per iteration with
// the constructed node and the keys identifying it (parent keys first).
// parent supplies the outer iteration (nil at the document level).
func (c *Compiler) compileFLWOR(f *xquery.FLWOR, parent *ctx) (*NavNode, error) {
	cx := &ctx{vars: map[string]*binding{}}
	if parent != nil {
		cx = parent.clone()
	}

	// Process clauses in order.
	for _, cl := range f.Clauses {
		switch cl := cl.(type) {
		case xquery.ForClause:
			if err := c.compileForClause(cx, cl); err != nil {
				return nil, err
			}
		case xquery.LetClause:
			sd, err := c.parseSetDef(cl.Var, cl.Seq)
			if err != nil {
				return nil, err
			}
			cx.vars[cl.Var] = &binding{set: sd}
		}
	}
	if cx.op == nil {
		return nil, fmt.Errorf("FLWOR has no iteration source")
	}

	ctor, ok := f.Return.(*xquery.ElemCtor)
	if !ok {
		return nil, fmt.Errorf("FLWOR return must be an element constructor, got %s", xquery.String(f.Return))
	}

	nav := &NavNode{ElemName: ctor.Name, Attrs: map[string]int{}}

	// Compile nested content (FLWORs over sets/paths) and where-clause
	// aggregates. Nested children are grouped by the current keys and
	// joined back with a left-outer join; count() predicates reuse the same
	// group when they range over the same set.
	countOf := map[string]int{} // a nested set's count column
	var sets []string           // countOf's keys, in content order
	var contentExprs []xqgm.Expr

	for _, item := range ctor.Content {
		switch item := item.(type) {
		case *xquery.FLWOR:
			setName := nestedSetName(item)
			child, err := c.compileFLWOR(item, cx.clone())
			if err != nil {
				return nil, err
			}
			// Group child nodes by this level's keys. The return constructor
			// yields one node per child row, so the count is count(*): counting
			// the node column would construct every child just to count it.
			aggs := []xqgm.Agg{
				{Name: "frag", Func: xqgm.AggXMLFrag, Arg: xqgm.Col(child.NodeCol)},
				{Name: "cnt", Func: xqgm.AggCount},
			}
			parentKeyInChild := child.KeyCols[:len(cx.keyCols)]
			g := xqgm.NewGroupBy(child.Op, parentKeyInChild, aggs...)
			// Left-outer join back: childless parents keep empty content.
			on := make([]xqgm.JoinEq, len(cx.keyCols))
			for i, kc := range cx.keyCols {
				on[i] = xqgm.JoinEq{L: kc, R: i}
			}
			w := cx.op.OutWidth()
			cx.op = xqgm.NewJoin(xqgm.JoinLeftOuter, cx.op, g, on, nil)
			frag := w + len(cx.keyCols) // then the count
			if setName != "" {
				if _, ok := countOf[setName]; !ok {
					sets = append(sets, setName)
				}
				countOf[setName] = frag + 1
			}
			contentExprs = append(contentExprs, xqgm.Col(frag))
			nav.Children = append(nav.Children, child)
		default:
			e, err := c.compileContentExpr(cx, item)
			if err != nil {
				return nil, err
			}
			contentExprs = append(contentExprs, e)
		}
	}

	// Where clause: count($set) reads the count column of the set's child
	// aggregation when there is one.
	scalar := c.scalar(cx)
	where := func(e xquery.Expr) (xqgm.Expr, error) {
		if col, ok := countRef(e, countOf); ok {
			return xqgm.Col(col), nil
		}
		return scalar(e)
	}
	for _, conj := range conjuncts(f.Where) {
		pred, err := Translate(conj, where)
		if err != nil {
			return nil, err
		}
		cx.op = xqgm.NewSelect(cx.op, pred)
	}

	// Build the node constructor.
	elem := &xqgm.ElemCtor{Name: ctor.Name, Children: contentExprs}
	for _, a := range ctor.Attrs {
		e, err := Translate(a.Val, scalar)
		if err != nil {
			return nil, err
		}
		elem.Attrs = append(elem.Attrs, xqgm.AttrSpec{Name: a.Name, E: e})
	}

	// Final projection: node, keys, the attribute sources condition
	// pushdown reads, and the nested sets' counts.
	projs := []xqgm.Proj{{Name: ctor.Name, E: elem}}
	var outKeys []int
	for i, kc := range cx.keyCols {
		projs = append(projs, xqgm.Proj{Name: fmt.Sprintf("k%d", i), E: xqgm.Col(kc)})
		outKeys = append(outKeys, len(projs)-1)
	}
	for _, a := range elem.Attrs {
		if cr, ok := a.E.(*xqgm.ColRef); ok && cr.Input == 0 {
			// Reuse a key projection when it is the same column.
			pos := -1
			for pi := 1; pi < len(projs); pi++ {
				if pcr, ok := projs[pi].E.(*xqgm.ColRef); ok && pcr.Col == cr.Col {
					pos = pi
					break
				}
			}
			if pos < 0 {
				projs = append(projs, xqgm.Proj{Name: "a_" + a.Name, E: cr})
				pos = len(projs) - 1
			}
			nav.Attrs[a.Name] = pos
		}
	}
	for _, setName := range sets {
		projs = append(projs, xqgm.Proj{Name: "cnt_" + setName, E: xqgm.Col(countOf[setName])})
	}
	top := xqgm.NewProject(cx.op, projs...)
	nav.Op = top
	nav.KeyCols = outKeys
	return nav, nil
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
	if e == nil {
		return nil
	}
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
	if seq, ok := fc.Seq.(*xquery.FnCall); ok {
		if seq.Name != "distinct" && seq.Name != "distinct-values" || len(seq.Args) != 1 {
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
			pred, _, err := c.compileRowPreds(cx, tp.preds, tp.table, 0, nil)
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
	}
	// for $v in $set, or over a table path: a row per iteration.
	var sd *setDef
	var err error
	if vr, ok := fc.Seq.(*xquery.VarRef); ok {
		b, ok := cx.vars[vr.Name]
		if !ok || b.set == nil {
			return fmt.Errorf("for over unknown set $%s", vr.Name)
		}
		sd = b.set
	} else if sd, err = c.parseSetDef(fc.Var, fc.Seq); err != nil {
		return err
	}
	start, err := c.realizeSet(cx, sd)
	if err != nil {
		return err
	}
	cx.vars[fc.Var] = &binding{isRow: true, table: sd.table, start: start}
	def, _ := c.schema.Table(sd.table)
	for _, pk := range def.PKIndexes() {
		cx.keyCols = append(cx.keyCols, start+pk)
	}
	return nil
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

// parseSetDef parses the table path $name ranges over, let- or for-bound.
func (c *Compiler) parseSetDef(name string, e xquery.Expr) (*setDef, error) {
	tp, err := c.parseTablePath(e)
	if err != nil {
		return nil, fmt.Errorf("unsupported source of $%s: %w", name, err)
	}
	if tp.field != "" {
		return nil, fmt.Errorf("$%s must range over rows: a column path requires distinct()", name)
	}
	return &setDef{name: name, table: tp.table, preds: tp.preds}, nil
}

// realizeSet joins the set's table (and, transitively, the sets it
// references) into the context, returning the column the set's rows start
// at. Already-realized sets are reused.
func (c *Compiler) realizeSet(cx *ctx, sd *setDef) (int, error) {
	if sd.realized {
		return sd.realizedStart, nil
	}
	// Realize referenced sets first.
	var err error
	for _, p := range sd.preds {
		xquery.Walk(p, func(x xquery.Expr) bool {
			if vr, ok := x.(*xquery.VarRef); ok && vr.Name != sd.name {
				if b := cx.vars[vr.Name]; b != nil && b.set != nil && !b.set.realized {
					_, err = c.realizeSet(cx, b.set)
				}
			}
			return err == nil
		})
		if err != nil {
			return 0, err
		}
	}
	def, _ := c.schema.Table(sd.table)
	tbl := xqgm.NewTable(def, xqgm.SrcBase)
	start := 0
	if cx.op != nil {
		start = cx.op.OutWidth()
	}
	pred, eqs, err := c.compileRowPreds(cx, sd.preds, sd.table, start, cx.op)
	if err != nil {
		return 0, err
	}
	c.joinInto(cx, tbl, eqs)
	if pred != nil {
		cx.op = xqgm.NewSelect(cx.op, pred)
	}
	sd.realized = true
	sd.realizedStart = start
	return start, nil
}

// compileRowPreds compiles the predicates of a table path. Context items
// (".") refer to the new table's columns starting at rowStart. Equality
// predicates between a new-table column and an outer expression become
// equi-join pairs (returned separately) when joining; everything else goes
// into the residual predicate. When outer is nil, all predicates become a
// residual over the standalone table (rowStart is then 0).
func (c *Compiler) compileRowPreds(cx *ctx, preds []xquery.Expr, table string, rowStart int, outer *xqgm.Operator) (xqgm.Expr, []xqgm.JoinEq, error) {
	def, _ := c.schema.Table(table)
	scalar := c.scalar(cx)
	row := func(e xquery.Expr) (xqgm.Expr, error) {
		if col, ok := contextField(e, def); ok {
			return xqgm.Col(rowStart + col), nil
		}
		return scalar(e)
	}
	var residual []xqgm.Expr
	var eqs []xqgm.JoinEq
	for _, p := range preds {
		for _, conj := range conjuncts(p) {
			// Try the equi-join form: ./col = outerScalar (either order).
			if outer != nil {
				if eq, ok2 := c.tryEquiPred(cx, conj, def); ok2 {
					eqs = append(eqs, eq)
					continue
				}
			}
			e, err := Translate(conj, row)
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
func (c *Compiler) tryEquiPred(cx *ctx, e xquery.Expr, def *schema.Table) (xqgm.JoinEq, bool) {
	cmp, ok := e.(*xquery.Cmp)
	if !ok || cmp.Op != "=" {
		return xqgm.JoinEq{}, false
	}
	try := func(rowSide, outerSide xquery.Expr) (xqgm.JoinEq, bool) {
		col, ok := contextField(rowSide, def)
		if !ok {
			return xqgm.JoinEq{}, false
		}
		oe, err := Translate(outerSide, c.scalar(cx))
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

// scalar is the Resolver of a view expression over cx's variables: $v
// bound to a distinct value, and $r/field of a bound row.
func (c *Compiler) scalar(cx *ctx) Resolver {
	return func(e xquery.Expr) (xqgm.Expr, error) {
		switch x := e.(type) {
		case *xquery.VarRef:
			b, ok := cx.vars[x.Name]
			if !ok {
				return nil, fmt.Errorf("unbound variable $%s", x.Name)
			}
			if !b.isScalar {
				return nil, fmt.Errorf("variable $%s is not scalar here", x.Name)
			}
			return xqgm.Col(b.scalarCol), nil
		case *xquery.Path:
			b, name, err := cx.rowStep(x)
			if err != nil {
				return nil, err
			}
			col, err := c.column(b, name)
			if err != nil {
				return nil, err
			}
			return xqgm.Col(col), nil
		}
		return nil, nil
	}
}

// rowStep matches $r/name, one child step without predicates over a row
// $r binds: a for-bound row or a realized set.
func (cx *ctx) rowStep(e xquery.Expr) (*binding, string, error) {
	p, ok := e.(*xquery.Path)
	if !ok {
		return nil, "", fmt.Errorf("not a path: %s", xquery.String(e))
	}
	vr, ok := p.Base.(*xquery.VarRef)
	if !ok || len(p.Steps) != 1 || p.Steps[0].Axis != "child" || len(p.Steps[0].Preds) > 0 {
		return nil, "", fmt.Errorf("unsupported path %s", xquery.String(e))
	}
	b, ok := cx.vars[vr.Name]
	if !ok {
		return nil, "", fmt.Errorf("unbound variable $%s", vr.Name)
	}
	if b.set != nil && b.set.realized {
		b = &binding{isRow: true, table: b.set.table, start: b.set.realizedStart}
	}
	if !b.isRow {
		return nil, "", fmt.Errorf("%s: $%s does not bind rows", xquery.String(e), vr.Name)
	}
	return b, p.Steps[0].Name, nil
}

// column returns the column of b's row holding its table's column name.
func (c *Compiler) column(b *binding, name string) (int, error) {
	def, _ := c.schema.Table(b.table)
	ci := def.ColIndex(name)
	if ci < 0 {
		return 0, fmt.Errorf("unknown column %s.%s", b.table, name)
	}
	return b.start + ci, nil
}

// compileContentExpr compiles non-FLWOR element content: $var/* expands a
// row into its field elements, in column order; $var/field produces a
// single field element; scalars embed as text.
func (c *Compiler) compileContentExpr(cx *ctx, e xquery.Expr) (xqgm.Expr, error) {
	b, name, err := cx.rowStep(e)
	if err != nil {
		return Translate(e, c.scalar(cx))
	}
	if name == "*" {
		def, _ := c.schema.Table(b.table)
		items := make([]xqgm.Expr, len(def.Columns))
		for ci, col := range def.Columns {
			items[ci] = &xqgm.ElemCtor{Name: col.Name, Children: []xqgm.Expr{xqgm.Col(b.start + ci)}}
		}
		return &xqgm.SeqCtor{Items: items}, nil
	}
	col, err := c.column(b, name)
	if err != nil {
		return nil, err
	}
	return &xqgm.ElemCtor{Name: name, Children: []xqgm.Expr{xqgm.Col(col)}}, nil
}

// countRef matches count($set) of a set with a count column in countOf.
func countRef(e xquery.Expr, countOf map[string]int) (int, bool) {
	fc, ok := e.(*xquery.FnCall)
	if !ok || fc.Name != "count" || len(fc.Args) != 1 {
		return 0, false
	}
	vr, ok := fc.Args[0].(*xquery.VarRef)
	if !ok {
		return 0, false
	}
	col, ok := countOf[vr.Name]
	return col, ok
}
