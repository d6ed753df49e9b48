package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetermLint enforces the repo's determinism contract on the packages
// whose output is pinned byte-for-byte: the wire codec, the outbox log,
// the conformance goldens, core trigger firing, the shard router and
// directory, and the relational store whose Δ/∇ order feeds them all.
//
// Rules:
//
//  1. No wall-clock reads (time.Now, time.Since) outside an
//     observability guard. The PR 7 contract is "disabled = one branch,
//     no clock read": a clock read is acceptable only inside a branch
//     dominated by a nil-check of an obs handle. Intentional exceptions
//     (e.g. the per-group eval time GroupStats reports) carry
//     `//quark:clock <reason>`.
//
//  2. No nondeterministically-seeded randomness: package-level math/rand
//     functions draw from the shared, randomly-seeded source. Seeded
//     *rand.Rand values built via rand.New(rand.NewSource(k)) are
//     deterministic and allowed.
//
//  3. No unsorted `range` over a map unless the loop is provably
//     order-insensitive (it only writes map entries, accumulates
//     commutatively, or appends to slices that are sorted before use in
//     the same function). Anything else needs `//quark:sorted <reason>`
//     with a non-empty justification — an adjacent sort or an argument
//     for why order cannot reach pinned output. A `//quark:sorted` that
//     suppresses nothing (no map range on its line or the next, or a loop
//     rule 3 accepts anyway) is itself a finding, so a hatch cannot
//     outlive the loop it excused.
var DetermLint = &Analyzer{
	Name: "determlint",
	Doc:  "forbid wall clocks, shared-source randomness, and unsorted map iteration in deterministic paths",
	Applies: pathIn(
		"internal/wire",
		"internal/outbox",
		"internal/conformance",
		"internal/core",
		"internal/shard",
		"internal/reldb",
	),
	Run: runDetermLint,
}

func runDetermLint(pass *Pass) error {
	hatched := map[token.Position]bool{} // map ranges a //quark:sorted governs
	for _, file := range pass.Files {
		WalkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkClockCall(pass, n, stack)
				checkRandCall(pass, n)
			case *ast.RangeStmt:
				if checkMapRange(pass, file, n) {
					at := pass.Fset.Position(n.Pos())
					hatched[token.Position{Filename: at.Filename, Line: at.Line}] = true
				}
			}
			return true
		})
	}
	pass.eachDirective(func(c *ast.Comment, name, _ string) {
		pos := pass.Fset.Position(c.Pos())
		at := token.Position{Filename: pos.Filename, Line: pos.Line}
		next := token.Position{Filename: pos.Filename, Line: pass.Fset.Position(c.End()).Line + 1}
		if name == "sorted" && !hatched[at] && !hatched[next] {
			pass.Reportf(c.Pos(), "//quark:sorted suppresses nothing: no map range on this line or the next; delete it")
		}
	})
	return nil
}

func checkClockCall(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	var what string
	switch {
	case IsPkgCall(pass.Info, call, "time", "Now"):
		what = "time.Now"
	case IsPkgCall(pass.Info, call, "time", "Since"):
		what = "time.Since"
	default:
		return
	}
	if HasNilGuardAncestor(stack) {
		// Obs-guard idiom: `if m := h.Load(); m != nil { ... time.Now() }`.
		// The disabled path takes one branch and never reads the clock.
		return
	}
	if reason, ok := pass.Directive(call.Pos(), "clock"); ok {
		if reason == "" {
			pass.Reportf(call.Pos(), "//quark:clock needs a justification (why may this path read the wall clock?)")
		}
		return
	}
	pass.Reportf(call.Pos(), "%s in a deterministic path: guard it behind an obs-handle nil-check or annotate //quark:clock <reason>", what)
}

func checkRandCall(pass *Pass, call *ast.CallExpr) {
	fn, ok := Callee(pass.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods on an explicitly-seeded *rand.Rand are deterministic
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return // constructors: determinism hinges on the seed, caught elsewhere
	}
	pass.Reportf(call.Pos(), "rand.%s draws from the shared randomly-seeded source; use rand.New(rand.NewSource(seed)) in deterministic paths", fn.Name())
}

// checkMapRange reports whether rng is a map range governed by a
// //quark:sorted directive.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) (hatched bool) {
	t := pass.Info.Types[rng.X].Type
	if !IsMapType(t) {
		return false
	}
	fd := EnclosingFunc(file, rng.Pos())
	var body *ast.BlockStmt
	if fd != nil {
		body = fd.Body
	}
	insensitive := orderInsensitiveBlock(pass, rng.Body, loopCtx{fnBody: body, after: rng.End()})
	if reason, ok := pass.Directive(rng.Pos(), "sorted"); ok {
		switch {
		case reason == "":
			pass.Reportf(rng.Pos(), "//quark:sorted needs a justification (adjacent sort or why order cannot surface)")
		case insensitive:
			pass.Reportf(rng.Pos(), "//quark:sorted suppresses nothing: the loop over %s is already order-insensitive; delete it", exprString(pass, rng.X))
		}
		return true
	}
	if insensitive {
		return false
	}
	pass.Reportf(rng.Pos(), "iteration over map %s has nondeterministic order: collect+sort the keys, make the body order-insensitive, or annotate //quark:sorted <reason>", exprString(pass, rng.X))
	return false
}

// slicesSortedAfter collects the objects of slice variables passed to a
// sort call (sort.Strings/Ints/Float64s/Slice/SliceStable/Sort,
// slices.Sort/SortFunc/SortStableFunc) lexically after pos inside body.
func slicesSortedAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn, ok := Callee(pass.Info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort":
			switch fn.Name() {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			default:
				return true
			}
		case "slices":
			switch fn.Name() {
			case "Sort", "SortFunc", "SortStableFunc":
			default:
				return true
			}
		default:
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// loopCtx carries the function body and the position after which a
// sort call redeems appends made inside the loop under inspection.
type loopCtx struct {
	fnBody *ast.BlockStmt
	after  token.Pos
	sorted map[types.Object]bool // lazily computed
}

func (c *loopCtx) sortedSet(pass *Pass) map[types.Object]bool {
	if c.sorted == nil {
		if c.fnBody != nil {
			c.sorted = slicesSortedAfter(pass, c.fnBody, c.after)
		} else {
			c.sorted = map[types.Object]bool{}
		}
	}
	return c.sorted
}

// orderInsensitiveBlock reports whether every statement in the block is
// one whose effect cannot depend on iteration order: map writes and
// deletes, commutative numeric accumulation (atomic counters included),
// boolean latching, appends into slices that are sorted later, and
// control flow composed of the same. An early `break` is allowed only
// when the body performs no numeric accumulation (a partial commutative
// sum still depends on which elements were visited).
func orderInsensitiveBlock(pass *Pass, blk *ast.BlockStmt, ctx loopCtx) bool {
	if hasBreak(blk) && hasAccumulation(blk) {
		return false
	}
	for _, st := range blk.List {
		if !orderInsensitiveStmt(pass, st, ctx) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, st ast.Stmt, ctx loopCtx) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return orderInsensitiveAssign(pass, st, ctx)
	case *ast.IncDecStmt:
		return true // counting is commutative
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch c := Callee(pass.Info, call).(type) {
		case *types.Builtin:
			return c.Name() == "delete"
		case *types.Func:
			// Atomic / stats counter bumps are commutative:
			// sync/atomic Add/Store-free increments and the obs
			// Counter/Gauge/Histogram family.
			if c.Name() == "Add" || c.Name() == "Inc" {
				return IsMethodCall(pass.Info, call, "sync/atomic", "", c.Name()) ||
					IsMethodCall(pass.Info, call, "internal/obs", "", c.Name())
			}
			// A sort erases whatever order the input arrived in.
			if c.Pkg() != nil && (c.Pkg().Path() == "sort" || c.Pkg().Path() == "slices") {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		// A guard whose branches are themselves order-insensitive: the
		// condition may read loop variables freely (reads don't order).
		if st.Init != nil && !orderInsensitiveStmt(pass, st.Init, ctx) {
			return false
		}
		if !orderInsensitiveBlock(pass, st.Body, ctx) {
			return false
		}
		switch e := st.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderInsensitiveBlock(pass, e, ctx)
		case *ast.IfStmt:
			return orderInsensitiveStmt(pass, e, ctx)
		}
		return false
	case *ast.BlockStmt:
		return orderInsensitiveBlock(pass, st, ctx)
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE || st.Tok == token.BREAK
	case *ast.RangeStmt:
		// Nested loop: appends inside it may be redeemed by a sort that
		// runs after the NESTED loop (still inside the outer body).
		nested := loopCtx{fnBody: ctx.fnBody, after: st.End()}
		return orderInsensitiveBlock(pass, st.Body, nested)
	case *ast.ForStmt:
		nested := loopCtx{fnBody: ctx.fnBody, after: st.End()}
		return orderInsensitiveBlock(pass, st.Body, nested)
	case *ast.DeclStmt:
		return true // declarations have no cross-iteration effect
	}
	return false
}

func hasBreak(blk *ast.BlockStmt) bool {
	found := false
	ast.Inspect(blk, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		case *ast.RangeStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return false // break there doesn't exit this loop
		}
		return !found
	})
	return found
}

func hasAccumulation(blk *ast.BlockStmt) bool {
	found := false
	ast.Inspect(blk, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				found = true
			}
		}
		return !found
	})
	return found
}

func orderInsensitiveAssign(pass *Pass, as *ast.AssignStmt, ctx loopCtx) bool {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		// x[k] = v (map write), _ = v, append into a later-sorted slice,
		// or a define of a loop-local temp.
		for i, lhs := range as.Lhs {
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if l.Name == "_" {
					continue
				}
				if as.Tok == token.DEFINE {
					continue // fresh per-iteration binding
				}
				// `s = append(s, ...)` with s sorted after the loop.
				if i < len(as.Rhs) && isAppendOfSorted(pass, as.Rhs[i], pass.Info.Uses[l], ctx.sortedSet(pass)) {
					continue
				}
				// Latching a boolean (`found = true`) is commutative.
				if i < len(as.Rhs) && isBoolLit(as.Rhs[i]) {
					continue
				}
				return false
			case *ast.IndexExpr:
				if IsMapType(pass.Info.Types[l.X].Type) {
					continue // map writes don't depend on visit order
				}
				return false
			default:
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN:
		// Commutative accumulation — except string concatenation, whose
		// result depends on order.
		for _, lhs := range as.Lhs {
			if t := pass.Info.Types[lhs].Type; t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

func isAppendOfSorted(pass *Pass, rhs ast.Expr, lobj types.Object, sorted map[types.Object]bool) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	if b, ok := Callee(pass.Info, call).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return lobj != nil && sorted[lobj]
}

func isBoolLit(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (id.Name == "true" || id.Name == "false")
}

func exprString(pass *Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(pass, e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(pass, e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(pass, e.X) + "[...]"
	}
	return "value"
}
