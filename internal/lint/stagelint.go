package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StageLint enforces the two-phase staging discipline from PR 5: during
// a transaction's prepare phase, trigger bodies evaluate plans and
// STAGE their effects through FireContext.Stage — nothing may reach a
// sink, the dispatcher, or the outbox log until commit, so an abort
// leaves every observable byte identical to the pre-transaction state.
//
// A function is part of the prepare phase if it receives a
// *reldb.FireContext (trigger bodies run during Tx.Prepare whenever
// ctx.Stage is non-nil). From such functions, stagelint walks the
// static call graph inside the package and flags any path that reaches
// a delivery primitive:
//
//   - core.(*wave).run (every delivery: group append with an outbox,
//     then dispatcher or inline action)
//   - outbox.(*Log).Append / AppendBatch
//   - dispatch.(*Dispatcher).Enqueue
//   - outbox.Sink.Deliver
//
// Two shapes are exempt, because they are exactly how staging works:
//
//   - calls inside a function literal that is not immediately invoked
//     (staged thunks: `ctx.Stage(func() error { ... deliver ... })`)
//   - calls dominated by a branch that checked `ctx.Stage == nil` or
//     `ctx == nil` (the statement-level immediate-delivery path, as in
//     Engine.stage)
var StageLint = &Analyzer{
	Name:    "stagelint",
	Doc:     "prepare-phase code must stage deliveries via FireContext.Stage, never deliver or append directly",
	Applies: pathIn("internal/core", "internal/reldb"),
	Run:     runStageLint,
}

// stageBanned describes one delivery primitive by receiver-package
// suffix, receiver type name ("" = package function or any receiver),
// and method name.
type stageBanned struct {
	pkg, typ, name, what string
}

var stageBannedSet = []stageBanned{
	{"internal/core", "wave", "run", "delivery wave"},
	{"internal/outbox", "Log", "Append", "outbox append"},
	{"internal/outbox", "Log", "AppendBatch", "outbox append"},
	{"internal/dispatch", "Dispatcher", "Enqueue", "dispatcher enqueue"},
	{"internal/outbox", "", "Deliver", "sink delivery"},
}

func bannedCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	for _, b := range stageBannedSet {
		if IsMethodCall(pass.Info, call, b.pkg, b.typ, b.name) {
			return b.what, true
		}
	}
	return "", false
}

func runStageLint(pass *Pass) error {
	// Index this package's function declarations by their object so the
	// walk can descend into same-package helpers.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}

	visited := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasFireContextParam(pass, fd) {
				continue
			}
			walkPrepareReachable(pass, decls, visited, fd, fd.Name.Name)
		}
	}
	return nil
}

// hasFireContextParam reports whether fd takes a *reldb.FireContext
// (or, inside package reldb itself, a *FireContext).
func hasFireContextParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := pass.Info.Types[field.Type].Type
		if t == nil {
			continue
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Name() != "FireContext" {
			continue
		}
		if tp := named.Obj().Pkg(); tp != nil && strings.HasSuffix(tp.Path(), "internal/reldb") {
			return true
		}
	}
	return false
}

// walkPrepareReachable scans fn's body for banned calls, descending
// into same-package callees (outside func literals) breadth-first.
// root names the prepare-phase entry point for the diagnostic.
func walkPrepareReachable(pass *Pass, decls map[types.Object]*ast.FuncDecl, visited map[types.Object]bool, fd *ast.FuncDecl, root string) {
	if obj := pass.Info.Defs[fd.Name]; obj != nil {
		if visited[obj] {
			return
		}
		visited[obj] = true
	}
	WalkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		// Do not descend into function literals that are not immediately
		// invoked: their bodies run later (staged thunks, action funcs).
		if fl, ok := n.(*ast.FuncLit); ok && !isImmediatelyInvoked(fl, stack) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if what, bad := bannedCall(pass, call); bad {
			if !stageGuarded(stack) {
				pass.Reportf(call.Pos(), "%s reachable from prepare-phase function %s without a ctx.Stage==nil guard: stage the effect via FireContext.Stage so aborts stay byte-identical", what, root)
			}
			return true
		}
		// Descend into same-package helpers called outside a guard: a
		// helper that delivers unconditionally is just as reachable.
		if stageGuarded(stack) {
			return true
		}
		if fn, ok := Callee(pass.Info, call).(*types.Func); ok {
			if callee, ok := decls[fn]; ok {
				walkPrepareReachable(pass, decls, visited, callee, root+" -> "+fn.Name())
			}
		}
		return true
	})
}

// isImmediatelyInvoked reports whether fl is the Fun of a CallExpr
// directly above it on the stack (an IIFE executes in place).
func isImmediatelyInvoked(fl *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	return ok && ast.Unparen(call.Fun) == fl
}

// stageGuarded reports whether the node is inside a branch dominated by
// a check of ctx.Stage == nil or ctx == nil — the immediate-delivery
// path that only runs for statement-level (non-staged) firings.
func stageGuarded(stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condChecksStageNil(ifs.Cond) {
			return true
		}
	}
	return false
}

func condChecksStageNil(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if b.Op != token.EQL && b.Op != token.NEQ {
			return true
		}
		other := b.X
		if isNilIdent(other) {
			other = b.Y
		} else if !isNilIdent(b.Y) {
			return true
		}
		switch o := ast.Unparen(other).(type) {
		case *ast.SelectorExpr:
			if o.Sel.Name == "Stage" {
				found = true
			}
		case *ast.Ident:
			if o.Name == "ctx" {
				found = true
			}
		}
		return !found
	})
	return found
}
