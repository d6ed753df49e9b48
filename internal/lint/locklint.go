package lint

import (
	"go/ast"
	"go/types"
)

// LockLint enforces the engine's documented lock hierarchy (see the
// Engine concurrency-model comment in internal/core/engine.go):
//
//  1. Per-table locks are acquired only through acquireLocks, which
//     takes a lock plan built by walking lockOrder, so acquisition order
//     is globally fixed and deadlock-free. Any direct
//     Lock/RLock/Unlock/RUnlock on an entry of the tableLocks map
//     outside acquireLocks is a finding.
//
//  2. The metadata mutex e.mu is ordered BEFORE table locks: a
//     function that has taken table locks (via acquireLocks,
//     lockForWrite, or lockAllForWrite) must not subsequently acquire
//     e.mu while they are held. Lexically, an e.mu.Lock/RLock after an
//     acquire call in the same function is a finding unless the
//     returned release function has been invoked in between.
var LockLint = &Analyzer{
	Name:    "locklint",
	Doc:     "table locks only via acquireLocks/lockOrder; never take e.mu while holding table locks",
	Applies: pathIn("internal/core", "internal/reldb"),
	Run:     runLockLint,
}

// acquireFuncs are the blessed table-lock entry points; calling one
// means table locks are (potentially) held from that point on.
var acquireFuncs = map[string]bool{
	"acquireLocks":    true,
	"lockForWrite":    true,
	"lockAllForWrite": true,
}

var lockMethods = map[string]bool{"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true, "TryLock": true, "TryRLock": true}

func runLockLint(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkTableLockAccess(pass, fd)
			checkMuAfterTableLocks(pass, fd)
		}
	}
	return nil
}

// checkTableLockAccess flags direct lock-method calls on tableLocks
// entries outside acquireLocks.
func checkTableLockAccess(pass *Pass, fd *ast.FuncDecl) {
	if fd.Name.Name == "acquireLocks" {
		return
	}
	// Track locals bound from a tableLocks index: `l := e.tableLocks[t]`.
	fromTable := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if isTableLocksIndex(rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := identObj(pass, id); obj != nil {
							fromTable[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !lockMethods[sel.Sel.Name] {
				return true
			}
			recv := ast.Unparen(sel.X)
			if isTableLocksIndex(recv) {
				pass.Reportf(n.Pos(), "direct %s on a tableLocks entry: table locks are acquired only through acquireLocks (global lockOrder)", sel.Sel.Name)
				return true
			}
			if id, ok := recv.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && fromTable[obj] {
					pass.Reportf(n.Pos(), "direct %s on a tableLocks entry (via %s): table locks are acquired only through acquireLocks (global lockOrder)", sel.Sel.Name, id.Name)
				}
			}
		}
		return true
	})
}

func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

func isTableLocksIndex(e ast.Expr) bool {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "tableLocks"
}

// acquireSite is one table-lock acquisition still considered live.
type acquireSite struct {
	node    ast.Node
	name    string       // which blessed entry point was called
	release types.Object // variable holding the release func, if bound
}

// checkMuAfterTableLocks flags metadata-mutex acquisition ordered after
// a table-lock acquisition in the same function body.
func checkMuAfterTableLocks(pass *Pass, fd *ast.FuncDecl) {
	var acquires []acquireSite

	// A deferred unlock() runs at function exit, not at its lexical
	// position, so it must not end the critical section for the walk.
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	// Single source-ordered walk. Function literals are traversed too:
	// a closure created while table locks are held usually runs under
	// them (staged thunks are covered by stagelint, not here).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// unlock := e.acquireLocks(...) — remember which variable
			// releases the tables.
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if name, ok := acquireCallName(call); ok {
					site := acquireSite{node: n, name: name}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						site.release = identObj(pass, id)
					}
					acquires = append(acquires, site)
				}
			}
		case *ast.CallExpr:
			if name, ok := acquireCallName(n); ok {
				if !insideAssign(fd, n) {
					// Bare call (result deferred or discarded): treat the
					// locks as held for the rest of the function.
					acquires = append(acquires, acquireSite{node: n, name: name})
				}
				return true
			}
			// unlock() — the acquisition bound to this variable is over
			// (unless deferred: those release only at function exit).
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && !deferred[n] {
					for i := len(acquires) - 1; i >= 0; i-- {
						if acquires[i].release == obj {
							acquires = append(acquires[:i], acquires[i+1:]...)
							break
						}
					}
				}
				return true
			}
			// X.mu.Lock() / X.mu.RLock() after a live acquisition.
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
				return true
			}
			inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok || inner.Sel.Name != "mu" {
				return true
			}
			if len(acquires) > 0 && n.Pos() > acquires[0].node.Pos() {
				pass.Reportf(n.Pos(), "%s.mu.%s while table locks from %s may still be held: the global order is e.mu before table locks (engine.go concurrency model)",
					exprString(pass, inner.X), sel.Sel.Name, acquires[len(acquires)-1].name)
			}
		}
		return true
	})
}

// insideAssign reports whether call is the RHS of an assignment in fd
// (those are recorded by the AssignStmt case with their release var).
func insideAssign(fd *ast.FuncDecl, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			if ast.Unparen(rhs) == call {
				found = true
			}
		}
		return !found
	})
	return found
}

func acquireCallName(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if acquireFuncs[sel.Sel.Name] {
		return sel.Sel.Name, true
	}
	return "", false
}
