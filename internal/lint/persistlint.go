package lint

import (
	"go/ast"
	"strings"
)

// PersistLint enforces the crash-safety discipline for the small durable
// state files beside the outbox's segments: the shard router's directory
// checkpoint (*.ckpt) and its delta log (dir.delta), and the outbox's ack
// watermark (ack). A whole-file write such as a checkpoint goes
// tmp-then-rename with CRC framing: a torn write must be detectable (CRC
// frame) and must never clobber the previous good state (rename is atomic;
// the tmp file takes the torn bytes). The delta log and the ack are opened
// with os.OpenFile and written in place (rule 3): a torn delta frame is
// truncated at open, and a short ack (a torn first write) reads as zero,
// which redelivers.
//
// No code writes dead.log any more (the outbox quarantines nothing), but it
// stays a protected name, so that nothing writes a file by that name
// outside a durable store unguarded.
//
// Rules, inside the durable packages (internal/outbox, internal/shard):
//
//  1. os.WriteFile must target a path built as `<final> + ".tmp"` and
//     the same function must os.Rename that tmp path afterwards.
//  2. Such a writer must produce CRC-framed bytes: the function must
//     reference a framing helper (Frame, encodeFrame).
//  3. os.Create is forbidden outright: append logs go through
//     os.OpenFile with explicit flags, checkpoints through rule 1.
//
// Everywhere else in the module, writing a path that names a protected
// artifact (.ckpt, dead.log, dir.delta) with os.WriteFile or
// os.Create is flagged: only the blessed stores may touch those files.
var PersistLint = &Analyzer{
	Name:    "persistlint",
	Doc:     "checkpoints are written tmp-then-rename with CRC framing, and the delta log and ack through os.OpenFile, by their owning stores",
	Applies: pathIn("internal"),
	Run:     runPersistLint,
}

// durablePkgs are the stores that own crash-safe files and must follow
// the full tmp-then-rename + framing idiom on every whole-file write.
var durablePkgs = pathIn("internal/outbox", "internal/shard")

// protectedNames are substrings of durable-artifact file names no code
// outside the durable packages may construct writes to.
var protectedNames = []string{".ckpt", "dead.log", "dir.delta"}

func runPersistLint(pass *Pass) error {
	durable := durablePkgs(pass.Path)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPersistFunc(pass, fd, durable)
		}
	}
	return nil
}

func checkPersistFunc(pass *Pass, fd *ast.FuncDecl, durable bool) {
	// Pre-scan: tmp-path variables (`tmp := path + ".tmp"`), rename
	// targets, and framing evidence within this function.
	tmpVars := map[string]bool{}
	renamed := map[string]bool{}
	framing := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if !isTmpSuffixExpr(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					tmpVars[id.Name] = true
				}
			}
		case *ast.CallExpr:
			if IsPkgCall(pass.Info, n, "os", "Rename") && len(n.Args) == 2 {
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					renamed[id.Name] = true
				}
			}
			if fn := Callee(pass.Info, n); fn != nil {
				switch fn.Name() {
				case "Frame", "encodeFrame", "AppendUvarint":
					framing = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case IsPkgCall(pass.Info, call, "os", "WriteFile") && len(call.Args) >= 2:
			path := ast.Unparen(call.Args[0])
			if durable {
				id, isIdent := path.(*ast.Ident)
				switch {
				case !isIdent || !tmpVars[id.Name]:
					pass.Reportf(call.Pos(), "os.WriteFile on a durable-store path must write `path + \".tmp\"` and os.Rename it into place (torn writes must not clobber good state)")
				case !renamed[id.Name]:
					pass.Reportf(call.Pos(), "tmp file %s is written but never os.Rename'd into place in this function", id.Name)
				case !framing:
					pass.Reportf(call.Pos(), "durable write without CRC framing evidence: wrap the payload with Frame/encodeFrame so torn or corrupt bytes are detected at open")
				}
			} else if name := protectedNameIn(pass, call.Args[0], fd); name != "" {
				pass.Reportf(call.Pos(), "os.WriteFile to protected durable artifact %q outside its owning store: route through internal/outbox or internal/shard persistence helpers", name)
			}
		case IsPkgCall(pass.Info, call, "os", "Create"):
			if durable {
				pass.Reportf(call.Pos(), "os.Create in a durable store: append logs use os.OpenFile with explicit flags, checkpoints use tmp-then-rename")
			} else if len(call.Args) == 1 {
				if name := protectedNameIn(pass, call.Args[0], fd); name != "" {
					pass.Reportf(call.Pos(), "os.Create on protected durable artifact %q outside its owning store", name)
				}
			}
		}
		return true
	})
}

// isTmpSuffixExpr matches `X + ".tmp"` or a string literal ending in
// ".tmp".
func isTmpSuffixExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		return isTmpSuffixExpr(e.Y) || isTmpSuffixExpr(e.X)
	case *ast.BasicLit:
		return strings.HasSuffix(strings.Trim(e.Value, "`\""), ".tmp")
	}
	return false
}

// protectedNameIn reports the first protected artifact name appearing
// in any string literal under expr (following one level of local
// variable definition inside fd).
func protectedNameIn(pass *Pass, expr ast.Expr, fd *ast.FuncDecl) string {
	name := ""
	scan := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok {
				return true
			}
			val := strings.Trim(lit.Value, "`\"")
			for _, p := range protectedNames {
				if strings.Contains(val, p) {
					name = p
					return false
				}
			}
			return true
		})
	}
	scan(expr)
	if name != "" {
		return name
	}
	// One level of indirection: `path := filepath.Join(dir, "x.ckpt")`.
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		obj := pass.Info.Uses[id]
		if obj == nil {
			return ""
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || identObj(pass, lid) != obj || i >= len(as.Rhs) {
					continue
				}
				scan(as.Rhs[i])
			}
			return name == ""
		})
	}
	return name
}
