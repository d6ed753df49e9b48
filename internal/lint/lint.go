// Package lint is quark's project-specific static-analysis suite: five
// analyzers that enforce, at compile time, the invariants the engine's
// correctness story rests on (deterministic delivery order, global lock
// ordering, prepare/commit staging discipline, tmp-then-rename CRC
// persistence, and nil-safe zero-cost observability). The analyzers are
// built directly on go/ast + go/types so the module stays
// dependency-free; cmd/quarklint drives them either standalone (doing
// its own `go list` + type-check) or as a `go vet -vettool=` backend.
//
// See README.md in this directory for the invariant catalog: which PR
// introduced each contract and which analyzer now pins it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule set. Run receives a fully type-checked
// package and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters packages by canonical import path. A nil Applies
	// means the analyzer runs everywhere.
	Applies func(path string) bool
	Run     func(*Pass) error
}

// Package is one type-checked compilation unit handed to analyzers.
type Package struct {
	Path  string // canonical import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives map[directiveKey]string // (file,line,name) -> reason
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass is the per-(analyzer, package) context.
type Pass struct {
	*Package
	Analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every applicable analyzer to every package and returns
// the findings sorted by position. Diagnostics inside _test.go files
// are dropped: the invariants guard production code, and tests
// legitimately use wall clocks, raw writes, and unsorted iteration.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Package:  pkg,
				Analyzer: a,
				report: func(d Diagnostic) {
					if strings.HasSuffix(d.Pos.Filename, "_test.go") {
						return
					}
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// pathIn returns an Applies filter matching any of the given import
// path suffixes (e.g. "internal/core" matches both "quark/internal/core"
// and a fixture module's "quark/internal/core").
func pathIn(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) || strings.Contains(path, "/"+s+"/") {
				return true
			}
		}
		return false
	}
}

// ---- //quark: directives ------------------------------------------------

type directiveKey struct {
	file string
	line int
	name string
}

// Directive reports the reason text of a `//quark:<name> <reason>`
// comment governing pos: either an end-of-line comment on the same line
// or a comment on the line immediately above (a directive governs its
// own line and the next, so both trailing and standalone placements
// work). The boolean is false when no directive is present; an empty
// reason is returned as present-but-empty so analyzers can insist on a
// justification.
func (p *Package) Directive(pos token.Pos, name string) (reason string, ok bool) {
	if p.directives == nil {
		p.directives = map[directiveKey]string{}
		p.eachDirective(func(c *ast.Comment, dname, reason string) {
			at := p.Fset.Position(c.Pos())
			p.directives[directiveKey{at.Filename, at.Line, dname}] = reason
			p.directives[directiveKey{at.Filename, p.Fset.Position(c.End()).Line + 1, dname}] = reason
		})
	}
	pp := p.Fset.Position(pos)
	reason, ok = p.directives[directiveKey{pp.Filename, pp.Line, name}]
	return reason, ok
}

// eachDirective calls fn for every `//quark:<name> <reason>` comment of
// the package.
func (p *Package) eachDirective(fn func(c *ast.Comment, name, reason string)) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if text, found := strings.CutPrefix(c.Text, "//quark:"); found {
					name, rest, _ := strings.Cut(text, " ")
					fn(c, name, strings.TrimSpace(rest))
				}
			}
		}
	}
}

// ---- shared AST / types helpers ----------------------------------------

// Callee resolves the called object of a call expression, looking
// through parentheses. Returns nil for calls through function values,
// func literals, and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o := info.Uses[fun]; o != nil {
			if _, isFn := o.(*types.Func); isFn {
				return o
			}
			// Builtins (append, delete, ...) resolve to *types.Builtin.
			if _, isB := o.(*types.Builtin); isB {
				return o
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// IsPkgCall reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now).
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := Callee(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// IsMethodCall reports whether call invokes a method named name whose
// receiver's named type lives in a package whose path ends in pkgSuffix
// (empty pkgSuffix matches any package). typeName "" matches any
// receiver type; name "" matches any method.
func IsMethodCall(info *types.Info, call *ast.CallExpr, pkgSuffix, typeName, name string) bool {
	fn, ok := Callee(info, call).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || (name != "" && fn.Name() != name) {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	if typeName != "" && named.Obj().Name() != typeName {
		return false
	}
	if pkgSuffix == "" {
		return true
	}
	tp := named.Obj().Pkg()
	return tp != nil && (tp.Path() == pkgSuffix || strings.HasSuffix(tp.Path(), "/"+pkgSuffix))
}

// IsMapType reports whether t is (or aliases) a map type.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// EnclosingFunc returns the innermost function declaration containing
// pos in file, or nil.
func EnclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// HasNilGuardAncestor reports whether any if-statement on the ancestor
// stack has a condition mentioning a comparison against nil. stack is
// an inner-to-outer (or outer-to-inner) list of enclosing nodes.
func HasNilGuardAncestor(stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condMentionsNil(ifs.Cond) {
			return true
		}
	}
	return false
}

func condMentionsNil(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.NEQ || b.Op == token.EQL) {
			if isNilIdent(b.X) || isNilIdent(b.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// WalkWithStack traverses root, invoking fn with each node and the
// stack of its ancestors (outermost first, excluding the node itself).
// Returning false from fn prunes the subtree.
func WalkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
