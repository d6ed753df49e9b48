package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct {
		Err string
	}
}

// Load type-checks the packages matching patterns, run in module directory
// dir ("" = cwd), using `go list -deps -export` for dependency export data,
// so it needs no network and no third-party driver. Only non-test Go files of the matched
// (non-dep-only) packages are parsed and analyzed; dependencies are
// imported from their compiled export data.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := []string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	// One importer instance across all targets so shared dependencies
	// are only materialized once.
	imp := importer.ForCompiler(token.NewFileSet(), "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := check(t.ImportPath, t.Dir, absJoin(t.Dir, t.GoFiles), imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func absJoin(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}

// check parses and type-checks one package from its source files.
func check(path, dir string, files []string, imp types.Importer) (*Package, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, fname := range files {
		f, err := parser.ParseFile(fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", fname, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  fset,
		Files: parsed,
		Types: tpkg,
		Info:  info,
	}, nil
}

// ---- go vet -vettool unit mode -----------------------------------------

// VetConfig mirrors the JSON config the go command writes for each
// vet invocation (cmd/go/internal/work.vetConfig).
type VetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	Standard     map[string]bool
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string
	GoVersion    string

	SucceedOnTypecheckFailure bool
}

// LoadUnit type-checks the single compilation unit described by a
// vet.cfg file handed to us by `go vet -vettool=`.
func LoadUnit(cfgFile string) (*Package, *VetConfig, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, nil, err
	}
	cfg := new(VetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %v", cfgFile, err)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		// Import paths in source resolve through ImportMap to canonical
		// package paths, which PackageFile maps to export data.
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", lookup)
	pkg, err := check(cfg.ImportPath, cfg.Dir, cfg.GoFiles, imp)
	if err != nil {
		return nil, cfg, err
	}
	return pkg, cfg, nil
}

// IsTestUnit reports whether the unit is a test variant (in-package
// test build or external _test package); those are skipped entirely —
// the invariants guard production code.
func (c *VetConfig) IsTestUnit() bool {
	return strings.Contains(c.ID, ".test") || strings.HasSuffix(c.ImportPath, "_test") ||
		strings.Contains(c.ID, " [")
}
