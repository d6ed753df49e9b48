package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest on top of the
// stdlib loader: each fixture under testdata/src/<name> is a
// self-contained module whose package paths end in the real repo's
// suffixes (internal/core, internal/wire, ...) so Applies scoping
// matches. `// want "regexp"` comments mark the line a diagnostic must
// land on; every want must be matched and every diagnostic must be
// wanted. Patterns are taken verbatim (no unescaping), so `// want
// "direct Lock"` matches a message containing that substring.

func TestDetermLint(t *testing.T)  { runFixture(t, DetermLint, "determ") }
func TestLockLint(t *testing.T)    { runFixture(t, LockLint, "lock") }
func TestStageLint(t *testing.T)   { runFixture(t, StageLint, "stage") }
func TestPersistLint(t *testing.T) { runFixture(t, PersistLint, "persist") }
func TestObsLint(t *testing.T)     { runFixture(t, ObsLint, "obsfix") }

type expect struct {
	file string
	line int
	pat  string
	re   *regexp.Regexp
	hit  bool
}

var wantPatRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", fixture)
	}

	var wants []*expect
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					_, rest, found := strings.Cut(c.Text, "// want ")
					if !found {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					ms := wantPatRE.FindAllStringSubmatch(rest, -1)
					if len(ms) == 0 {
						t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
					}
					for _, m := range ms {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &expect{file: pos.Filename, line: pos.Line, pat: pat, re: re})
					}
				}
			}
		}
	}

	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on fixture %s: %v", a.Name, fixture, err)
	}

	var errs []string
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			errs = append(errs, fmt.Sprintf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message))
		}
	}
	for _, w := range wants {
		if !w.hit {
			errs = append(errs, fmt.Sprintf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.pat))
		}
	}
	for _, e := range errs {
		t.Error(e)
	}
}
