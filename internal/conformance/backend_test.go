package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/relsql"
)

// backendPlanText renders the regresql-style cost baseline for one scenario:
// the backend's EXPLAIN QUERY PLAN output for every installed trigger plan,
// per translation mode, in deterministic order.
func backendPlanText(t *testing.T, sc *Scenario) string {
	t.Helper()
	var sb strings.Builder
	for _, mode := range []core.Mode{core.ModeUngrouped, core.ModeGrouped} {
		db, err := reldb.Open(sc.Schema)
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(db, mode)
		e.RegisterAction("notify", func(core.Invocation) error { return nil })
		for _, v := range sc.Views {
			if err := e.CreateView(v.Name, v.Src); err != nil {
				t.Fatalf("view %s: %v", v.Name, err)
			}
		}
		for _, src := range sc.Triggers {
			if err := e.CreateTrigger(src); err != nil {
				t.Fatalf("trigger: %v", err)
			}
		}
		sh, err := relsql.NewShadow(db)
		if err != nil {
			t.Fatal(err)
		}
		texts := e.SQLTexts()
		keys := make([]string, 0, len(texts))
		for k := range texts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if texts[k] == "" {
				continue // materialized bodies render no SQL
			}
			plan, err := sh.ExplainPlan(texts[k])
			if err != nil {
				t.Fatalf("%s %s: %v", mode, k, err)
			}
			fmt.Fprintf(&sb, "== %s %s ==\n%s", mode, k, plan)
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestSQLitePlanBaselines pins the backend query plan of every trigger's
// rendered SQL to a committed baseline (testdata/plans/*.baseline),
// regresql-style: a refactor that silently degrades a plan — a hash join
// collapsing to a nested loop, a lost filter — shows up as a baseline diff
// here even while results stay correct. -update regenerates the baselines.
func TestSQLitePlanBaselines(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			got := backendPlanText(t, sc)
			if got == "" {
				t.Fatal("no trigger plans rendered for scenario")
			}
			basePath := filepath.Join("testdata", "plans", name+".baseline")
			if *update {
				if err := os.MkdirAll(filepath.Dir(basePath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(basePath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", basePath)
				return
			}
			want, err := os.ReadFile(basePath)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/conformance -run TestSQLitePlanBaselines -update` to create it)", err)
			}
			if got != string(want) {
				t.Errorf("query plan drift vs baseline:\n%s", diffText(string(want), got))
			}
		})
	}
}
