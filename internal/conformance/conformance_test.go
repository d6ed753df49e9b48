package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quark/internal/core"
)

var update = flag.Bool("update", false, "regenerate golden files from the MATERIALIZED oracle")

func scenarioFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario fixtures under testdata/")
	}
	return files
}

func scenarioName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".txt")
}

const (
	ung = core.ModeUngrouped
	grp = core.ModeGrouped
	mat = core.ModeMaterialized
)

// row is one execution style of the matrix: a translation mode plus the
// runner's options.
type row struct {
	mode core.Mode
	opts RunOpts
}

// String names the row's subtest: mode, engine, style, then delivery and
// injection flags, e.g. GROUPED+shards=2+batched+async+replayed. Select
// rows by axis across the matrix with -run '(Golden|Differential)//shards'
// (or //sqlite, //rebalance, //abortfirst).
func (r row) String() string {
	parts := []string{r.mode.String()}
	if r.opts.Shards > 0 {
		parts = append(parts, fmt.Sprintf("shards=%d", r.opts.Shards))
	}
	if r.opts.Backend != "" {
		parts = append(parts, r.opts.Backend)
	}
	if r.opts.Batched {
		parts = append(parts, "batched")
	} else {
		parts = append(parts, "single")
	}
	for _, f := range []struct {
		on   bool
		name string
	}{{r.opts.Async, "async"}, {r.opts.Replayed, "replayed"}, {r.opts.Rebalance, "rebalance"}, {r.opts.AbortFirst, "abortfirst"}} {
		if f.on {
			parts = append(parts, f.name)
		}
	}
	return strings.Join(parts, "+")
}

// matrix is every execution style the suite runs, each once, grouped by
// the test function that runs the group. Every row must reproduce the
// committed golden byte for byte: the single or batched half, as the row
// batches. Sharding (routed statements and distributed transactions),
// forced rebalances before every unit, prepare failures injected before
// every batch, async delivery, the replayed outbox and the SQL plan
// shadow must all be invisible.
var matrix = []struct {
	test string
	rows []row
}{
	// The oracle, inline and through the worker pool and the outbox.
	{"TestGolden", []row{{mat, RunOpts{}}, {mat, RunOpts{Batched: true}}}},
	{"TestGoldenAsync", []row{{mat, RunOpts{Async: true}}, {mat, RunOpts{Batched: true, Async: true}}}},
	{"TestGoldenReplayed", []row{
		{mat, RunOpts{Async: true, Replayed: true}}, {mat, RunOpts{Batched: true, Async: true, Replayed: true}},
	}},
	// The translations on one engine.
	{"TestDifferential", []row{
		{ung, RunOpts{}}, {ung, RunOpts{Batched: true}},
		{ung, RunOpts{Async: true}}, {ung, RunOpts{Batched: true, Async: true}},
		{ung, RunOpts{Async: true, Replayed: true}}, {ung, RunOpts{Batched: true, Async: true, Replayed: true}},
		{grp, RunOpts{}}, {grp, RunOpts{Batched: true}},
		{grp, RunOpts{Async: true}}, {grp, RunOpts{Batched: true, Async: true}},
		{grp, RunOpts{Async: true, Replayed: true}}, {grp, RunOpts{Batched: true, Async: true, Replayed: true}},
	}},
	// Sharded fleets; one shard pins the degenerate fleet to one engine.
	{"TestGoldenSharded", []row{
		{mat, RunOpts{Shards: 1}}, {mat, RunOpts{Shards: 1, Batched: true}},
		{mat, RunOpts{Shards: 2}}, {mat, RunOpts{Shards: 2, Batched: true}},
		{mat, RunOpts{Shards: 4}}, {mat, RunOpts{Shards: 4, Batched: true}},
	}},
	{"TestShardedDifferential", []row{
		{ung, RunOpts{Shards: 1}}, {ung, RunOpts{Shards: 1, Batched: true}},
		{ung, RunOpts{Shards: 1, Async: true}}, {ung, RunOpts{Shards: 1, Batched: true, Async: true, Replayed: true}},
		{ung, RunOpts{Shards: 2}}, {ung, RunOpts{Shards: 2, Batched: true}},
		{ung, RunOpts{Shards: 2, Async: true}}, {ung, RunOpts{Shards: 2, Batched: true, Async: true, Replayed: true}},
		{ung, RunOpts{Shards: 4}}, {ung, RunOpts{Shards: 4, Batched: true}},
		{ung, RunOpts{Shards: 4, Async: true}}, {ung, RunOpts{Shards: 4, Batched: true, Async: true, Replayed: true}},
		{grp, RunOpts{Shards: 1}}, {grp, RunOpts{Shards: 1, Batched: true}},
		{grp, RunOpts{Shards: 1, Async: true}}, {grp, RunOpts{Shards: 1, Batched: true, Async: true, Replayed: true}},
		{grp, RunOpts{Shards: 2}}, {grp, RunOpts{Shards: 2, Batched: true}},
		{grp, RunOpts{Shards: 2, Async: true}}, {grp, RunOpts{Shards: 2, Batched: true, Async: true, Replayed: true}},
		{grp, RunOpts{Shards: 4}}, {grp, RunOpts{Shards: 4, Batched: true}},
		{grp, RunOpts{Shards: 4, Async: true}}, {grp, RunOpts{Shards: 4, Batched: true, Async: true, Replayed: true}},
	}},
	// One routing-group migration forced before every unit.
	{"TestGoldenShardedRebalance", []row{
		{ung, RunOpts{Shards: 2, Rebalance: true}}, {ung, RunOpts{Shards: 2, Batched: true, Rebalance: true}},
		{ung, RunOpts{Shards: 4, Rebalance: true}}, {ung, RunOpts{Shards: 4, Batched: true, Rebalance: true}},
		{grp, RunOpts{Shards: 2, Rebalance: true}}, {grp, RunOpts{Shards: 2, Batched: true, Rebalance: true}},
		{grp, RunOpts{Shards: 4, Rebalance: true}}, {grp, RunOpts{Shards: 4, Batched: true, Rebalance: true}},
		{mat, RunOpts{Shards: 2, Rebalance: true}}, {mat, RunOpts{Shards: 2, Batched: true, Rebalance: true}},
		{mat, RunOpts{Shards: 4, Rebalance: true}}, {mat, RunOpts{Shards: 4, Batched: true, Rebalance: true}},
	}},
	// Every batch first attempted with a prepare failure armed: the
	// aborted attempt must leave no trace for the retry to trip over.
	{"TestGoldenAbortFirst", []row{
		{mat, RunOpts{Batched: true, AbortFirst: true}},
		{mat, RunOpts{Shards: 2, Batched: true, AbortFirst: true}},
		{mat, RunOpts{Shards: 4, Batched: true, AbortFirst: true}},
		{ung, RunOpts{Shards: 2, Batched: true, AbortFirst: true}},
		{grp, RunOpts{Shards: 2, Batched: true, AbortFirst: true}},
	}},
	// Every plan evaluation replayed as rendered SQL.
	{"TestSQLiteBackendGoldens", []row{
		{ung, RunOpts{Backend: "sqlite"}}, {ung, RunOpts{Backend: "sqlite", Batched: true}},
		{grp, RunOpts{Backend: "sqlite"}}, {grp, RunOpts{Backend: "sqlite", Batched: true}},
	}},
}

// TestGolden runs the oracle's rows and checks the matrix itself: no row
// listed twice, and every group run by a test of its name. -update
// rewrites the goldens from the single-engine MATERIALIZED oracle,
// statement by statement and batched, before any group reads them.
func TestGolden(t *testing.T) {
	seen := map[string]bool{}
	total := 0
	for _, g := range matrix {
		if seen[g.test] {
			t.Fatalf("matrix lists group %s twice", g.test)
		}
		seen[g.test] = true
		for _, r := range g.rows {
			if seen[r.String()] {
				t.Fatalf("matrix lists %s twice", r)
			}
			seen[r.String()] = true
			total++
		}
	}
	t.Logf("%d rows per scenario in %d groups", total, len(matrix))
	runMatrix(t)
}

func TestGoldenAsync(t *testing.T)            { runMatrix(t) }
func TestGoldenReplayed(t *testing.T)         { runMatrix(t) }
func TestDifferential(t *testing.T)           { runMatrix(t) }
func TestGoldenSharded(t *testing.T)          { runMatrix(t) }
func TestShardedDifferential(t *testing.T)    { runMatrix(t) }
func TestGoldenShardedRebalance(t *testing.T) { runMatrix(t) }
func TestGoldenAbortFirst(t *testing.T)       { runMatrix(t) }
func TestSQLiteBackendGoldens(t *testing.T)   { runMatrix(t) }

// runMatrix runs every scenario in every row of the matrix group named
// after the calling test, comparing each against the committed golden.
func runMatrix(t *testing.T) {
	var rows []row
	for _, g := range matrix {
		if g.test == t.Name() {
			rows = g.rows
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no matrix group for %s", t.Name())
	}
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", "golden", name+".golden")
			if *update && strings.HasPrefix(t.Name(), "TestGolden/") {
				writeGolden(t, sc, goldenPath)
			}
			b, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/conformance -run 'TestGolden$' -update` to create it)", err)
			}
			single, batched, ok := strings.Cut(strings.TrimPrefix(string(b), "== single ==\n"), "== batched ==\n")
			if !ok {
				t.Fatalf("%s has no batched half", goldenPath)
			}
			if !strings.Contains(single, "notify ") || !strings.Contains(batched, "notify ") {
				t.Error("the oracle fires no notifications in one style; the scenario exercises nothing")
			}
			for _, r := range rows {
				t.Run(r.String(), func(t *testing.T) {
					want := single
					if r.opts.Batched {
						want = batched
					}
					opts := r.opts
					var verified int64
					if opts.Backend != "" {
						opts.BackendVerified = &verified
					}
					got, err := RunStyle(sc, r.mode, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("diverges from golden:\n%s", diffText(want, got))
					}
					if opts.Backend != "" && verified == 0 {
						t.Error("backend shadow verified no plan evaluations")
					}
				})
			}
		})
	}
}

// writeGolden rewrites the scenario's golden from the MATERIALIZED oracle
// on one engine, statement by statement and batched.
func writeGolden(t *testing.T, sc *Scenario, path string) {
	t.Helper()
	single, err := RunStyle(sc, mat, RunOpts{})
	if err != nil {
		t.Fatalf("oracle single: %v", err)
	}
	batched, err := RunStyle(sc, mat, RunOpts{Batched: true})
	if err != nil {
		t.Fatalf("oracle batched: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("== single ==\n"+single+"== batched ==\n"+batched), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", path)
}

// TestDropTriggerOnlyOutsideABlock: the script accepts `drop trigger`
// between units and rejects it inside begin..commit.
func TestDropTriggerOnlyOutsideABlock(t *testing.T) {
	const head = "[schema]\ntable t: id int pk\n[script]\n"
	if _, err := Parse(head+"begin\ncommit\ndrop trigger w\n", "ok"); err != nil {
		t.Errorf("drop after a block: %v", err)
	}
	if _, err := Parse(head+"begin\ndrop trigger w\ncommit\n", "bad"); err == nil {
		t.Error("drop inside begin..commit was accepted")
	}
}

// diffText renders a minimal line diff for failure messages.
func diffText(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var sb strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			fmt.Fprintf(&sb, "  %s\n", w)
		} else {
			if w != "" || i < len(wl) {
				fmt.Fprintf(&sb, "- %s\n", w)
			}
			if g != "" || i < len(gl) {
				fmt.Fprintf(&sb, "+ %s\n", g)
			}
		}
	}
	return sb.String()
}
