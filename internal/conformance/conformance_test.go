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

// oracleOutput runs the scenario through the MATERIALIZED oracle in both
// execution styles and formats the combined golden text.
func oracleOutput(t *testing.T, sc *Scenario) string {
	t.Helper()
	single, err := Run(sc, core.ModeMaterialized, false)
	if err != nil {
		t.Fatalf("oracle single: %v", err)
	}
	batched, err := Run(sc, core.ModeMaterialized, true)
	if err != nil {
		t.Fatalf("oracle batched: %v", err)
	}
	return "== single ==\n" + single + "== batched ==\n" + batched
}

// TestGolden compares the oracle's notification log against the committed
// golden file for every scenario; -update rewrites the goldens.
func TestGolden(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			got := oracleOutput(t, sc)
			goldenPath := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", goldenPath)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/conformance -run TestGolden -update` to create it)", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch:\n%s", diffText(string(want), got))
			}
		})
	}
}

// TestDifferential requires every translation mode to reproduce the
// oracle's notification log exactly, statement-by-statement and batched,
// with actions delivered inline (sync) and through the async worker pool
// (with the per-unit Drain barrier the runner inserts).
func TestDifferential(t *testing.T) {
	modes := []core.Mode{core.ModeUngrouped, core.ModeGrouped}
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			// The oracle depends only on the execution style's batching,
			// not on how actions are delivered: compute it once per style.
			oracles := map[bool]string{}
			for _, batched := range []bool{false, true} {
				oracle, err := Run(sc, core.ModeMaterialized, batched)
				if err != nil {
					t.Fatalf("oracle batched=%v: %v", batched, err)
				}
				if !strings.Contains(oracle, "notify ") {
					t.Errorf("batched=%v: oracle fired no notifications; scenario exercises nothing", batched)
				}
				oracles[batched] = oracle
			}
			for _, opts := range []RunOpts{
				{Batched: false}, {Batched: true},
				{Batched: false, Async: true}, {Batched: true, Async: true},
				{Batched: false, Async: true, Replayed: true},
				{Batched: true, Async: true, Replayed: true},
			} {
				style := "single"
				if opts.Batched {
					style = "batched"
				}
				if opts.Async {
					style += "+async"
				}
				if opts.Replayed {
					style += "+replayed"
				}
				oracle := oracles[opts.Batched]
				for _, mode := range modes {
					got, err := RunStyle(sc, mode, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", mode, style, err)
					}
					if got != oracle {
						t.Errorf("%s/%s diverges from oracle:\n%s", mode, style, diffText(oracle, got))
					}
				}
			}
		})
	}
}

// TestGoldenAsync runs the oracle with async action dispatch and requires
// the log to be byte-identical to the committed (synchronous) golden
// files: the per-unit Drain barrier must fully mask the worker pool.
func TestGoldenAsync(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			single, err := RunStyle(sc, core.ModeMaterialized, RunOpts{Async: true})
			if err != nil {
				t.Fatalf("async single: %v", err)
			}
			batched, err := RunStyle(sc, core.ModeMaterialized, RunOpts{Batched: true, Async: true})
			if err != nil {
				t.Fatalf("async batched: %v", err)
			}
			got := "== single ==\n" + single + "== batched ==\n" + batched
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("async output diverges from sync golden:\n%s", diffText(string(want), got))
			}
		})
	}
}

// TestGoldenReplayed runs the oracle with async dispatch and the durable
// outbox, building the notification log from the segment files through
// the wire codec (the replayed-sink path), and requires it to be
// byte-identical to the committed synchronous goldens: serialization,
// the log, and replay ordering must lose nothing the action contract
// exposes.
func TestGoldenReplayed(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		name := scenarioName(path)
		t.Run(name, func(t *testing.T) {
			sc, err := ParseFile(path, name)
			if err != nil {
				t.Fatal(err)
			}
			single, err := RunStyle(sc, core.ModeMaterialized, RunOpts{Async: true, Replayed: true})
			if err != nil {
				t.Fatalf("replayed single: %v", err)
			}
			batched, err := RunStyle(sc, core.ModeMaterialized, RunOpts{Batched: true, Async: true, Replayed: true})
			if err != nil {
				t.Fatalf("replayed batched: %v", err)
			}
			got := "== single ==\n" + single + "== batched ==\n" + batched
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("replayed-sink output diverges from sync golden:\n%s", diffText(string(want), got))
			}
		})
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
