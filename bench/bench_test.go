package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the code's
// catalogue (names, units, directions, bounds, workloads) from drifting.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if !strings.HasPrefix(d.name, d.layer+".") {
			t.Errorf("per-layer metric %s is not named after its layer %q", d.name, d.layer)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
}

func smokeConfig(t *testing.T) config {
	return config{seed: 1, seconds: 0.9, setupRuns: 0, windows: 6, scaleDiv: 8, traceDir: t.TempDir()}
}

// TestSmoke runs the whole suite with -smoke's shape and requires every
// metric and workload BENCHMARK.json names exactly once per workload, finite
// and non-negative, with no failed op and no violated invariant.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	t.Setenv("TMPDIR", t.TempDir()) // a leaked outbox dir would fail the temp dir's cleanup check below
	cfg := smokeConfig(t)
	d, err := suite(specs, cfg, "both")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(bj.Workloads) {
		t.Fatalf("suite reported %d workloads, BENCHMARK.json names %d", len(d.Workloads), len(bj.Workloads))
	}
	for i, r := range d.Workloads {
		if r.Workload != bj.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json names %q", i, r.Workload, bj.Workloads[i].Name)
		}
		if r.Failed != 0 || r.Attempted == 0 || len(r.Problems) != 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", r.Workload, r.Attempted, r.Failed, r.Problems)
		}
		check := func(kind string, got map[string]float64, names []string) {
			if len(got) != len(names) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json names %d", r.Workload, len(got), kind, len(names))
			}
			for _, name := range names {
				v, ok := got[name]
				if !ok {
					t.Errorf("%s: %s metric %s was not emitted", r.Workload, kind, name)
				} else if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 && name != "obs.overhead_frac" {
					// obs.overhead_frac is a difference of two noisy rates
					// and may dip below zero; every other metric may not.
					t.Errorf("%s: %s = %v", r.Workload, name, v)
				}
			}
		}
		var e2e, layer []string
		for _, m := range bj.EndToEnd {
			e2e = append(e2e, m.Name)
		}
		for _, m := range bj.PerLayer {
			layer = append(layer, m.Name)
		}
		check("end-to-end", r.EndToEnd, e2e)
		check("per-layer", r.PerLayer, layer)
		for _, name := range e2e {
			if r.EndToEnd[name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", r.Workload, name)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.traceDir, "trace-"+r.Workload+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", r.Workload, err)
		}

		// The table and the driver's result line carry each metric once.
		var table, line bytes.Buffer
		printTable(&table, &doc{Workloads: []*result{r}})
		for _, name := range append(e2e, layer...) {
			if n := strings.Count(table.String(), " "+name+" "); n != 1 {
				t.Errorf("%s: the table prints %s %d times", r.Workload, name, n)
			}
		}
		printResultLine(&line, &result{EndToEnd: r.EndToEnd, Attempted: r.Attempted}, true)
		var parsed struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line.Bytes(), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted != r.Attempted || len(parsed.Metrics) != len(e2e) {
			t.Errorf("%s: result line %s", r.Workload, line.String())
		}
	}
	if left, _ := filepath.Glob(filepath.Join(os.Getenv("TMPDIR"), "*")); len(left) != 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
}

// TestDeterminism: the same seed gives the same op stream, and with a fixed
// op count the engine's exact counters repeat to the last digit.
func TestDeterminism(t *testing.T) {
	for _, s := range specs {
		s = s.scaled(8)
		a, b, other := newGenerator(s, 7), newGenerator(s, 7), newGenerator(s, 8)
		same := true
		for i := 0; i < 500; i++ {
			oa, ob, oo := a.next(), b.next(), other.next()
			if !reflect.DeepEqual(oa, ob) {
				t.Fatalf("%s: op %d differs between two generators with the same seed:\n%+v\n%+v", s.name, i, oa, ob)
			}
			same = same && reflect.DeepEqual(oa, oo)
		}
		if same && s.name != "durable-delivery" { // its ops differ only in payload, which the seed does not drive
			t.Errorf("%s: seeds 7 and 8 gave the same 500 ops", s.name)
		}
	}

	exact := []string{"reldb.rows_read_per_op", "reldb.index_lookups_per_op", "reldb.full_scans_per_op", "core.fires_per_op", "core.actions_per_op"}
	for _, name := range []string{"paper-default", "batch-mixed", "durable-delivery"} {
		s := specByName(name).scaled(8)
		cfg := smokeConfig(t)
		cfg.fixedOps = 60
		var runs [2]*result
		for i := range runs {
			r, err := runTraced(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || len(r.Problems) != 0 {
				t.Fatalf("%s: failed %d, problems %v", name, r.Failed, r.Problems)
			}
			runs[i] = r
		}
		for _, m := range exact {
			if runs[0].PerLayer[m] != runs[1].PerLayer[m] {
				t.Errorf("%s: %s = %v then %v with the same seed and op count", name, m, runs[0].PerLayer[m], runs[1].PerLayer[m])
			}
		}
		if runs[0].PerLayer["core.fires_per_op"] == 0 {
			t.Errorf("%s: no trigger fired", name)
		}
	}
}

// TestCompare checks the verdicts -compare prints.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS, p50, spread float64) string {
		d := doc{Workloads: []*result{{
			Workload: "paper-default",
			EndToEnd: map[string]float64{"ops_per_s": opsPerS, "op_p50_us": p50},
			PerLayer: map[string]float64{"e2e.window_spread_frac": spread},
		}}}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 400, 0.01)
	var out bytes.Buffer
	if err := compareDocs(&out, base, write("slow.json", 700, 410, 0.01)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[1], "regressed") || !strings.HasSuffix(lines[2], "ok") {
		t.Errorf("slower throughput within-bound latency:\n%s", out.String())
	}
	if !strings.Contains(lines[1], "1000.0000") || !strings.Contains(lines[1], "0.7000") {
		t.Errorf("the ratio is not printed with its base:\n%s", lines[1])
	}
	out.Reset()
	if err := compareDocs(&out, base, write("noisy.json", 700, 410, 0.3)); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "unresolved") != 2 {
		t.Errorf("a window spread above the bound must read unresolved:\n%s", out.String())
	}
}
