// Command bench is the repository's benchmark: four closed-loop workloads
// measured end to end with tracing off, plus a traced run and isolated layer
// probes that say where the time went. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured time of one
// workload's run.
const defaultSeconds = 26

// doc is what -out writes and -compare reads.
type doc struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GOGC       int       `json:"gogc"`
	NProc      int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Smoke      bool      `json:"smoke,omitempty"`
	Workloads  []*result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload (default: all four)")
		seed         = fs.Int64("seed", 1, "seed of the op generator")
		seconds      = fs.Float64("seconds", defaultSeconds, "measured seconds per workload and run")
		trace        = fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics (traced run + layer probes); both")
		out          = fs.String("out", "", "also write every metric to this JSON file")
		smoke        = fs.Bool("smoke", false, "0.9 s per run on 1/8 of the data: a functional check, not a measurement")
		compare      = fs.String("compare", "", "print the end-to-end metrics of the JSON file given as argument as ratios over this baseline file")
		traceDir     = fs.String("tracedir", "bench/out", "directory for trace-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: bench -compare base.json new.json")
			return 2
		}
		if err := compareDocs(stdout, *compare, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	cfg := config{seed: *seed, seconds: *seconds, setupRuns: 5, windows: 52, scaleDiv: 1, traceDir: *traceDir}
	if *smoke {
		cfg.seconds, cfg.setupRuns, cfg.windows, cfg.scaleDiv = 0.9, 0, 6, 8
	}
	selected := specs
	if *workloadName != "" {
		s := specByName(*workloadName)
		if s == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*spec{s}
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(stderr, "bench: -trace must be 0, 1 or both, not %q\n", *trace)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	d, err := suite(selected, cfg, *trace)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	d.Smoke = *smoke
	printTable(stdout, d)
	if *out != "" {
		b, err := json.MarshalIndent(d, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	correct := true
	for _, r := range d.Workloads {
		for _, p := range r.Problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", r.Workload, p)
		}
		if r.Failed > 0 || len(r.Problems) > 0 {
			correct = false
		}
	}
	if len(d.Workloads) == 1 && *trace != "both" {
		printResultLine(stdout, d.Workloads[0], correct)
	}
	if !correct {
		return 1
	}
	return 0
}

// suite runs the selected workloads. The layer probes do not depend on the
// workload, so they run once and every traced workload reports them.
func suite(selected []*spec, cfg config, trace string) (*doc, error) {
	// One writer plus, on durable-delivery, two delivery workers: two
	// processors, or one where the box has no more.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	d := &doc{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		NProc: runtime.NumCPU(), Seed: cfg.seed, Seconds: cfg.seconds,
	}
	var layers map[string]float64
	for _, s := range selected {
		s = s.scaled(cfg.scaleDiv)
		r := &result{Workload: s.name}
		if trace != "1" {
			e, err := runEndToEnd(s, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			r = e
		}
		if trace != "0" {
			t, err := runTraced(s, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", s.name, err)
			}
			if layers == nil {
				if layers, err = runLayers(cfg); err != nil {
					return nil, fmt.Errorf("layer probes: %w", err)
				}
			}
			for k, v := range layers {
				t.PerLayer[k] = v
			}
			r.PerLayer = t.PerLayer
			r.Attempted += t.Attempted
			r.Failed += t.Failed
			r.Problems = append(r.Problems, t.Problems...)
			if r.Windows == 0 {
				r.Windows, r.Samples = t.Windows, t.Samples
			}
		}
		d.Workloads = append(d.Workloads, r)
		runtime.GC()
	}
	return d, nil
}

// emitted pairs the catalogue with a result's values, in catalogue order.
func emitted(r *result) (defs []metricDef, vals []float64) {
	for _, set := range []struct {
		defs []metricDef
		m    map[string]float64
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, def := range set.defs {
			if v, ok := set.m[def.name]; ok {
				defs = append(defs, def)
				vals = append(vals, v)
			}
		}
	}
	return defs, vals
}

// printTable prints one line per metric: workload name value unit.
func printTable(w io.Writer, d *doc) {
	fmt.Fprintf(w, "# %s GOMAXPROCS=%d GOGC=%d nproc=%d seed=%d seconds=%g\n",
		d.GoVersion, d.GOMAXPROCS, d.GOGC, d.NProc, d.Seed, d.Seconds)
	for _, r := range d.Workloads {
		defs, vals := emitted(r)
		for i, def := range defs {
			fmt.Fprintf(w, "%-17s %-32s %16.4f %s\n", r.Workload, def.name, vals[i], def.unit)
		}
		fmt.Fprintf(w, "%-17s %-32s %16d %s\n", r.Workload, "ops_attempted", r.Attempted, "count")
		fmt.Fprintf(w, "%-17s %-32s %16d %s\n", r.Workload, "ops_failed", r.Failed, "count")
		fmt.Fprintf(w, "%-17s %-32s %16d %s\n", r.Workload, "windows", r.Windows, "count")
		fmt.Fprintf(w, "%-17s %-32s %16d %s\n", r.Workload, "latency_samples_per_window", r.Samples, "count")
	}
}

// printResultLine prints the single-workload result the benchmark driver
// reads from the last line of standard output.
func printResultLine(w io.Writer, r *result, correct bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.Attempted, r.Failed, map[string]value{}}
	defs, vals := emitted(r)
	for i, def := range defs {
		line.Metrics[def.name] = value{vals[i], def.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only NaN or Inf can fail here, and that is a bug in the benchmark
	}
	fmt.Fprintf(w, "%s\n", b)
}

// compareDocs prints every end-to-end metric x workload of next as a ratio
// over base. A metric is "regressed" when it is worse than the base by more
// than its bound, and "unresolved" when either run's own window-to-window
// spread (e2e.window_spread_frac, present in runs made with tracing) is
// wider than the bound, so the bound cannot be resolved.
func compareDocs(w io.Writer, basePath, nextPath string) error {
	var base, next doc
	for path, d := range map[string]*doc{basePath: &base, nextPath: &next} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, d); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Fprintf(w, "%-17s %-20s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, b := range base.Workloads {
		for _, n := range next.Workloads {
			if n.Workload != b.Workload {
				continue
			}
			spread := math.Max(b.PerLayer["e2e.window_spread_frac"], n.PerLayer["e2e.window_spread_frac"])
			for _, def := range endToEnd {
				bv, ok1 := b.EndToEnd[def.name]
				nv, ok2 := n.EndToEnd[def.name]
				if !ok1 || !ok2 {
					continue
				}
				worse := nv/bv - 1
				if def.better == "higher" {
					worse = 1 - nv/bv
				}
				verdict := "ok"
				switch {
				case spread > def.bound:
					verdict = fmt.Sprintf("unresolved (window spread %.3f > bound %.2f)", spread, def.bound)
				case worse > def.bound:
					verdict = fmt.Sprintf("regressed (bound %.2f)", def.bound)
				}
				fmt.Fprintf(w, "%-17s %-20s %14.4f %14.4f %8.4f  %s\n", b.Workload, def.name, bv, nv, nv/bv, verdict)
			}
		}
	}
	return nil
}
