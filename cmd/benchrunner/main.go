// Command benchrunner measures the paper's evaluation: the parameter sweeps
// over the Table 2 workload (§6 Figures 17-18, Appendix G Figures 22-24),
// trigger compile time, the materialize-and-diff ablation, the
// rendered-SQL shadow tax, and the shard sweep. A figure is a row of the
// registry in figures.go and one loop measures them all: every point is R
// repeats of U updates after a warm-up, recorded as median / p10 /
// p90 ns per update plus allocations and bytes per update. The committed
// BENCH_<fig>.json snapshots follow the regresql lifecycle:
//
//	benchrunner [flags] run [fig...]     measure and print
//	benchrunner [flags] update [fig...]  measure and rewrite BENCH_<fig>.json
//	benchrunner [flags] test [fig...]    measure and compare with BENCH_<fig>.json
//
// No figure named means all of them. test judges what another machine can:
// allocations per update against the snapshot (2 %, the bound BENCHMARK.json
// puts on counts) and each figure's shape, a ratio between points of one run
// that states the paper's claim, in time or in allocations; a time shape
// missed by less than the run's own p10-p90 spread is reported unresolved
// and does not fail. Times are printed beside the recorded ones and never
// gate: bench/ judges those.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

var scaleFlag = flag.Float64("scale", 0.25, "multiplies data size, trigger population and updates per point (1 = paper scale)")

const (
	repeats     = 5    // R: timed blocks per point
	warmUps     = 3    // untimed ops before the first block
	allocsBound = 0.02 // relative growth of allocations per update that fails test
)

// point is one (series, x) of a figure.
type point struct {
	Series string  `json:"series"`
	X      int     `json:"x"`
	Median float64 `json:"ns_per_update_median"`
	P10    float64 `json:"ns_per_update_p10"`
	P90    float64 `json:"ns_per_update_p90"`
	Allocs float64 `json:"allocs_per_update"`
	Bytes  float64 `json:"bytes_per_update"`
}

// snapshot is one figure's run: what it takes to repeat it, and its points.
type snapshot struct {
	Fig        string  `json:"fig"`
	Axis       string  `json:"axis"`
	Scale      float64 `json:"scale"`
	Repeats    int     `json:"repeats"`
	Updates    int     `json:"updates"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Points     []point `json:"points"`
}

func (s *snapshot) encode() []byte {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // a struct of numbers and strings
	}
	return append(buf, '\n')
}

// runFigure measures every point of f. The series of one x are built
// together and their repeats interleaved.
func runFigure(f *figure, scale float64, repeats int) (*snapshot, error) {
	s := &snapshot{
		Fig: f.name, Axis: f.axis, Scale: scale, Repeats: repeats, Updates: max(2, int(float64(f.updates)*scale)),
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	fmt.Printf("\n%s  %s\n  scale %g, %d x %d updates per point; ms per update: median [p10-p90]\n", f.name, f.title, scale, repeats, s.Updates)
	for _, x := range f.xs {
		pts, err := measureX(f, scale, x, repeats, s.Updates)
		if err != nil {
			return nil, fmt.Errorf("%s %s=%d: %w", f.name, f.axis, x, err)
		}
		for _, p := range pts {
			fmt.Printf("  %-13s %s=%-8d %9.3f [%.3f-%.3f] %10.1f allocs %11.0f B\n", p.Series, f.axis, p.X, p.Median/1e6, p.P10/1e6, p.P90/1e6, p.Allocs, p.Bytes)
		}
		s.Points = append(s.Points, pts...)
	}
	return s, nil
}

func measureX(f *figure, scale float64, x, repeats, updates int) (pts []point, err error) {
	type system struct {
		*bench
		series         string
		ns             []float64
		mallocs, bytes uint64
		fired0         int
	}
	var systems []*system
	defer func() {
		for _, s := range systems {
			if s.close == nil {
				continue
			}
			if cerr := s.close(); cerr != nil && err == nil {
				pts, err = nil, fmt.Errorf("%s: %w", s.series, cerr)
			}
		}
	}()
	for _, series := range f.series {
		b, err := f.build(scale, x, series)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", series, err)
		}
		if b == nil {
			continue
		}
		b.per = max(1, b.per)
		s := &system{bench: b, series: series}
		systems = append(systems, s)
		for i := 0; i < warmUps; i++ {
			if err := b.op(); err != nil {
				return nil, fmt.Errorf("%s: %w", series, err)
			}
		}
		s.fired0 = b.fired()
	}
	var before, after runtime.MemStats
	for r := 0; r < repeats; r++ {
		for _, s := range systems {
			runtime.GC() // a block starts from a collected heap, or it pays for the one before it
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < updates; i++ {
				if err := s.op(); err != nil {
					return nil, fmt.Errorf("%s: %w", s.series, err)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			s.ns = append(s.ns, float64(elapsed.Nanoseconds())/float64(updates*s.per))
			s.mallocs += after.Mallocs - before.Mallocs
			s.bytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	for _, s := range systems {
		ops := repeats * updates
		if got := s.fired() - s.fired0; got != ops*s.want {
			return nil, fmt.Errorf("%s: %d notifications over %d ops, want %d per op", s.series, got, ops, s.want)
		}
		slices.Sort(s.ns)
		n := float64(ops * s.per)
		pts = append(pts, point{
			Series: s.series, X: x,
			Median: math.Round(quantile(s.ns, 0.5)), P10: math.Round(quantile(s.ns, 0.1)), P90: math.Round(quantile(s.ns, 0.9)),
			Allocs: math.Round(float64(s.mallocs)/n*10) / 10, Bytes: math.Round(float64(s.bytes) / n),
		})
	}
	return pts, nil
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// A shape is a claim about one run: the ratio of two points' ns per update
// stays at or under atMost, or at or over atLeast (exactly one is set). With
// allocs the ratio is of allocations per update, which repeat from run to
// run: a bound they miss fails.
type shape struct {
	claim           string
	num, den        ref
	atLeast, atMost float64
	allocs          bool
}

// ref names a point of a series by its x, or by one of the selectors below.
type ref struct {
	series string
	x      int
}

const (
	first   = -1 - iota // the series' first measured x
	last                // its last
	slowest             // its largest median
	fastest             // its smallest
)

func (r ref) find(pts []point) *point {
	var found *point
	for i := range pts {
		p := &pts[i]
		if p.Series != r.series {
			continue
		}
		switch {
		case found == nil && (r.x < 0 || r.x == p.X),
			r.x == last,
			r.x == slowest && p.Median > found.Median,
			r.x == fastest && p.Median < found.Median:
			found = p
		}
	}
	return found
}

type verdict int

const (
	pass verdict = iota
	unresolved
	fail
)

func (v verdict) String() string { return [...]string{"ok", "unresolved", "FAIL"}[v] }

// finding is one line of a figure's report; msg starts with the figure's name.
type finding struct {
	verdict
	msg string
}

// judgeShapes evaluates every shape f declares on the points of one run. A
// bound the medians miss fails only if the ratio most favourable to it within
// both points' p10-p90 misses it too; otherwise the run cannot tell.
func (f *figure) judgeShapes(pts []point) (out []finding) {
	for _, s := range f.shapes {
		num, den := s.num.find(pts), s.den.find(pts)
		if num == nil || den == nil {
			out = append(out, finding{fail, fmt.Sprintf("%s shape: %s: the run has no point %v or no point %v", f.name, s.claim, s.num, s.den)})
			continue
		}
		ratio := num.Median / den.Median
		op, bound, best := "<=", s.atMost, num.P10/den.P90
		if s.atLeast != 0 {
			op, bound, best = ">=", s.atLeast, num.P90/den.P10
		}
		what := fmt.Sprintf("(%.2f within the spread)", best)
		if s.allocs {
			ratio = num.Allocs / den.Allocs
			best, what = ratio, "in allocations per update"
		}
		missed, hopeless := ratio > bound, best > bound
		if s.atLeast != 0 {
			missed, hopeless = ratio < bound, best < bound
		}
		v := pass
		if hopeless {
			v = fail
		} else if missed {
			v = unresolved
		}
		out = append(out, finding{v, fmt.Sprintf("%s shape: %s: %s at %d / %s at %d = %.2f %s, want %s %g",
			f.name, s.claim, num.Series, num.X, den.Series, den.X, ratio, what, op, bound)})
	}
	return out
}

// compare judges run cur of f against the bytes of its committed snapshot:
// they must decode with no field this program does not write (anything else
// is a stale format, not comparable), the headers must agree, every point of
// either must be a point of both, allocations per update must not have grown
// past allocsBound, and the figure's shapes must hold on cur.
func compare(f *figure, snap []byte, cur *snapshot) (out []finding) {
	add := func(v verdict, format string, args ...any) {
		out = append(out, finding{v, f.name + " " + fmt.Sprintf(format, args...)})
	}
	dec := json.NewDecoder(bytes.NewReader(snap))
	dec.DisallowUnknownFields()
	base := new(snapshot)
	if err := dec.Decode(base); err != nil {
		add(fail, "snapshot: %v", err)
		return out
	}
	if base.Fig != cur.Fig || base.Scale != cur.Scale || base.Repeats != cur.Repeats || base.Updates != cur.Updates {
		add(fail, "snapshot is %s at scale %g with %d x %d updates, the run is at scale %g with %d x %d: pass the snapshot's -scale, or run update",
			base.Fig, base.Scale, base.Repeats, base.Updates, cur.Scale, cur.Repeats, cur.Updates)
		return out
	}
	if len(base.Points) == 0 {
		add(fail, "snapshot has no points")
	}
	seen := map[ref]bool{}
	for _, b := range base.Points {
		at := ref{b.Series, b.X}
		seen[at] = true
		c := at.find(cur.Points)
		if c == nil {
			add(fail, "%s %s=%d: in the snapshot, not produced by this run", b.Series, f.axis, b.X)
			continue
		}
		v := pass
		if c.Allocs > b.Allocs*(1+allocsBound) {
			v = fail
		}
		add(v, "%s %s=%d: %.1f allocs per update, recorded %.1f (bound +%g%%); %.3f ms, recorded %.3f",
			b.Series, f.axis, b.X, c.Allocs, b.Allocs, allocsBound*100, c.Median/1e6, b.Median/1e6)
	}
	for _, c := range cur.Points {
		if !seen[ref{c.Series, c.X}] {
			add(fail, "%s %s=%d: produced by this run, not in the snapshot: run update", c.Series, f.axis, c.X)
		}
	}
	return append(out, f.judgeShapes(cur.Points)...)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseArgs reads the arguments after the flags: the verb, then the figures
// to measure, every figure when none is named. It reports false for no verb,
// an unknown one, or a figure named that is not one (or named twice).
func parseArgs(args []string) (verb string, picked []*figure, ok bool) {
	if len(args) == 0 {
		return "", nil, false
	}
	verb, names := args[0], args[1:]
	for i := range figures {
		if f := &figures[i]; len(names) == 0 || slices.Contains(names, f.name) {
			picked = append(picked, f)
		}
	}
	ok = (verb == "run" || verb == "update" || verb == "test") && len(picked) >= len(names)
	return verb, picked, ok
}

func main() {
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), "usage: benchrunner [flags] run|update|test [fig...]\nfigures:")
		for _, f := range figures {
			fmt.Fprint(flag.CommandLine.Output(), " ", f.name)
		}
		fmt.Fprintln(flag.CommandLine.Output())
		flag.PrintDefaults()
	}
	flag.Parse()
	verb, picked, ok := parseArgs(flag.Args())
	if !ok {
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles := startProfiles()
	start := time.Now()
	var all []finding
	for _, f := range picked {
		cur, err := runFigure(f, *scaleFlag, repeats)
		check(err)
		path := fmt.Sprintf("BENCH_%s.json", f.name)
		findings := f.judgeShapes(cur.Points)
		switch verb {
		case "update":
			check(os.WriteFile(path, cur.encode(), 0o644))
			fmt.Printf("  wrote %s\n", path)
		case "test":
			snap, err := os.ReadFile(path)
			check(err)
			findings = compare(f, snap, cur)
		}
		for _, fd := range findings {
			fmt.Printf("  %-10s %s\n", fd.verdict, fd.msg)
		}
		all = append(all, findings...)
	}
	stopProfiles()
	if summarize(os.Stdout, fmt.Sprintf("%s: %d figure(s) in %s", verb, len(picked), time.Since(start).Round(time.Second)), all) > 0 {
		os.Exit(1)
	}
}

// summarize writes every finding that is not ok again, in the order they
// were reported, and then the summary line with the number of failures,
// which it returns: a log cut to its last lines still names the figure and
// the check that failed.
func summarize(w io.Writer, summary string, findings []finding) (failures int) {
	var notOK []finding
	for _, fd := range findings {
		if fd.verdict != pass {
			notOK = append(notOK, fd)
		}
		if fd.verdict == fail {
			failures++
		}
	}
	if len(notOK) > 0 {
		fmt.Fprintf(w, "\nnot ok (%d):\n", len(notOK))
		for _, fd := range notOK {
			fmt.Fprintf(w, "  %-10s %s\n", fd.verdict, fd.msg)
		}
	}
	fmt.Fprintf(w, "\n%s, %d failure(s)\n", summary, failures)
	return failures
}
