package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is started by
// TestNoArgumentsPrintsUsage.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHRUNNER_RUN_MAIN") == "1" {
		os.Args = os.Args[:1]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchrunner with no arguments prints its usage and exits 2, as it does for
// an unknown verb, instead of failing on the missing verb.
func TestNoArgumentsPrintsUsage(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BENCHRUNNER_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "usage: benchrunner") {
		t.Errorf("no arguments: %v, output:\n%s\nwant exit status 2 and the usage", err, out)
	}
}

func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		args   []string
		picked int // figures picked when ok
		ok     bool
	}{
		{nil, 0, false},
		{[]string{"run"}, len(figures), true},
		{[]string{"test", "fig17", "fig18"}, 2, true},
		{[]string{"measure"}, 0, false},
		{[]string{"run", "fig99"}, 0, false},
		{[]string{"update", "fig17", "fig17"}, 0, false},
	} {
		verb, picked, ok := parseArgs(c.args)
		if ok != c.ok || ok && (len(picked) != c.picked || verb != c.args[0]) {
			t.Errorf("parseArgs(%q) = %q, %d figures, %v; want %d figures, %v", c.args, verb, len(picked), ok, c.picked, c.ok)
		}
	}
}

// TestEveryFigureRuns executes every registry row end to end at the smallest
// scale. measureX itself fails a point whose ops did not deliver exactly
// min(NumSatisfied, NumTriggers) notifications each, so a figure that comes
// back is a figure that exercised the pipeline at every Table 2 value.
func TestEveryFigureRuns(t *testing.T) {
	const scale = 0.01 // trigger axes are capped at 400: fig17 and compile leave their larger x out
	left := map[string]int{"fig17": 6, "compile": 4}
	for i := range figures {
		f := &figures[i]
		s, err := runFigure(f, scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(f.xs)*len(f.series) - left[f.name]; len(s.Points) != want {
			t.Errorf("%s: %d points, want %d", f.name, len(s.Points), want)
		}
		seen := map[ref]bool{}
		for _, p := range s.Points {
			if at := (ref{p.Series, p.X}); seen[at] || p.Median <= 0 || p.Allocs <= 0 || p.Bytes <= 0 {
				t.Errorf("%s: repeated or empty point %+v", f.name, p)
			} else {
				seen[at] = true
			}
		}
		for _, fd := range f.judgeShapes(s.Points) {
			if strings.Contains(fd.msg, "has no point") {
				t.Errorf("%s", fd.msg) // a shape that names a point the figure does not produce
			}
		}
	}
}

// The compile figure's join shape fails on the points recorded while joining
// a group recompiled it (BENCH_compile.json before the constants table was
// a member store): 8,121.8 allocations per update at 10 members, 124,423.1
// at 10,000.
func TestCompileJoinShapeFailsWhereJoiningRecompiled(t *testing.T) {
	var f *figure
	for i := range figures {
		if figures[i].name == "compile" {
			f = &figures[i]
		}
	}
	recompiling := []point{
		{Series: "new", X: 10, Median: 1028165, P10: 762701, P90: 1363984, Allocs: 7505.4},
		{Series: "join", X: 10, Median: 676126, P10: 645337, P90: 858946, Allocs: 8121.8},
		{Series: "new", X: 1000, Median: 1079935, P10: 888984, P90: 1665773, Allocs: 7505},
		{Series: "join", X: 1000, Median: 3162623, P10: 2808562, P90: 3367972, Allocs: 30071.7},
		{Series: "new", X: 10000, Median: 1659187, P10: 1083148, P90: 2265378, Allocs: 7504.8},
		{Series: "join", X: 10000, Median: 23318526, P10: 18785086, P90: 25223270, Allocs: 124423.1},
	}
	failed := false
	for _, fd := range f.judgeShapes(recompiling) {
		if strings.Contains(fd.msg, "joining a group") {
			failed = fd.verdict == fail
			t.Log(fd.verdict, fd.msg)
		}
	}
	if !failed {
		t.Error("the join shape passes points where joining a group recompiles it")
	}
}

// The findings that are not ok are printed again just before the summary
// line, in the order they were reported, so the last lines of a long run's
// log name every figure and check that failed or could not tell.
func TestSummaryRepeatsWhatIsNotOK(t *testing.T) {
	findings := []finding{
		{pass, "fig17 UNGROUPED triggers=1: 800.0 allocs per update"},
		{fail, "fig18 GROUPED triggers=10: 900.0 allocs per update, recorded 800.0 (bound +2%)"},
	}
	for i := 0; i < 40; i++ {
		findings = append(findings, finding{pass, fmt.Sprintf("fig22 GROUPED depth=%d: ok", i)})
	}
	findings = append(findings, finding{unresolved, "fig23 shape: flat: GROUPED at 10 / GROUPED at 1 = 1.30 (1.10 within the spread), want <= 1.25"})
	var out bytes.Buffer
	if n := summarize(&out, "test: 3 figure(s) in 9s", findings); n != 1 {
		t.Errorf("summarize counted %d failures, want 1", n)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{
		"not ok (2):",
		"  FAIL       fig18 GROUPED triggers=10: 900.0 allocs per update, recorded 800.0 (bound +2%)",
		"  unresolved fig23 shape: flat: GROUPED at 10 / GROUPED at 1 = 1.30 (1.10 within the spread), want <= 1.25",
		"",
		"test: 3 figure(s) in 9s, 1 failure(s)",
	}
	if len(lines) < len(want) || !slices.Equal(lines[len(lines)-len(want):], want) {
		t.Errorf("summary ends\n%s\nwant it to end\n%s", out.String(), strings.Join(want, "\n"))
	}
	out.Reset()
	if n := summarize(&out, "run: 1 figure(s) in 1s", findings[:1]); n != 0 || out.String() != "\nrun: 1 figure(s) in 1s, 0 failure(s)\n" {
		t.Errorf("an all-ok summary = %q, %d failures; want the summary line alone", out.String(), n)
	}
}

// TestCompare feeds compare doctored snapshots of a hand-made run: nothing
// passes vacuously, and only a miss the spread cannot explain fails a shape.
func TestCompare(t *testing.T) {
	f := &figure{name: "figX", axis: "n", shapes: []shape{
		{claim: "flat", num: ref{"A", last}, den: ref{"A", first}, atMost: 2},
	}}
	run := func(lastMedian, lastP10 float64) *snapshot {
		return &snapshot{Fig: "figX", Axis: "n", Scale: 0.25, Repeats: 5, Updates: 100, GoVersion: "go1.24.0", Points: []point{
			{Series: "A", X: 1, Median: 100, P10: 90, P90: 110, Allocs: 800, Bytes: 1e5},
			{Series: "A", X: 10, Median: lastMedian, P10: lastP10, P90: lastMedian * 1.1, Allocs: 800, Bytes: 1e5},
		}}
	}
	flat := run(150, 140)
	doctor := func(edit func(*snapshot)) []byte {
		s := run(150, 140)
		edit(s)
		return s.encode()
	}
	for _, c := range []struct {
		name string
		snap []byte
		cur  *snapshot
		want verdict // the worst finding
		in   string  // and what its message names
	}{
		{"same", flat.encode(), flat, pass, ""},
		{"allocations recorded 10% lower", doctor(func(s *snapshot) { s.Points[1].Allocs = 720 }), flat, fail, "figX A n=10: 800.0 allocs per update, recorded 720.0"},
		{"allocations inside the bound", doctor(func(s *snapshot) { s.Points[1].Allocs = 790 }), flat, pass, ""},
		{"times recorded 1000x lower", doctor(func(s *snapshot) { s.Points[1].Median = 0.15 }), flat, pass, ""},
		{"shape missed beyond the spread", flat.encode(), run(300, 250), fail, "figX shape: flat: A at 10 / A at 1 = 3.00"},
		{"shape missed within the spread", flat.encode(), run(210, 190), unresolved, "figX shape: flat"},
		{"point the run did not produce", doctor(func(s *snapshot) { s.Points = append(s.Points, point{Series: "B", X: 1}) }), flat, fail, "figX B n=1: in the snapshot, not produced"},
		{"point the snapshot lacks", doctor(func(s *snapshot) { s.Points = s.Points[:1] }), flat, fail, "figX A n=10: produced by this run, not in the snapshot"},
		{"no points", doctor(func(s *snapshot) { s.Points = nil }), flat, fail, "no points"},
		{"another scale", doctor(func(s *snapshot) { s.Scale = 1 }), flat, fail, "pass the snapshot's -scale"},
		{"a metric compare does not know", bytes.Replace(flat.encode(), []byte(`"x": 10,`), []byte(`"x": 10, "updates_per_sec": 9,`), 1), flat, fail, `unknown field "updates_per_sec"`},
		{"the old series format", []byte(`{"fig":"figX","scale":0.25,"series":[{"label":"A","points":[{"x":1,"ms_per_update":0.1}]}]}`), flat, fail, `unknown field "series"`},
	} {
		worst := finding{}
		for _, fd := range compare(f, c.snap, c.cur) {
			if fd.verdict > worst.verdict {
				worst = fd
			}
		}
		if worst.verdict != c.want || !strings.Contains(worst.msg, c.in) {
			t.Errorf("%s: worst finding %s %q, want %s naming %q", c.name, worst.verdict, worst.msg, c.want, c.in)
		}
	}

	// An allocation shape has no spread to hide in: a miss fails.
	fa := &figure{name: "figX", axis: "n", shapes: []shape{
		{claim: "flat", num: ref{"A", last}, den: ref{"A", first}, atMost: 1.25, allocs: true},
	}}
	grown := run(150, 140)
	grown.Points[1].Allocs = 1100
	for _, c := range []struct {
		cur  *snapshot
		want verdict
	}{{flat, pass}, {grown, fail}} {
		if fd := fa.judgeShapes(c.cur.Points)[0]; fd.verdict != c.want || !strings.Contains(fd.msg, "in allocations per update") {
			t.Errorf("allocation shape on %v allocations: %s %q, want %s", c.cur.Points[1].Allocs, fd.verdict, fd.msg, c.want)
		}
	}

	// update writes what it can read back: the same bytes.
	var back snapshot
	if err := json.Unmarshal(flat.encode(), &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.encode(), flat.encode()) {
		t.Errorf("snapshot does not round-trip:\n%s\n%s", flat.encode(), back.encode())
	}
}
