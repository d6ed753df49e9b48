package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
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

	// update writes what it can read back: the same bytes.
	var back snapshot
	if err := json.Unmarshal(flat.encode(), &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.encode(), flat.encode()) {
		t.Errorf("snapshot does not round-trip:\n%s\n%s", flat.encode(), back.encode())
	}
}
