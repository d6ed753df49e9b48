package xdm

import (
	"strings"
	"testing"
	"time"
)

// TestParseNestingIsBounded: Parse recurses once per nesting level and its
// input arrives from outside (SQL text, through sqlshim's xml_parse), so it
// must refuse deep input instead of overflowing the stack. Three million
// levels (21 MB) killed the test binary before the bound; 256 levels parse.
func TestParseNestingIsBounded(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("<a>", n) + strings.Repeat("</a>", n) }
	n, err := Parse(nest(maxParseDepth))
	if err != nil {
		t.Fatalf("%d levels: %v", maxParseDepth, err)
	}
	if got := len(n.Descendants("a", nil)); got != maxParseDepth-1 {
		t.Errorf("descendants = %d, want %d", got, maxParseDepth-1)
	}
	// The bound is on depth, not on how many elements were opened and closed.
	if _, err := Parse("<r>" + strings.Repeat(nest(maxParseDepth-1), 3) + "</r>"); err != nil {
		t.Errorf("three siblings of %d levels under a root: %v", maxParseDepth-1, err)
	}
	start := time.Now()
	for _, levels := range []int{maxParseDepth + 1, 3_000_000} {
		_, err := Parse(nest(levels))
		if err == nil || !strings.Contains(err.Error(), "deeper than 256 levels") {
			t.Errorf("%d levels: err = %.120v, want the nesting-limit error", levels, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("refusing deep input took %v", d)
	}
}

// FuzzParse: Parse never panics, and what it accepts reaches a fixed point
// after one round trip — Serialize(Parse(s)) parses, and parses back to
// itself. (The first trip may normalise: attribute order, dropped blank
// text, entity spelling, invalid UTF-8.)
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		catalogFixture().Serialize(false),
		`<a x="1&amp;2" b='q"r'><b/>t&lt;u &gt; v</a>`,
		`<a> <b> x </b> </a>`,
		"<a z='1' y='2' z='3'>\xff&amp;lt;</a>",
		strings.Repeat("<a>", 300),
		"", "<", "<a", "<a x", "<a x=", `<a x="`, "<a></b>", "<a/><b/>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := Parse(s)
		if err != nil {
			return
		}
		once := n.Serialize(false)
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("Serialize(Parse(%q)) = %q does not parse: %v", s, once, err)
		}
		if twice := back.Serialize(false); twice != once {
			t.Fatalf("Parse(%q): round trips to %q, then to %q", s, once, twice)
		}
	})
}
