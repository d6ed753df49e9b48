package xquery

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestParseNestingIsBounded: hostile nesting returns an ordinary error
// naming the limit. Before the bound each of these recursed once per
// level; deep enough, the goroutine stack overflowed and the process died
// (a fatal error, not a recoverable panic). The operator chains parse in a
// loop but build a tree as deep as the chain, which String — called under
// the engine's metadata lock by CreateTrigger — then took quadratic time to
// render (19 s for 100,000 terms).
func TestParseNestingIsBounded(t *testing.T) {
	limit := fmt.Sprintf("deeper than %d levels", maxDepth)
	for name, src := range map[string]string{
		"parens":       strings.Repeat("(", 100_000) + "1" + strings.Repeat(")", 100_000),
		"open parens":  strings.Repeat("(", 4_000_000) + "1",
		"constructors": strings.Repeat("<a>{", 10_000) + "1" + strings.Repeat("}</a>", 10_000),
		"elements":     strings.Repeat("<a>", 10_000) + strings.Repeat("</a>", 10_000),
		"attributes":   strings.Repeat("<a b={", 10_000) + "1" + strings.Repeat("}/>", 10_000),
		"if":           strings.Repeat("if (1) then ", 10_000) + "1" + strings.Repeat(" else 1", 10_000),
		"predicates":   strings.Repeat("$x/a[", 10_000) + "1" + strings.Repeat("]", 10_000),
		"calls":        strings.Repeat("f(", 10_000) + "1" + strings.Repeat(")", 10_000),
		"flwor":        strings.Repeat("for $x in $y return ", 10_000) + "1",
		"add chain":    "1" + strings.Repeat("+1", 100_000),
		"mul chain":    "1" + strings.Repeat(" mod 1 * 1", 50_000),
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("%s: err = %.120v, want one naming the limit (%s)", name, err, limit)
		}
	}
	// Just inside the bound still parses.
	n := maxDepth - 1
	if _, err := Parse(strings.Repeat("(", n) + "1" + strings.Repeat(")", n)); err != nil {
		t.Errorf("%d nested parens: %v", n, err)
	}
	if _, err := Parse("1" + strings.Repeat("+1", n)); err != nil {
		t.Errorf("chain of %d operators: %v", n, err)
	}
	// What is accepted renders in time linear in its length, however wide.
	wide := strings.Repeat("("+strings.Repeat("'0123456789abcdef' + ", 200)+"1) or ", 400) + "1"
	e, err := Parse(wide)
	if err != nil {
		t.Fatalf("wide input: %v", err)
	}
	checkStringBudget(t, e, len(wide))
}

// checkStringBudget: String returns within a budget linear in the length of
// the source the AST was parsed from.
func checkStringBudget(t *testing.T, e Expr, srcLen int) {
	t.Helper()
	budget := 50*time.Millisecond + time.Duration(srcLen)*time.Microsecond
	start := time.Now()
	_ = String(e)
	if d := time.Since(start); d > budget {
		t.Errorf("String took %v on %d bytes of input, budget %v", d, srcLen, budget)
	}
}

// FuzzParse: the parser never panics and never hangs, and whatever it
// accepts renders through String without panicking, in linear time.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		catalogSrc,
		`$x/a[./b = 1]//c/@d`,
		`1 + 2 * -3 div 4 mod 5`,
		`some $v in $s satisfies $v/price < 10 and not($v/@x = 'a''b')`,
		`if (count($a) >= 2) then <a b="{$c}" d='e'>t{$f}<g/></a> else ()`,
		`(: comment :) for $x in view("v")/r let $y := $x/* where $y return $x`,
		`OLD_NODE/@name != NEW_NODE/@name`,
		`<a>`, `{`, `((((`, `'`, `$`, `<a b=`, `<a b={`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		checkStringBudget(t, e, len(src))
	})
}
