package trigger

import (
	"strings"
	"testing"
	"time"

	"quark/internal/xquery"
)

// TestParseNestingIsBounded: the embedded XQuery parser's nesting bound
// holds in every clause of the DDL (each is parsed by its own
// xquery.NewParserAt parser), so CreateTrigger cannot be made to overflow
// the stack.
func TestParseNestingIsBounded(t *testing.T) {
	deep := strings.Repeat("(", 100_000) + "1" + strings.Repeat(")", 100_000)
	chain := "1" + strings.Repeat("+1", 100_000)
	for name, src := range map[string]string{
		"path":            `CREATE TRIGGER T AFTER UPDATE ON view('v')/a[` + deep + `] DO f(NEW_NODE)`,
		"condition":       `CREATE TRIGGER T AFTER UPDATE ON view('v')/a WHERE ` + deep + ` DO f(NEW_NODE)`,
		"action":          `CREATE TRIGGER T AFTER UPDATE ON view('v')/a DO f(` + deep + `)`,
		"condition chain": `CREATE TRIGGER T AFTER UPDATE ON view('v')/a WHERE ` + chain + ` > 1 DO f(NEW_NODE)`,
		"action chain":    `CREATE TRIGGER T AFTER UPDATE ON view('v')/a DO f(` + chain + `)`,
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "deeper than") {
			t.Errorf("%s: err = %.120v, want the nesting-limit error", name, err)
		}
	}
}

// FuzzParse: the DDL parser never panics and never hangs, and whatever it
// accepts renders (path, condition, action arguments) without panicking,
// within a budget linear in the input's length.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`CREATE TRIGGER Notify AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`,
		`CREATE TRIGGER T AFTER INSERT ON view("v")//a DO f(NEW_NODE, 1, 'x')`,
		`create trigger t after delete on view('v')/a/b where count(OLD_NODE/c[./d < 2]) >= 2 do f(OLD_NODE/@k)`,
		`CREATE TRIGGER T AFTER UPDATE ON view('v')/a WHERE OLD_NODE/@x != NEW_NODE/@x DO f(OLD_NODE, NEW_NODE)`,
		`CREATE TRIGGER`, `CREATE TRIGGER T AFTER UPDATE ON 42 DO f(NEW_NODE)`, ``,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return
		}
		start := time.Now()
		_ = spec.PathString()
		if spec.Condition != nil {
			_ = xquery.String(spec.Condition)
		}
		for _, a := range spec.ActionArgs {
			_ = xquery.String(a)
		}
		budget := 50*time.Millisecond + time.Duration(len(src))*time.Microsecond
		if d := time.Since(start); d > budget {
			t.Errorf("rendering took %v on %d bytes of input, budget %v", d, len(src), budget)
		}
	})
}
