// Package trigger implements the XML trigger specification language of the
// paper (Section 2.2, after Bonifati et al.):
//
//	CREATE TRIGGER Name AFTER Event ON Path WHERE Condition DO Action
//
// Event is INSERT, UPDATE, or DELETE; Path is an XPath over a registered
// view; Condition is a boolean XQuery expression over OLD_NODE/NEW_NODE;
// Action is a call to a registered external function whose parameters are
// XQuery expressions (OLD_NODE and NEW_NODE are bound per Section 2.2:
// INSERT triggers may use only NEW_NODE, DELETE only OLD_NODE).
package trigger

import (
	"fmt"
	"strconv"
	"strings"

	"quark/internal/reldb"
	"quark/internal/xquery"
)

// Spec is a parsed XML trigger definition.
type Spec struct {
	Name       string
	Event      reldb.Event
	ViewName   string
	PathSteps  []xquery.Step // steps after view('name')
	Condition  xquery.Expr   // nil when absent
	ActionFn   string
	ActionArgs []xquery.Expr
	Source     string
}

// Parse parses a CREATE TRIGGER statement.
func Parse(src string) (*Spec, error) {
	lx := xquery.NewLexer(src)
	next := func() (xquery.Token, error) { return lx.Next() }
	expectKw := func(kw string) error {
		t, err := next()
		if err != nil {
			return err
		}
		if t.Kind != xquery.TokIdent || !strings.EqualFold(t.Text, kw) {
			return fmt.Errorf("trigger: expected %q, found %s", kw, t)
		}
		return nil
	}
	if err := expectKw("CREATE"); err != nil {
		return nil, err
	}
	if err := expectKw("TRIGGER"); err != nil {
		return nil, err
	}
	nameTok, err := next()
	if err != nil {
		return nil, err
	}
	if nameTok.Kind != xquery.TokIdent {
		return nil, fmt.Errorf("trigger: expected trigger name, found %s", nameTok)
	}
	if err := expectKw("AFTER"); err != nil {
		return nil, err
	}
	evTok, err := next()
	if err != nil {
		return nil, err
	}
	var ev reldb.Event
	switch strings.ToUpper(evTok.Text) {
	case "INSERT":
		ev = reldb.EvInsert
	case "UPDATE":
		ev = reldb.EvUpdate
	case "DELETE":
		ev = reldb.EvDelete
	default:
		return nil, fmt.Errorf("trigger: unknown event %q (want INSERT, UPDATE, or DELETE)", evTok.Text)
	}
	if err := expectKw("ON"); err != nil {
		return nil, err
	}

	// Parse the path, condition, and action with the expression parser.
	tok, err := next()
	if err != nil {
		return nil, err
	}
	p := xquery.NewParserAt(lx, tok)
	pathExpr, err := p.ParseExprPublic()
	if err != nil {
		return nil, fmt.Errorf("trigger: bad Path: %w", err)
	}
	spec := &Spec{Name: nameTok.Text, Event: ev, Source: src}
	switch pe := pathExpr.(type) {
	case *xquery.ViewRef:
		spec.ViewName = pe.Name
	case *xquery.Path:
		vr, ok := pe.Base.(*xquery.ViewRef)
		if !ok {
			return nil, fmt.Errorf("trigger: Path must start at view('name')")
		}
		spec.ViewName = vr.Name
		spec.PathSteps = pe.Steps
	default:
		return nil, fmt.Errorf("trigger: Path must be an XPath over a view, got %s", xquery.String(pathExpr))
	}

	// Optional WHERE.
	cur := p.Current()
	if cur.Kind == xquery.TokIdent && strings.EqualFold(cur.Text, "WHERE") {
		// Advance past WHERE and parse the condition.
		tok2, err := lx.Next()
		if err != nil {
			return nil, err
		}
		p = xquery.NewParserAt(lx, tok2)
		cond, err := p.ParseExprPublic()
		if err != nil {
			return nil, fmt.Errorf("trigger: bad Condition: %w", err)
		}
		spec.Condition = cond
		cur = p.Current()
	}

	// DO action.
	if cur.Kind != xquery.TokIdent || !strings.EqualFold(cur.Text, "DO") {
		return nil, fmt.Errorf("trigger: expected DO, found %s", cur)
	}
	tok3, err := lx.Next()
	if err != nil {
		return nil, err
	}
	p = xquery.NewParserAt(lx, tok3)
	actionExpr, err := p.ParseExprPublic()
	if err != nil {
		return nil, fmt.Errorf("trigger: bad Action: %w", err)
	}
	fn, ok := actionExpr.(*xquery.FnCall)
	if !ok {
		return nil, fmt.Errorf("trigger: Action must be a function call, got %s", xquery.String(actionExpr))
	}
	spec.ActionFn = fn.Name
	spec.ActionArgs = fn.Args
	if p.Current().Kind != xquery.TokEOF {
		return nil, fmt.Errorf("trigger: trailing input after action: %s", p.Current())
	}

	// Event/node-variable consistency (Section 2.2): INSERT triggers may
	// reference only NEW_NODE, DELETE only OLD_NODE.
	check := func(e xquery.Expr, what string) error {
		var bad *xquery.NodeRef
		xquery.Walk(e, func(x xquery.Expr) bool {
			if nr, ok := x.(*xquery.NodeRef); ok && ev != reldb.EvUpdate && nr.Old == (ev == reldb.EvInsert) {
				bad = nr
			}
			return bad == nil
		})
		if bad != nil {
			return fmt.Errorf("trigger: %s in an %s trigger (%s)", xquery.String(bad), ev, what)
		}
		return nil
	}
	if err := check(spec.Condition, "condition"); err != nil {
		return nil, err
	}
	for _, a := range spec.ActionArgs {
		if err := check(a, "action"); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// PathString renders the trigger's path for diagnostics.
func (s *Spec) PathString() string { return string(s.AppendPath(nil)) }

// AppendPath appends PathString's text to b.
func (s *Spec) AppendPath(b []byte) []byte {
	b = append(b, "view("...)
	b = strconv.AppendQuote(b, s.ViewName)
	b = append(b, ')')
	for _, st := range s.PathSteps {
		b = st.Append(b)
	}
	return b
}
