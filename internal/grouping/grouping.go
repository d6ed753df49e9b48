// Package grouping implements scalable trigger grouping (paper Section
// 5.1): structurally similar XML triggers — identical except for the
// constant values in their conditions — share a single SQL trigger. Each
// group holds a constants table with a TrigIDs column; selections on
// constants are converted into joins with the constants table, and residual
// (possibly nested) condition parts are evaluated per (row, constants-row)
// pair, which is the decorrelated form of the paper's correlated G_grouped
// graph (Figures 14-15).
package grouping

import (
	"fmt"
	"sort"
	"strings"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// ConstRef is a placeholder expression referencing the j-th constant of a
// trigger's condition. Conditions are written against the affected-node
// graph's output with ConstRef leaves; Bind or BuildGroupedPlan replaces
// them before evaluation.
type ConstRef struct {
	Idx int
}

// Eval implements xqgm.Expr; a ConstRef must be rewritten away before
// evaluation.
func (c *ConstRef) Eval(*xqgm.Env) (xdm.Value, error) {
	return xdm.Null, fmt.Errorf("grouping: unbound constant reference ?%d", c.Idx)
}

func (c *ConstRef) String() string { return fmt.Sprintf("?%d", c.Idx) }

// Bind substitutes literal values for the ConstRef placeholders in a
// condition template (the UNGROUPED path: one plan per trigger).
func Bind(template xqgm.Expr, consts []xdm.Value) xqgm.Expr {
	return xqgm.RewriteExpr(template, func(e xqgm.Expr) xqgm.Expr {
		if cr, ok := e.(*ConstRef); ok {
			if cr.Idx < len(consts) {
				return xqgm.LitOf(consts[cr.Idx])
			}
		}
		return e
	})
}

// Signature produces the structural signature used to group triggers: the
// condition template rendered with placeholders, so triggers differing only
// in constants collide. Callers prepend view/path/event identifiers.
func Signature(template xqgm.Expr) string {
	if template == nil {
		return "<nil>"
	}
	return template.String()
}

// Member is one XML trigger inside a group.
type Member struct {
	TrigID string
	Consts []xdm.Value
}

// Group is a set of structurally similar triggers sharing one plan.
type Group struct {
	signature string
	template  xqgm.Expr
	numConsts int
	members   []Member
}

// NewGroup creates a group for the given condition template with numConsts
// constant placeholders.
func NewGroup(signature string, template xqgm.Expr, numConsts int) *Group {
	return &Group{signature: signature, template: template, numConsts: numConsts}
}

// Signature returns the group's structural signature.
func (g *Group) Signature() string { return g.signature }

// Template returns the shared condition template.
func (g *Group) Template() xqgm.Expr { return g.template }

// Size reports the number of member triggers.
func (g *Group) Size() int { return len(g.members) }

// Add registers a trigger with its constant values.
func (g *Group) Add(trigID string, consts []xdm.Value) error {
	if len(consts) != g.numConsts {
		return fmt.Errorf("grouping: trigger %s has %d constants, group expects %d", trigID, len(consts), g.numConsts)
	}
	g.members = append(g.members, Member{TrigID: trigID, Consts: consts})
	return nil
}

// Remove drops a trigger from the group; reports whether it was present.
func (g *Group) Remove(trigID string) bool {
	for i, m := range g.members {
		if m.TrigID == trigID {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return true
		}
	}
	return false
}

// ConstantsTable builds the group's constants table operator (paper
// Section 5.1): one row per distinct constant combination, with a TrigIDs
// column listing the member triggers sharing it (comma-separated, sorted).
func (g *Group) ConstantsTable() *xqgm.Operator {
	type combo struct {
		key    string
		consts []xdm.Value
		ids    []string
	}
	byKey := map[string]*combo{}
	var order []string
	for _, m := range g.members {
		k := xdm.TupleKey(m.Consts)
		c, ok := byKey[k]
		if !ok {
			c = &combo{key: k, consts: m.Consts}
			byKey[k] = c
			order = append(order, k)
		}
		c.ids = append(c.ids, m.TrigID)
	}
	sort.Strings(order)
	names := make([]string, 1+g.numConsts)
	names[0] = "TrigIDs"
	for j := 0; j < g.numConsts; j++ {
		names[j+1] = fmt.Sprintf("Const%d", j+1)
	}
	rows := make([][]xqgm.Expr, 0, len(order))
	for _, k := range order {
		c := byKey[k]
		sort.Strings(c.ids)
		row := make([]xqgm.Expr, 1+g.numConsts)
		row[0] = xqgm.LitOf(xdm.Str(strings.Join(c.ids, ",")))
		for j, v := range c.consts {
			row[j+1] = xqgm.LitOf(v)
		}
		rows = append(rows, row)
	}
	return xqgm.NewConstants(names, rows)
}

// SplitTriggerIDs parses a TrigIDs column value back into trigger IDs.
func SplitTriggerIDs(v xdm.Value) []string {
	s := v.AsString()
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// GroupedPlan is the shared plan for a trigger group: the affected-node
// graph joined with the constants table. Output columns are the ANGraph's
// columns followed by the constants table's columns (TrigIDs first).
type GroupedPlan struct {
	Root       *xqgm.Operator
	TrigIDsCol int // output position of the TrigIDs column
	ConstBase  int // output position of Const1
}

// BuildGroupedPlan converts the per-trigger Select(condition-with-constants)
// into a join with the group's constants table (paper Figure 14), keeping
// any non-equality condition parts as a residual join predicate evaluated
// per (affected-node row, constants row) — the decorrelated equivalent of
// the correlated G_grouped graph of Figure 15, correct for arbitrarily
// nested conditions because the residual is evaluated per constant
// combination.
//
// anRoot is the affected-node graph; template is the condition with
// ConstRef placeholders, written over anRoot's output columns (input 0).
func BuildGroupedPlan(g *Group, anRoot *xqgm.Operator) *GroupedPlan {
	consts := g.ConstantsTable()
	anW := anRoot.OutWidth()

	// Split the template conjunction into hash-joinable equalities
	// (column = constant) and a residual.
	var on []xqgm.JoinEq
	var residual []xqgm.Expr
	for _, conj := range xqgm.Conjuncts(g.template) {
		if l, r, ok := matchEqConst(conj); ok {
			on = append(on, xqgm.JoinEq{L: l, R: 1 + r}) // +1: TrigIDs col
			continue
		}
		if conj != nil {
			residual = append(residual, rewriteForJoin(conj))
		}
	}
	var resid xqgm.Expr
	if len(residual) == 1 {
		resid = residual[0]
	} else if len(residual) > 1 {
		resid = &xqgm.Logic{Op: "and", Args: residual}
	}
	join := xqgm.NewJoin(xqgm.JoinInner, anRoot, consts, on, resid)
	return &GroupedPlan{Root: join, TrigIDsCol: anW, ConstBase: anW + 1}
}

// matchEqConst recognizes Col(c) = ConstRef(j) (either operand order) and
// returns (c, j). Only top-level scalar equalities are joinable; anything
// else stays in the residual.
func matchEqConst(e xqgm.Expr) (int, int, bool) {
	cmp, ok := e.(*xqgm.Cmp)
	if !ok || cmp.Op != "=" {
		return 0, 0, false
	}
	if c, ok := cmp.L.(*xqgm.ColRef); ok && c.Input == 0 {
		if k, ok := cmp.R.(*ConstRef); ok {
			return c.Col, k.Idx, true
		}
	}
	if c, ok := cmp.R.(*xqgm.ColRef); ok && c.Input == 0 {
		if k, ok := cmp.L.(*ConstRef); ok {
			return c.Col, k.Idx, true
		}
	}
	return 0, 0, false
}

// rewriteForJoin converts a condition term into a join predicate: ConstRef
// placeholders become references to the constants-table side (input 1),
// while column references to the affected-node side stay on input 0.
func rewriteForJoin(e xqgm.Expr) xqgm.Expr {
	return xqgm.RewriteExpr(e, func(x xqgm.Expr) xqgm.Expr {
		if cr, ok := x.(*ConstRef); ok {
			return &xqgm.ColRef{Input: 1, Col: 1 + cr.Idx}
		}
		return x
	})
}
