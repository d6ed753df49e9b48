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
	"slices"
	"sort"
	"sync"

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

// Member is one trigger of a group: its name and its constants, the
// condition's first and then any its action's arguments have.
type Member struct {
	Name   string
	Consts []xdm.Value
	seq    uint64 // the store's version it joined at
}

// Store is a group's membership and the constants table its grouped plan
// joins: a row per distinct combination of condition constants, TrigIDs —
// its members' names, sorted, comma-separated — then the constants, hashed
// on the columns the join probes. A member joins its row, which it adds if
// new, and leaves it, which goes with its last member: no plan changes. A
// reader (a firing resolving its rows' members, a rendering of the plan's
// SQL) holds the read lock throughout; Add and Remove take the write lock.
type Store struct {
	sync.RWMutex
	nCond  int
	names  []string // the table's columns: TrigIDs, Const1..
	tab    *xqgm.ConstTable
	combos [][]*Member // by row of tab: its members, by name
	// byConsts finds a row by its constants, byIDs by its TrigIDs.
	byConsts map[xdm.CompKey]int32
	byIDs    map[string]int32
	size     int
	version  uint64 // counts changes; a member joins at the version it makes
}

// NewStore returns an empty store for a group whose condition template has
// nCond constants.
func NewStore(template xqgm.Expr, nCond int) *Store {
	on, _ := split(template)
	cols := make([]int, len(on))
	for i, eq := range on {
		cols[i] = eq.R
	}
	names := []string{"TrigIDs"}
	for j := 1; j <= nCond; j++ {
		names = append(names, fmt.Sprintf("Const%d", j))
	}
	// Listed, as rendered SQL shows it, in the order of the constants.
	list := func(row xqgm.Tuple) string { return xdm.TupleKey(row[1:]) }
	return &Store{
		nCond: nCond, names: names, tab: xqgm.NewIndexedConstTable(cols, list),
		byConsts: map[xdm.CompKey]int32{}, byIDs: map[string]int32{},
	}
}

// Add registers m.
func (s *Store) Add(m *Member) error {
	if len(m.Consts) < s.nCond {
		return fmt.Errorf("grouping: trigger %s has %d constants, group expects %d", m.Name, len(m.Consts), s.nCond)
	}
	s.Lock()
	defer s.Unlock()
	s.version++
	m.seq = s.version
	k := xdm.RowKey(m.Consts[:s.nCond])
	i, ok := s.byConsts[k]
	if !ok {
		row := make(xqgm.Tuple, 1+s.nCond)
		copy(row[1:], m.Consts)
		i = int32(s.tab.Add(row))
		s.byConsts[k] = i
		s.combos = append(s.combos, nil)
	}
	ms := s.combos[i]
	at := sort.Search(len(ms), func(j int) bool { return ms[j].Name >= m.Name })
	s.combos[i] = slices.Insert(ms, at, m)
	s.relabel(i)
	s.size++
	return nil
}

// Remove unregisters m; it reports whether m was a member.
func (s *Store) Remove(m *Member) bool {
	s.Lock()
	defer s.Unlock()
	k := xdm.RowKey(m.Consts[:s.nCond])
	i, ok := s.byConsts[k]
	if !ok {
		return false
	}
	ms := s.combos[i]
	at := sort.Search(len(ms), func(j int) bool { return ms[j].Name >= m.Name })
	if at == len(ms) || ms[at] != m {
		return false
	}
	s.combos[i] = slices.Delete(ms, at, at+1)
	delete(s.byIDs, s.tab.Rows()[i][0].AsString())
	if len(s.combos[i]) > 0 {
		s.relabel(i)
	} else {
		// The last row moves into i's place.
		last := int32(len(s.combos) - 1)
		delete(s.byConsts, k)
		s.tab.Remove(int(i))
		s.combos[i], s.combos[last] = s.combos[last], nil
		s.combos = s.combos[:last]
		if i != last {
			row := s.tab.Rows()[i]
			s.byConsts[xdm.RowKey(row[1:])] = i
			s.byIDs[row[0].AsString()] = i
		}
	}
	s.size--
	s.version++
	return true
}

// relabel sets row i's TrigIDs from its members.
func (s *Store) relabel(i int32) {
	var b []byte
	for j, m := range s.combos[i] {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, m.Name...)
	}
	ids := string(b) // sized to fit: the row keeps it
	s.tab.Rows()[i][0] = xdm.Str(ids)
	s.byIDs[ids] = i
}

// RowMembers returns the members of the row whose TrigIDs is ids, by name.
// The caller holds the lock.
func (s *Store) RowMembers(ids xdm.Value) []*Member {
	if i, ok := s.byIDs[ids.AsString()]; ok {
		return s.combos[i]
	}
	return nil
}

// Members returns every member in the order they joined.
func (s *Store) Members() []*Member {
	out := make([]*Member, 0, s.size)
	for _, ms := range s.combos {
		out = append(out, ms...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Len reports the number of members.
func (s *Store) Len() int { return s.size }

// Version counts the changes to the membership.
func (s *Store) Version() uint64 { return s.version }

// BuildGroupedPlan converts the per-trigger Select(condition-with-constants)
// into a join with the group's constants table (paper Figure 14), keeping
// any non-equality condition parts as a residual join predicate evaluated
// per (affected-node row, constants row) — the decorrelated equivalent of
// the correlated G_grouped graph of Figure 15, correct for arbitrarily
// nested conditions because the residual is evaluated per constant
// combination. The join reads the store's table as it is when it runs; its
// output columns are anRoot's followed by the table's, TrigIDs first.
//
// anRoot is the affected-node graph; template is the condition with
// ConstRef placeholders, written over anRoot's output columns (input 0).
func BuildGroupedPlan(s *Store, template xqgm.Expr, anRoot *xqgm.Operator) *xqgm.Operator {
	on, resid := split(template)
	return xqgm.NewJoin(xqgm.JoinInner, anRoot, xqgm.NewConstantsOver(s.names, s.tab), on, resid)
}

// split divides a condition template's conjuncts into hash-joinable
// equalities (column = constant) against the constants table and a
// residual.
func split(template xqgm.Expr) (on []xqgm.JoinEq, resid xqgm.Expr) {
	var residual []xqgm.Expr
	for _, conj := range xqgm.Conjuncts(template) {
		if l, r, ok := matchEqConst(conj); ok {
			on = append(on, xqgm.JoinEq{L: l, R: 1 + r}) // +1: TrigIDs col
			continue
		}
		if conj != nil {
			residual = append(residual, ReadConsts(conj, 1))
		}
	}
	if len(residual) == 1 {
		resid = residual[0]
	} else if len(residual) > 1 {
		resid = &xqgm.Logic{Op: "and", Args: residual}
	}
	return on, resid
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

// ReadConsts rewrites a template's ConstRef placeholders into references to
// input 1, constant j at column offset+j: a constants-table row has TrigIDs
// first (offset 1), a member's Consts none.
func ReadConsts(e xqgm.Expr, offset int) xqgm.Expr {
	return xqgm.RewriteExpr(e, func(x xqgm.Expr) xqgm.Expr {
		if cr, ok := x.(*ConstRef); ok {
			return &xqgm.ColRef{Input: 1, Col: offset + cr.Idx}
		}
		return x
	})
}
