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
	"cmp"
	"fmt"
	"slices"
	"strings"
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

// Store is a group's membership and the constants table its grouped plan
// joins: a row per distinct combination of condition constants, TrigIDs —
// its members' names, sorted, comma-separated — then the constants, hashed
// on the columns the join probes. A member joins its row, which it adds if
// new, and leaves it, which goes with its last member: no plan changes.
//
// A member is an integer handle. Its name is the one pointer it has; its
// row and its neighbours in join order sit in a pointer-free column. The
// condition's constants live once, in the row, and only a member whose
// action has constant arguments keeps values of its own. A row has a
// number, which its TrigIDs cell holds, and lists its members' handles by
// name. TrigIDs itself is never stored: a listing renders it, CompareIDs
// orders rows by it without rendering it, and RowMembers resolves a row
// from its cell. So a join or a leave renders and keys nothing, whatever
// its row's size.
//
// A reader (a firing resolving its rows' members, a rendering of the
// plan's SQL) holds the read lock throughout; Add and Remove take the
// write lock.
type Store struct {
	sync.RWMutex
	nCond int
	cols  []string // the table's columns: TrigIDs, Const1..
	tab   *xqgm.ConstTable

	// By row number: its position in tab (-1: a free number) and its
	// members, by name. byConsts finds a row by its constants.
	pos      []int32
	members  [][]int32
	freeRows []int32
	byConsts map[xdm.CompKey]int32

	// By handle. A free handle has no name and chains the free ones
	// through next.
	names       []string
	slots       []memberSlot
	first, last int32 // join order's ends
	free        int32
	extra       map[int32][]xdm.Value // the action-argument constants of the members that have any

	size    int
	version uint64 // counts changes
}

// memberSlot files a member: its row number (-1: a free handle) and its
// neighbours in join order (-1: none).
type memberSlot struct {
	row, prev, next int32
}

// NewStore returns an empty store for a group whose condition template has
// nCond constants.
func NewStore(template xqgm.Expr, nCond int) *Store {
	on, _ := split(template)
	hashed := make([]int, len(on))
	for i, eq := range on {
		hashed[i] = eq.R
	}
	cols := []string{"TrigIDs"}
	for j := 1; j <= nCond; j++ {
		cols = append(cols, fmt.Sprintf("Const%d", j))
	}
	s := &Store{
		nCond: nCond, cols: cols, byConsts: map[xdm.CompKey]int32{},
		first: -1, last: -1, free: -1, extra: map[int32][]xdm.Value{},
	}
	s.tab = xqgm.NewIndexedConstTable(hashed, s.listing)
	return s
}

// Add files a member named name whose constants are consts, the
// condition's first and then any its action's arguments have, and returns
// its handle. The store keeps name and the constants' values as given;
// names are unique.
func (s *Store) Add(name string, consts []xdm.Value) (int32, error) {
	if len(consts) < s.nCond {
		return -1, fmt.Errorf("grouping: trigger %s has %d constants, group expects %d", name, len(consts), s.nCond)
	}
	s.Lock()
	defer s.Unlock()
	s.version++
	k := xdm.RowKey(consts[:s.nCond])
	r, ok := s.byConsts[k]
	if !ok {
		r = s.newRow(consts[:s.nCond])
		s.byConsts[k] = r
	}
	h := s.newHandle(name, r)
	if len(consts) > s.nCond {
		s.extra[h] = slices.Clone(consts[s.nCond:])
	}
	ms := s.members[r]
	at, _ := slices.BinarySearchFunc(ms, name, s.byName)
	s.members[r] = slices.Insert(ms, at, h)
	s.size++
	return h, nil
}

// Remove unregisters member h; it reports whether h was a member.
func (s *Store) Remove(h int32) bool {
	s.Lock()
	defer s.Unlock()
	if h < 0 || int(h) >= len(s.slots) || s.slots[h].row < 0 {
		return false
	}
	r := s.slots[h].row
	ms := s.members[r]
	at, _ := slices.BinarySearchFunc(ms, s.names[h], s.byName)
	s.members[r] = slices.Delete(ms, at, at+1)
	if len(s.members[r]) == 0 {
		s.dropRow(r)
	}
	delete(s.extra, h)
	s.freeHandle(h)
	s.size--
	s.version++
	return true
}

func (s *Store) byName(h int32, name string) int { return strings.Compare(s.names[h], name) }

// newRow adds a row holding consts and returns its number.
func (s *Store) newRow(consts []xdm.Value) int32 {
	var r int32
	if n := len(s.freeRows); n > 0 {
		r, s.freeRows = s.freeRows[n-1], s.freeRows[:n-1]
	} else {
		r = int32(len(s.pos))
		s.pos, s.members = append(s.pos, 0), append(s.members, nil)
	}
	row := make(xqgm.Tuple, 1+s.nCond)
	row[0] = xdm.Int(int64(r))
	copy(row[1:], consts)
	s.pos[r] = int32(s.tab.Add(row))
	return r
}

// dropRow removes row r, which has no members left.
func (s *Store) dropRow(r int32) {
	i := s.pos[r]
	delete(s.byConsts, xdm.RowKey(s.tab.Rows()[i][1:]))
	s.tab.Remove(int(i))
	if rows := s.tab.Rows(); int(i) < len(rows) { // the last row moved into i's place
		s.pos[rows[i][0].AsInt()] = i
	}
	s.pos[r], s.members[r] = -1, nil
	s.freeRows = append(s.freeRows, r)
}

// newHandle files a member of row r last in join order.
func (s *Store) newHandle(name string, r int32) int32 {
	h := s.free
	if h >= 0 {
		s.free = s.slots[h].next
		s.names[h] = name
	} else {
		h = int32(len(s.slots))
		s.names, s.slots = append(s.names, name), append(s.slots, memberSlot{})
	}
	s.slots[h] = memberSlot{row: r, prev: s.last, next: -1}
	if s.last >= 0 {
		s.slots[s.last].next = h
	} else {
		s.first = h
	}
	s.last = h
	return h
}

// freeHandle takes h out of join order and onto the free list.
func (s *Store) freeHandle(h int32) {
	m := s.slots[h]
	if m.prev >= 0 {
		s.slots[m.prev].next = m.next
	} else {
		s.first = m.next
	}
	if m.next >= 0 {
		s.slots[m.next].prev = m.prev
	} else {
		s.last = m.prev
	}
	s.names[h] = ""
	s.slots[h] = memberSlot{row: -1, next: s.free}
	s.free = h
}

// Name returns member h's name. The caller holds the lock, or excludes
// Add and Remove otherwise.
func (s *Store) Name(h int32) string { return s.names[h] }

// AppendConsts appends member h's constants to buf: its row's, then its
// own. The caller holds the lock.
func (s *Store) AppendConsts(buf []xdm.Value, h int32) []xdm.Value {
	buf = append(buf, s.tab.Rows()[s.pos[s.slots[h].row]][1:]...)
	return append(buf, s.extra[h]...)
}

// RowMembers returns the members, by name, of the row whose TrigIDs cell
// is ids. The caller holds the lock and must not change the result.
func (s *Store) RowMembers(ids xdm.Value) []int32 {
	if r := ids.AsInt(); r >= 0 && r < int64(len(s.members)) {
		return s.members[r]
	}
	return nil
}

// Label returns the TrigIDs of the row whose TrigIDs cell is ids: its
// members' names, comma-separated. The caller holds the lock.
func (s *Store) Label(ids xdm.Value) string {
	var b strings.Builder
	for j, h := range s.RowMembers(ids) {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.names[h])
	}
	return b.String()
}

// CompareIDs orders two rows, given their TrigIDs cells, as their labels
// compare, without rendering either. The caller holds the lock.
func (s *Store) CompareIDs(a, b xdm.Value) int {
	if a.AsInt() == b.AsInt() {
		return 0
	}
	x, y := labelReader{s: s, ms: s.RowMembers(a)}, labelReader{s: s, ms: s.RowMembers(b)}
	for {
		cx, okx := x.next()
		cy, oky := y.next()
		switch {
		case !okx && !oky:
			return 0
		case !okx:
			return -1
		case !oky:
			return 1
		case cx != cy:
			return cmp.Compare(cx, cy)
		}
	}
}

// labelReader reads a row's label byte by byte.
type labelReader struct {
	s    *Store
	ms   []int32
	k, p int // the name being read and the byte in it
}

func (l *labelReader) next() (byte, bool) {
	for l.k < len(l.ms) {
		if name := l.s.names[l.ms[l.k]]; l.p < len(name) {
			l.p++
			return name[l.p-1], true
		}
		if l.k, l.p = l.k+1, 0; l.k < len(l.ms) {
			return ',', true
		}
	}
	return 0, false
}

// listing is the table as rendered SQL lists it: each row with its
// TrigIDs label, in the order of the constants.
func (s *Store) listing(rows []xqgm.Tuple) []xqgm.Tuple {
	type listed struct {
		key string
		row xqgm.Tuple
	}
	ls := make([]listed, len(rows))
	for i, r := range rows {
		row := slices.Clone(r)
		row[0] = xdm.Str(s.Label(r[0]))
		ls[i] = listed{xdm.TupleKey(r[1:]), row}
	}
	slices.SortFunc(ls, func(a, b listed) int { return strings.Compare(a.key, b.key) })
	out := make([]xqgm.Tuple, len(ls))
	for i := range ls {
		out[i] = ls[i].row
	}
	return out
}

// Members returns every member in the order they joined.
func (s *Store) Members() []int32 {
	out := make([]int32, 0, s.size)
	for h := s.first; h >= 0; h = s.slots[h].next {
		out = append(out, h)
	}
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
	return xqgm.NewJoin(xqgm.JoinInner, anRoot, xqgm.NewConstantsOver(s.cols, s.tab), on, resid)
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
