package xqgm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"quark/internal/xdm"
)

// keyValue draws one join-key cell from a small pool, so that keys repeat:
// NULL, Int(1) and the Float(1) that equi-joins it, other numbers and
// strings.
func keyValue(r *rand.Rand) xdm.Value {
	switch r.Intn(7) {
	case 0:
		return xdm.Null
	case 1:
		return xdm.Int(1)
	case 2:
		return xdm.Float(1)
	case 3:
		return xdm.Float(2.5)
	case 4:
		return xdm.Int(int64(r.Intn(3)))
	case 5:
		return xdm.Str("a")
	default:
		return xdm.Str(string(rune('a' + r.Intn(3))))
	}
}

// joinRows draws n tuples of two key columns and a numbered payload.
func joinRows(r *rand.Rand, n, base int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{keyValue(r), keyValue(r), xdm.Int(int64(base + i))}
	}
	return out
}

// mapIndex indexes rows by cols in a map keyed by ColsKey, chaining each
// key's rows in input order: the reference a join index is held to.
func mapIndex(rows []Tuple, cols []int) *hashIndex {
	h := &hashIndex{head: map[xdm.CompKey]int32{}, next: make([]int32, len(rows))}
	for i := len(rows) - 1; i >= 0; i-- {
		h.link(rows[i], cols, i)
	}
	return h
}

// A hash join that indexes its build side in the context's join index, kept
// from join to join, emits the same rows in the same order as one probing a
// map keyed by ColsKey, for every join kind and build size, with no key
// column, one or two, with and without a residual predicate.
func TestJoinIndexMatchesMapIndex(t *testing.T) {
	pred := &Cmp{Op: "<", L: Col(2), R: Col2(2)}
	r := rand.New(rand.NewSource(1))
	var ctx EvalContext // one context: its join index serves every join below
	for _, kind := range []JoinKind{JoinInner, JoinLeftOuter, JoinLeftAnti, JoinRightAnti} {
		for _, on := range [][]JoinEq{nil, {{L: 0, R: 0}}, {{L: 0, R: 1}, {L: 1, R: 0}}} {
			for _, residual := range []Expr{nil, pred} {
				for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
					probe := joinRows(r, 12, 0)
					build := joinRows(r, size, 100)
					lt, rt := probe, build
					if kind == JoinRightAnti {
						lt, rt = build, probe
					}
					none := NewConstants([]string{"a", "b", "c"}, nil)
					ns, err := plan([]*Operator{NewJoin(kind, none, none, on, residual)})
					if err != nil {
						t.Fatal(err)
					}
					n := ns[0]
					bcols := n.join.rcols
					if kind == JoinRightAnti {
						bcols = n.join.lcols
					}
					got, err := ctx.hashJoin(n, lt, rt, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := (&EvalContext{}).hashJoin(n, lt, rt, mapIndex(build, bcols))
					if err != nil {
						t.Fatal(err)
					}
					if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
						t.Errorf("%v on %v, residual %v, build of %d:\njoin index %s\nmap index  %s", kind, on, residual, size, g, w)
					}
				}
			}
		}
	}
}

// A table that keeps its index while rows come and go joins as a fresh build
// of the rows it holds: every row added is found under its key, and a row
// removed, or moved into a removed row's place, is found where it is now.
// Its chains keep no input order, so the outputs are compared as multisets.
func TestConstTableIndexFollowsItsRows(t *testing.T) {
	pred := &Cmp{Op: "<", L: Col(2), R: Col2(2)}
	r := rand.New(rand.NewSource(2))
	for _, kind := range []JoinKind{JoinInner, JoinLeftOuter, JoinLeftAnti, JoinRightAnti} {
		for _, on := range [][]JoinEq{nil, {{L: 0, R: 0}}, {{L: 0, R: 1}, {L: 1, R: 0}}} {
			for _, residual := range []Expr{nil, pred} {
				probe := joinRows(r, 12, 0)
				none := NewConstants([]string{"a", "b", "c"}, nil)
				ns, err := plan([]*Operator{NewJoin(kind, none, none, on, residual)})
				if err != nil {
					t.Fatal(err)
				}
				n := ns[0]
				bcols := n.join.rcols
				if kind == JoinRightAnti {
					bcols = n.join.lcols
				}
				tab := NewIndexedConstTable(bcols, nil)
				kept, junk := joinRows(r, 40, 100), joinRows(r, 40, 200)
				for i := range kept {
					tab.Add(kept[i])
					tab.Add(junk[i])
				}
				for _, i := range r.Perm(len(junk)) {
					at := slices.IndexFunc(tab.Rows(), func(row Tuple) bool { return row[2].AsInt() == int64(200+i) })
					tab.Remove(at)
				}
				lt, rt, lf, rf := probe, tab.Rows(), probe, kept
				if kind == JoinRightAnti {
					lt, rt, lf, rf = tab.Rows(), probe, kept, probe
				}
				got, err := (&EvalContext{}).hashJoin(n, lt, rt, tab.ix)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&EvalContext{}).hashJoin(n, lf, rf, nil)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := sortedRows(got), sortedRows(want); !slices.Equal(g, w) {
					t.Errorf("%v on %v, residual %v:\nkept index  %v\nfresh build %v", kind, on, residual, g, w)
				}
			}
		}
	}
}

func sortedRows(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = fmt.Sprint(row)
	}
	slices.Sort(out)
	return out
}
