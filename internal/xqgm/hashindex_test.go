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

// A build side of at most tinyBuild tuples is searched linearly, a larger
// one hashed; every join kind emits the same rows in the same order either
// way, with one key column or two, with and without a residual predicate.
func TestTinyBuildMatchesHashedBuild(t *testing.T) {
	pred := &Cmp{Op: "<", L: Col(2), R: Col2(2)}
	r := rand.New(rand.NewSource(1))
	for _, kind := range []JoinKind{JoinInner, JoinLeftOuter, JoinLeftAnti, JoinRightAnti} {
		for _, on := range [][]JoinEq{{{L: 0, R: 0}}, {{L: 0, R: 1}, {L: 1, R: 0}}} {
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
					var sized, hashedIx hashIndex
					if sized.index(build, bcols); (sized.head == nil) != (size <= tinyBuild) {
						t.Fatalf("build of %d: searched linearly = %t", size, sized.head == nil)
					}
					hashedIx.hash(build, bcols)
					tiny, err := (&EvalContext{}).hashJoin(n, lt, rt, &sized)
					if err != nil {
						t.Fatal(err)
					}
					hashed, err := (&EvalContext{}).hashJoin(n, lt, rt, &hashedIx)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := fmt.Sprint(tiny), fmt.Sprint(hashed); g != w {
						t.Errorf("%v on %v, residual %v, build of %d:\nsized build %s\nhashed      %s", kind, on, residual, size, g, w)
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
				var fresh hashIndex
				fresh.hash(kept, bcols)
				lt, rt, lf, rf := probe, tab.Rows(), probe, kept
				if kind == JoinRightAnti {
					lt, rt, lf, rf = tab.Rows(), probe, kept, probe
				}
				got, err := (&EvalContext{}).hashJoin(n, lt, rt, tab.ix)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&EvalContext{}).hashJoin(n, lf, rf, &fresh)
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
