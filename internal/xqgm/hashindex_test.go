package xqgm

import (
	"fmt"
	"math/rand"
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
					var ix hashIndex
					if ix.index(build, bcols); (ix.head == nil) != (size <= tinyBuild) {
						t.Fatalf("build of %d: searched linearly = %t", size, ix.head == nil)
					}
					n.join.build = nil
					tiny, err := (&EvalContext{}).hashJoin(n, lt, rt)
					if err != nil {
						t.Fatal(err)
					}
					n.join.build = newHashIndex(build, bcols)
					hashed, err := (&EvalContext{}).hashJoin(n, lt, rt)
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
