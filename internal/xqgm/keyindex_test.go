package xqgm

import (
	"math"
	"math/rand"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// A keyIndex finds exactly the rows whose key columns have the probe's
// ColsKey, in input order, whatever the kinds: NULLs, NaNs, -0 and an
// integral float beside the int it equals, strings beside numbers.
func TestKeyIndexFollowsColsKey(t *testing.T) {
	vals := []xdm.Value{xdm.Null, xdm.Int(1), xdm.Float(1), xdm.Int(0), xdm.Float(-0.0), xdm.Float(math.NaN()),
		xdm.Float(2.5), xdm.Str(""), xdm.Str("1"), xdm.Str("a"), xdm.Bool(true)}
	rng := rand.New(rand.NewSource(1))
	var ix keyIndex
	for round := 0; round < 200; round++ {
		rows := make([]reldb.Row, rng.Intn(40))
		for i := range rows {
			rows[i] = reldb.Row{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
		}
		cols := [][]int{nil, {1}, {2, 0}}[round%3]
		ix.build(rows, cols)
		for _, probe := range rows[:min(len(rows), 5)] {
			want := []int32{}
			for i, r := range rows {
				if keyOf(r, cols) == keyOf(probe, cols) {
					want = append(want, int32(i))
				}
			}
			got := []int32{}
			for p := ix.first(probe, cols); p != 0; p = ix.next[p-1] {
				got = append(got, p-1)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: key %v of %v finds rows %v, want %v", round, cols, probe, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: key %v of %v finds rows %v, want %v", round, cols, probe, got, want)
				}
			}
		}
		if ix.first(reldb.Row{xdm.Str("absent"), xdm.Str("absent"), xdm.Str("absent")}, cols) != 0 {
			t.Fatalf("round %d: an absent key finds a row", round)
		}
	}
}

// keyOf is the ColsKey of cols of r, all of r for nil.
func keyOf(r reldb.Row, cols []int) xdm.CompKey {
	if cols == nil {
		return xdm.RowKey(r)
	}
	return xdm.ColsKey(r, cols)
}

// Rebind keeps the Δ-key and ∇ indexes, the pruning scratch and the output
// arenas within maxKeptBytes together, drops the rows they indexed, and
// builds the next statement's indexes in the kept slices.
func TestRebindKeepsIndexesWithinTheCap(t *testing.T) {
	ctx := &EvalContext{}
	rows := func(n int) []reldb.Row {
		out := make([]reldb.Row, n)
		for i := range out {
			out[i] = reldb.Row{xdm.Int(int64(i)), xdm.Str("p"), xdm.Float(float64(i))}
		}
		return out
	}
	build := func(n int) {
		ctx.Rebind(map[string]*Transition{"t": {Inserted: rows(n), Deleted: rows(n)}})
		ctx.oldExclFor("t", []int{0})
		ctx.deletedByCol("t", 2)
		ctx.bag(rows(n), nil)
	}
	for _, n := range []int{10_000, 100_000} {
		build(n)
		ctx.Rebind(nil)
		if kept := ctx.KeptBytes(); kept > maxKeptBytes {
			t.Errorf("after a %d-row statement the context keeps %d bytes, cap %d", n, kept, maxKeptBytes)
		}
		for _, ix := range append([]*keyIndex{&ctx.prune}, ctx.spare...) {
			if ix.rows != nil {
				t.Errorf("after a %d-row statement a kept index still holds its rows", n)
			}
		}
	}
	build(10_000)
	ctx.Rebind(nil)
	if len(ctx.spare) != 2 {
		t.Fatalf("%d indexes kept after a 10,000-row statement, want the Δ-key and the ∇ one", len(ctx.spare))
	}
	slots := map[*keyIndex]*int32{}
	for _, ix := range ctx.spare {
		slots[ix] = &ix.slots[0]
	}
	ctx.Rebind(map[string]*Transition{"t": {Inserted: rows(100)}})
	if ix := ctx.oldExclFor("t", []int{0}); slots[ix] == nil || &ix.slots[0] != slots[ix] {
		t.Error("the next statement's Δ-key index is not built in a kept one")
	}
}
