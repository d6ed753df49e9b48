package xqgm

import (
	"runtime"
	"testing"
	"time"

	"quark/internal/schema"
	"quark/internal/xdm"
)

// cheapVendors builds, afresh on every call, the vendors under a price.
func cheapVendors(vdef *schema.Table, price float64) *Operator {
	sel := NewSelect(NewTable(vdef, SrcBase), &Cmp{Op: "<", L: Col(2), R: LitOf(xdm.Float(price))})
	return NewGroupBy(sel, []int{1}, Agg{Name: "n", Func: AggCount})
}

// Nodes of separately built and separately prepared graphs have one key
// exactly when they compute the same output, all the way up; a plan's
// signatures stay interned while it is reachable and no longer.
func TestNodeKeysAcrossPlans(t *testing.T) {
	vdef, _ := schema.ProductVendor().Table("vendor")
	prepared := func(price float64) *node {
		o := cheapVendors(vdef, price)
		if err := Prepare(o); err != nil {
			t.Fatal(err)
		}
		return o.prep
	}
	a, b, c := prepared(190), prepared(190), prepared(110)
	if a.plan == b.plan || a == b {
		t.Fatal("separately prepared graphs share a plan")
	}
	for n, m := a, b; n != nil; {
		if n.key != m.key {
			t.Errorf("%s: keys %d and %d for the same computation", n.op.Type, n.key, m.key)
		}
		if len(n.in) == 0 {
			break
		}
		n, m = n.in[0], m.in[0]
	}
	if c.key == a.key || c.in[0].key == a.in[0].key {
		t.Error("another literal, the same keys")
	}
	if c.in[0].in[0].key != a.in[0].in[0].key {
		t.Error("the table scan below them has two keys")
	}

	// A Select and a GroupBy no other plan has: their signatures, rendered
	// while the plan is alive.
	sigs := func() [][]byte {
		d := prepared(123.5)
		return [][]byte{d.signature(nil, false), d.in[0].signature(nil, false)}
	}()
	held := func() (n int) {
		interned.Lock()
		defer interned.Unlock()
		for _, s := range sigs {
			if lookupLocked(s) != nil {
				n++
			}
		}
		return n
	}
	if n := held(); n != 2 {
		t.Fatalf("%d of the plan's own signatures interned, want 2", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for held() != 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := held(); n != 0 {
		t.Errorf("%d signatures still interned after the plan died", n)
	}
	runtime.KeepAlive([]*node{a, b, c})
}
