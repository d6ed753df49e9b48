package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// invText serializes what an invocation carries: its nodes and arguments,
// a sequence item by item.
func invText(old, new *xdm.Node, args []xdm.Value) string {
	var b strings.Builder
	var value func(v xdm.Value)
	value = func(v xdm.Value) {
		switch v.Kind() {
		case xdm.KindSeq:
			b.WriteByte('(')
			for _, it := range v.AsSeq() {
				value(it)
			}
			b.WriteByte(')')
		case xdm.KindNode:
			b.WriteString(v.AsNode().Serialize(false))
		default:
			b.WriteString(v.Lexical())
		}
		b.WriteByte(',')
	}
	value(xdm.NodeVal(old))
	value(xdm.NodeVal(new))
	for _, a := range args {
		value(a)
	}
	return b.String()
}

// The nodes and arguments a firing delivers belong to the consumer: an
// evaluation context serves the next statement with the memory its tuples
// took, so nothing delivered may be a tuple. Every invocation of 200
// firings is kept — delivered inline, by the dispatcher's workers while
// later statements evaluate, or durably through the outbox — and serialized
// again at the end, byte for byte what it was at delivery. One argument is a
// sequence, the updated element's <e1> children.
func TestInvocationsOutliveTheirStatements(t *testing.T) {
	for _, mode := range []string{"sync", "async", "outbox-replayed"} {
		t.Run(mode, func(t *testing.T) {
			w, err := workload.Build(workload.Params{
				Depth: 2, LeafTuples: 32 * 16, Fanout: 16, NumTriggers: 64, NumSatisfied: 4,
			}, core.ModeGrouped, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := w.Engine
			e.RegisterAction("notify", func(core.Invocation) error { return nil }) // the workload's counts unlocked
			var mu sync.Mutex
			var kept []core.Invocation
			var atDelivery []string
			e.RegisterAction("keep", func(inv core.Invocation) error {
				mu.Lock()
				defer mu.Unlock()
				kept = append(kept, inv)
				atDelivery = append(atDelivery, invText(inv.Old, inv.New, inv.Args))
				return nil
			})
			if err := e.CreateTrigger(`CREATE TRIGGER keepAll AFTER UPDATE ON view('doc')/e0 DO keep(NEW_NODE/e1, NEW_NODE/@name)`); err != nil {
				t.Fatal(err)
			}
			var lg *outbox.Log
			switch mode {
			case "async":
				if err := e.EnableAsyncDispatch(dispatch.Config{Workers: 2, QueueCap: 64, Policy: dispatch.Block}); err != nil {
					t.Fatal(err)
				}
				defer e.Close()
			case "outbox-replayed":
				dir := t.TempDir()
				if lg, err = outbox.Open(dir, outbox.Options{}); err != nil {
					t.Fatal(err)
				}
				defer lg.Close()
				if err := e.EnableOutbox(lg, nil); err != nil {
					t.Fatal(err)
				}
			}
			const firings = 200
			fanout := int64(w.Params.Fanout)
			for i := int64(0); i < firings; i++ {
				leaf := (i%32)*fanout + i%fanout // every element in turn, a different leaf each round
				if _, err := e.UpdateByPK(w.LeafTable(), []xdm.Value{xdm.Int(leaf)}, func(r reldb.Row) reldb.Row {
					r[len(r)-1] = xdm.Float(float64(1000 + i))
					return r
				}); err != nil {
					t.Fatal(err)
				}
			}
			e.Drain()
			if len(kept) != firings {
				t.Fatalf("kept %d invocations, want one per firing", len(kept))
			}
			for i, inv := range kept {
				if len(inv.Args) != 2 || inv.Args[0].Kind() != xdm.KindSeq || len(inv.Args[0].AsSeq()) != int(fanout) {
					t.Fatalf("invocation %d: args %v, want the %d <e1> children and a name", i, inv.Args, fanout)
				}
				if got := invText(inv.Old, inv.New, inv.Args); got != atDelivery[i] {
					t.Fatalf("invocation %d changed after delivery:\nnow %s\nwas %s", i, got, atDelivery[i])
				}
			}
			if lg == nil {
				return
			}
			// What a replay reads back from the log is what was delivered.
			recs, err := lg.Records(1)
			if err != nil {
				t.Fatal(err)
			}
			var replayed []string
			for _, r := range recs {
				if r.Trigger == "keepAll" {
					replayed = append(replayed, invText(r.Old, r.New, r.Args))
				}
			}
			if fmt.Sprint(replayed) != fmt.Sprint(atDelivery) {
				t.Errorf("the log's %d keepAll records differ from the %d delivered invocations", len(replayed), len(atDelivery))
			}
		})
	}
}

// A delivered node the consumer drops is garbage once its statement is over:
// the evaluation context the engine keeps for the next statement clears the
// tuple cells that held it. The next statement on the table rejects every
// member and builds nothing, so it overwrites little.
func TestDroppedNodeIsCollectable(t *testing.T) {
	w, err := workload.Build(workload.Params{
		Depth: 2, LeafTuples: 128 * 64, Fanout: 64, NumTriggers: 100, NumSatisfied: 1,
	}, core.ModeUngrouped, 1)
	if err != nil {
		t.Fatal(err)
	}
	var delivered weak.Pointer[xdm.Node]
	w.Engine.RegisterAction("notify", func(inv core.Invocation) error {
		delivered = weak.Make(inv.New)
		return nil
	})
	update := func(leaf int64) {
		if _, err := w.Engine.UpdateByPK(w.LeafTable(), []xdm.Value{xdm.Int(leaf)}, func(r reldb.Row) reldb.Row {
			r[len(r)-1] = xdm.Float(r[len(r)-1].AsFloat() + 1)
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}
	update(7) // under top element 0, which one member watches
	if delivered.Value() == nil {
		t.Fatal("nothing delivered")
	}
	update(64 + 7) // under top element 1, which nobody watches
	runtime.GC()
	runtime.GC() // twice: what the first cycle only unlinked is freed by the second
	if delivered.Value() != nil {
		t.Error("the dropped NEW_NODE is still reachable after the next statement")
	}
	runtime.KeepAlive(w) // or the engine dies, and its contexts with it
}
