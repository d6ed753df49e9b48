package outbox

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"quark/internal/reldb"
	"quark/internal/wire"
	"quark/internal/xdm"
)

// benchNode is a view-shaped node: a root with a name and a few priced
// children, a few KB of JSON.
func benchNode(i int, price string) *xdm.Node {
	kids := []*xdm.Node{xdm.Attr("name", fmt.Sprintf("r%d", i))}
	for k := 0; k < 12; k++ {
		kids = append(kids, xdm.Elem("e1", xdm.Attr("id", fmt.Sprint(k)), xdm.Attr("price", price),
			xdm.Elem("e2", xdm.TextNd(fmt.Sprintf("item %d of root %d", k, i)))))
	}
	return xdm.Elem("e0", kids...)
}

// benchRecords builds firings of 20 records. With shared set, a firing's
// records carry the same OLD and NEW nodes and pass NEW as their argument,
// as a grouped firing delivers them; otherwise every record has three
// distinct nodes of its own, so a node memo never hits.
func benchRecords(shared bool, firings int) []*wire.Record {
	var recs []*wire.Record
	for f := 0; f < firings; f++ {
		old, nw := benchNode(f, "1.5"), benchNode(f, "2.5")
		arg := nw
		for m := 0; m < 20; m++ {
			if !shared {
				old, nw, arg = benchNode(f, "1.5"), benchNode(f, "2.5"), benchNode(f, "2.5")
			}
			recs = append(recs, &wire.Record{Seq: uint64(len(recs) + 1), Trigger: fmt.Sprintf("t%d", m),
				Event: reldb.EvUpdate, Old: old, New: nw, Args: []xdm.Value{xdm.NodeVal(arg)}})
		}
	}
	return recs
}

// BenchmarkFileSinkDeliver delivers records to one FileSink from parallel
// goroutines (one per -cpu), taking them in staging order as dispatcher
// workers do. "shared" is a grouped firing's traffic; "distinct" is traffic
// whose records share no node, where the memo only costs.
func BenchmarkFileSinkDeliver(b *testing.B) {
	for _, shared := range []bool{true, false} {
		name := "distinct"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			recs := benchRecords(shared, 50)
			sink := NewFileSink(io.Discard)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					rec := recs[int(next.Add(1)-1)%len(recs)]
					if err := sink.Deliver(rec); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
