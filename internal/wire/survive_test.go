package wire

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// The decoders build nodes whose one pointer is all that keeps their text
// and lists alive: records decoded from bytes and from JSON that are then
// dropped, and kept only by the records, must survive collections while
// the memory around them is reused, and encode to the same bytes as before.
// Under -race checkptr checks every cast that reads them.
func TestNodesSurviveCollection(t *testing.T) {
	recs := decodedRecords(t)
	type encoded struct {
		bin, json []byte
		old, new  string
	}
	want := make([]encoded, len(recs))
	for i, r := range recs {
		want[i] = encoded{Encode(r), AppendJSON(nil, r), r.Old.Serialize(false), r.New.Serialize(false)}
	}
	churn(6)
	for i, r := range recs {
		got := encoded{Encode(r), AppendJSON(nil, r), r.Old.Serialize(false), r.New.Serialize(false)}
		if !bytes.Equal(got.bin, want[i].bin) || !bytes.Equal(got.json, want[i].json) || got.old != want[i].old || got.new != want[i].new {
			t.Errorf("record %d after collections:\n got %s\nwant %s", i, got.json, want[i].json)
		}
	}
}

// decodedRecords decodes every sample record, and records over adversarial
// strings, from bytes and from JSON that nothing keeps afterwards.
func decodedRecords(t *testing.T) []*Record {
	src := sampleRecords()
	for _, s := range adversarialStrings() {
		src = append(src, &Record{Trigger: s, Event: reldb.EvUpdate,
			Old:  xdm.Elem(s, xdm.Attr(s, s), xdm.TextNd(s), xdm.Elem("c", xdm.TextNd(s))),
			New:  xdm.Elem("n", xdm.Attr("a", s+s), xdm.TextNd(s+"!")),
			Args: []xdm.Value{xdm.NodeVal(xdm.TextNd(s))}})
	}
	var out []*Record
	for _, r := range src {
		b, err := Decode(bytes.Clone(Encode(r)))
		if err != nil {
			t.Fatal(err)
		}
		var j Record
		if err := json.Unmarshal(AppendJSON(nil, r), &j); err != nil {
			t.Fatal(err)
		}
		out = append(out, b, &j)
	}
	return out
}

// churn collects rounds times, each time filling what was freed with byte
// runs of '#' and lists of a '#' node in the size classes the decoders'
// texts, lists and nodes come from.
func churn(rounds int) {
	junk := xdm.TextNd(strings.Repeat("#", 64))
	var keep []any
	for r := 0; r < rounds; r++ {
		runtime.GC()
		keep = keep[:0]
		for size := 1; size <= 4<<10; size += size/4 + 1 {
			for k := 0; k < 32; k++ {
				keep = append(keep, []byte(strings.Repeat("#", size)))
				l := make([]*xdm.Node, size/8+1)
				for i := range l {
					l[i] = junk
				}
				keep = append(keep, l)
			}
		}
		for k := 0; k < 4096; k++ {
			keep = append(keep, xdm.TextNd(strings.Repeat("#", k%48+1)))
		}
	}
	runtime.KeepAlive(keep)
	runtime.GC()
}
