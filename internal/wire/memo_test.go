package wire

import (
	"bytes"
	"fmt"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// firingWave is what one grouped firing delivers: every member gets the
// same OLD and NEW nodes and passes NEW_NODE as its argument.
func firingWave(members int) []*Record {
	old := xdm.Elem("e0", xdm.Attr("name", "r7"), xdm.Elem("e1", xdm.Attr("price", "1.5")))
	nw := xdm.Elem("e0", xdm.Attr("name", "r7"), xdm.Elem("e1", xdm.Attr("price", "2.5")))
	recs := make([]*Record, members)
	for i := range recs {
		recs[i] = &Record{Seq: uint64(i + 1), Trigger: fmt.Sprintf("t%d", i), Event: reldb.EvUpdate,
			Old: old, New: nw, Args: []xdm.Value{xdm.NodeVal(nw)}}
	}
	return recs
}

// memoWaves are records whose nodes a memo must tell apart: shared
// pointers, equal but distinct nodes, nil OLD or NEW, a node that is both
// NEW and an argument, node arguments nested in sequences, and more
// distinct nodes than a Memo holds.
func memoWaves() [][]*Record {
	a := xdm.Elem("a", xdm.Attr("k", "1"), xdm.TextNd("  "))
	aTwin := xdm.Elem("a", xdm.Attr("k", "1"), xdm.TextNd("  "))
	b := xdm.Elem("b", xdm.Elem("c", xdm.TextNd("x<y & \"z\"")))
	mixed := []*Record{
		{Trigger: "ins", Event: reldb.EvInsert, New: a, Args: []xdm.Value{xdm.NodeVal(a)}},
		{Trigger: "del", Event: reldb.EvDelete, Old: a},
		{Trigger: "twin", Event: reldb.EvUpdate, Old: aTwin, New: a},
		{Trigger: "seq", Event: reldb.EvUpdate, Old: b, New: a, Args: []xdm.Value{
			xdm.Seq([]xdm.Value{xdm.NodeVal(b), xdm.Int(3), xdm.Seq([]xdm.Value{xdm.NodeVal(a), xdm.NodeVal(aTwin)})}),
			xdm.NodeVal(b), xdm.Str("s")}},
		{Trigger: "none", Event: reldb.EvUpdate},
	}
	var many []*Record
	for i := 0; i < 3*memoSlots; i++ {
		n := xdm.Elem("n", xdm.Attr("i", fmt.Sprint(i)))
		many = append(many, &Record{Trigger: "many", Event: reldb.EvUpdate, Old: n, New: a,
			Args: []xdm.Value{xdm.NodeVal(n)}})
	}
	// Revisit the first nodes once the memo has evicted them.
	many = append(many, many[:memoSlots]...)
	return [][]*Record{firingWave(20), mixed, many, sampleRecords()}
}

// TestMemoEncodersMatchReference holds the memo encoders to the reference
// encoders: a batch encoded into one buffer through a Memo is the
// concatenation of Encode's records, and every record through a Memo
// carried from wave to wave, as a sink's buffer carries it, is AppendJSON's.
func TestMemoEncodersMatchReference(t *testing.T) {
	var bin, js Memo
	for w, wave := range memoWaves() {
		var buf, want []byte
		for _, r := range wave {
			buf = AppendEncodeMemo(buf, r, &bin)
			want = append(want, Encode(r)...)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("wave %d: memo batch differs from Encode", w)
		}
		for i, r := range wave {
			if got, want := AppendJSONMemo([]byte("x"), r, &js), AppendJSON([]byte("x"), r); !bytes.Equal(got, want) {
				t.Fatalf("wave %d record %d: memo JSON\n got: %s\nwant: %s", w, i, got, want)
			}
		}
	}
}

// TestSharedNodesAreWalkedOnce is the work count behind the durable path:
// a 20-member firing carries its two nodes in 60 places per format, and
// with a memo each format walks each node once — 4 serializations instead
// of 120.
func TestSharedNodesAreWalkedOnce(t *testing.T) {
	var bin, js Memo
	var buf, line []byte
	for _, r := range firingWave(20) {
		buf = AppendEncodeMemo(buf, r, &bin)
		line = AppendJSONMemo(line[:0], r, &js)
	}
	if got := bin.kept + js.kept; got != 4 {
		t.Errorf("walked %d nodes (binary %d, JSON %d), want 4", got, bin.kept, js.kept)
	}
}

// TestMemoSkipsHugeNodes: a node whose JSON exceeds maxMemoBytes is walked
// every time and never pins a buffer.
func TestMemoSkipsHugeNodes(t *testing.T) {
	huge := xdm.Elem("h", xdm.TextNd(string(bytes.Repeat([]byte("x"), maxMemoBytes))))
	r := &Record{New: huge}
	var m Memo
	for i := 0; i < 2; i++ {
		if got := AppendJSONMemo(nil, r, &m); !bytes.Equal(got, AppendJSON(nil, r)) {
			t.Fatal("huge node JSON differs from AppendJSON")
		}
	}
	if m.kept != 0 {
		t.Fatalf("huge node kept %d times, want 0", m.kept)
	}
}
