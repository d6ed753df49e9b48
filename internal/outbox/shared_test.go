package outbox

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"quark/internal/dispatch"
	"quark/internal/reldb"
	"quark/internal/wire"
	"quark/internal/xdm"
)

// sharedNodeWaves builds delivery waves whose records share nodes the way
// firings do, and some ways they do not: one firing's members all carrying
// the same OLD and NEW pointers with NEW_NODE as their argument, equal but
// distinct nodes, nil OLD or NEW, node arguments nested in sequences, and a
// wave with more distinct nodes than the file sink's cache holds.
func sharedNodeWaves() [][]*wire.Record {
	a := xdm.Elem("a", xdm.Attr("k", "1"), xdm.TextNd("  "))
	aTwin := xdm.Elem("a", xdm.Attr("k", "1"), xdm.TextNd("  "))
	b := xdm.Elem("b", xdm.Elem("c", xdm.TextNd("x<y & \"z\"")))
	var waves [][]*wire.Record
	for w := 0; w < 6; w++ {
		old := xdm.Elem("e0", xdm.Attr("name", fmt.Sprint(w)), xdm.Elem("e1", xdm.Attr("price", "1.5")))
		nw := xdm.Elem("e0", xdm.Attr("name", fmt.Sprint(w)), xdm.Elem("e1", xdm.Attr("price", "2.5")))
		var firing []*wire.Record
		for i := 0; i < 20; i++ {
			firing = append(firing, &wire.Record{Trigger: fmt.Sprintf("t%d", i), Event: reldb.EvUpdate,
				Old: old, New: nw, Args: []xdm.Value{xdm.NodeVal(nw)}})
		}
		waves = append(waves, firing)
	}
	waves = append(waves, []*wire.Record{
		{Trigger: "ins", Event: reldb.EvInsert, New: a, Args: []xdm.Value{xdm.NodeVal(a)}},
		{Trigger: "del", Event: reldb.EvDelete, Old: a},
		{Trigger: "twin", Event: reldb.EvUpdate, Old: aTwin, New: a},
		{Trigger: "seq", Event: reldb.EvUpdate, Old: b, New: a, Args: []xdm.Value{
			xdm.Seq([]xdm.Value{xdm.NodeVal(b), xdm.Int(3), xdm.Seq([]xdm.Value{xdm.NodeVal(a), xdm.NodeVal(aTwin)})}),
			xdm.NodeVal(b)}},
		{Trigger: "none", Event: reldb.EvUpdate},
	})
	var many []*wire.Record
	for i := 0; i < 40; i++ {
		n := xdm.Elem("n", xdm.Attr("i", fmt.Sprint(i)))
		many = append(many, &wire.Record{Trigger: fmt.Sprintf("m%d", i%5), Event: reldb.EvUpdate,
			Old: n, New: a, Args: []xdm.Value{xdm.NodeVal(n)}})
	}
	for i := 0; i < 10; i++ { // nodes the cache has evicted by now
		r := *many[i]
		many = append(many, &r)
	}
	return append(waves, many)
}

// TestSharedNodesEncodeAsReference is the differential test of the
// shared-node delivery path: waves appended with AppendBatch and delivered
// to a FileSink by a dispatcher with several workers. Every frame payload
// read back from the segment must be wire.Encode of its record and every
// sink line wire.AppendJSON of it plus a newline.
func TestSharedNodesEncodeAsReference(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out bytes.Buffer
	sink := NewFileSink(&out)
	d := dispatch.New(dispatch.Config{Workers: 3, QueueCap: 64, Policy: dispatch.Block})
	defer d.Close()

	var all []*wire.Record
	for _, wave := range sharedNodeWaves() {
		if _, err := l.AppendBatch(wave); err != nil {
			t.Fatal(err)
		}
		for _, rec := range wave {
			rec := rec
			if err := d.Enqueue(dispatch.Delivery{Trigger: rec.Trigger, Task: dispatch.Func(func() error { return sink.Deliver(rec) })}); err != nil {
				t.Fatal(err)
			}
		}
		all = append(all, wave...)
	}
	d.Drain()
	if st := d.Stats(); st.ActionErrors != 0 {
		t.Fatalf("%d deliveries failed", st.ActionErrors)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range all {
		if len(b) < frameHeader {
			t.Fatalf("segment ends after %d of %d frames", i, len(all))
		}
		n := int(binary.LittleEndian.Uint32(b))
		if want := wire.Encode(rec); !bytes.Equal(b[frameHeader:frameHeader+n], want) {
			t.Fatalf("frame %d (trigger %s) differs from wire.Encode", i, rec.Trigger)
		}
		b = b[frameHeader+n:]
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the last frame", len(b))
	}

	want := make([]string, len(all))
	for i, rec := range all {
		want[i] = string(wire.AppendJSON(nil, rec)) + "\n"
	}
	got := make([]string, 0, len(all))
	for _, line := range bytes.SplitAfter(out.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			got = append(got, string(line))
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("sink wrote %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink line differs from wire.AppendJSON\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
