package wire

import (
	"encoding/json"
	"math"
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

func sampleRecords() []*Record {
	node := xdm.Elem("sector",
		xdm.Attr("name", "tech"),
		xdm.Elem("stock", xdm.Attr("symbol", "QRK"), xdm.Attr("price", "31.40")),
		xdm.TextNd("  "), // whitespace-only text: XML parsing would drop it
		xdm.Elem("stock", xdm.Attr("symbol", "XML"), xdm.TextNd("9.80")),
	)
	return []*Record{
		{},
		{Trigger: "t0", Event: reldb.EvInsert},
		{
			Seq:     42,
			Trigger: "client007",
			Event:   reldb.EvUpdate,
			Old:     node, // OLD and NEW share subtrees, as the evaluator's do
			New:     node,
			Args: []xdm.Value{
				xdm.Null,
				xdm.True,
				xdm.False,
				xdm.Int(math.MinInt64),
				xdm.Int(math.MaxInt64),
				xdm.Float(0.1 + 0.2), // not exactly representable in decimal
				xdm.Float(math.Inf(-1)),
				xdm.Str("quotes \" and <tags> & unicode é世"),
				xdm.Str(""),
				xdm.NodeVal(xdm.Elem("x", xdm.Attr("a", "1"))),
				xdm.Seq([]xdm.Value{xdm.Int(1), xdm.Str("two"), xdm.Seq(nil)}),
			},
		},
		{
			Trigger: "deep",
			Event:   reldb.EvDelete,
			Old:     xdm.Elem("a", xdm.Elem("b", xdm.Elem("c", xdm.TextNd("leaf")))),
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for i, r := range sampleRecords() {
		b := Encode(r)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !Equal(r, got) {
			t.Errorf("record %d: round trip mismatch\n in: %+v\nout: %+v", i, r, got)
		}
		// Determinism: equal records encode to identical bytes.
		if b2 := Encode(got); string(b) != string(b2) {
			t.Errorf("record %d: encoding is not deterministic", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for i, r := range sampleRecords() {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("record %d: marshal: %v", i, err)
		}
		var got Record
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("record %d: unmarshal: %v", i, err)
		}
		if !Equal(r, &got) {
			t.Errorf("record %d: JSON round trip mismatch\n in: %+v\njson: %s\nout: %+v", i, r, b, &got)
		}
		if b2, _ := json.Marshal(&got); string(b) != string(b2) {
			t.Errorf("record %d: JSON encoding is not deterministic", i)
		}
	}
}

func TestFloatBitPatternSurvives(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001) // a specific NaN payload
	r := &Record{Trigger: "f", Args: []xdm.Value{xdm.Float(nan)}}
	got, err := Decode(Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(got.Args[0].AsFloat()); bits != 0x7ff8000000000001 {
		t.Errorf("NaN payload lost: got bits %x", bits)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	r := sampleRecords()[2]
	good := Encode(r)
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte{0x00}, good[1:]...),
		"bad version":  append([]byte{good[0], 99}, good[2:]...),
		"truncated":    good[:len(good)/2],
		"trailing":     append(append([]byte{}, good...), 0xFF),
		"only header":  good[:2],
		"bogus length": {magic, version, 0, 1, 't', byte(reldb.EvInsert), 0, 0, 0xFF},
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestEqualDistinguishesKinds(t *testing.T) {
	a := &Record{Args: []xdm.Value{xdm.Int(2)}}
	b := &Record{Args: []xdm.Value{xdm.Float(2)}}
	if Equal(a, b) {
		t.Error("Equal unified int 2 with float 2.0; the codec must not")
	}
}

// FuzzDecode throws arbitrary bytes at the decoder (it must never panic)
// and checks the re-encode fixed point: anything that decodes successfully
// must re-encode to bytes that decode to an equal record.
func FuzzDecode(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(Encode(r))
	}
	f.Add([]byte{magic, version})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := Decode(b)
		if err != nil {
			return
		}
		r2, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("re-decode of valid record failed: %v", err)
		}
		if !Equal(r, r2) {
			t.Fatalf("re-encode changed the record:\n in: %+v\nout: %+v", r, r2)
		}
	})
}

// FuzzJSON does the same through the JSON form.
func FuzzJSON(f *testing.F) {
	for _, r := range sampleRecords() {
		b, _ := json.Marshal(r)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Record
		if err := json.Unmarshal(b, &r); err != nil {
			return
		}
		b2, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var r2 Record
		if err := json.Unmarshal(b2, &r2); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !Equal(&r, &r2) {
			t.Fatalf("JSON round trip changed the record")
		}
	})
}

func TestJSONRejectsMalformedPayloads(t *testing.T) {
	cases := map[string]string{
		"int trailing garbage":   `{"trigger":"t","event":"INSERT","args":[{"kind":"int","int":"12abc"}]}`,
		"float trailing garbage": `{"trigger":"t","event":"INSERT","args":[{"kind":"float","float":"3ff0zzz"}]}`,
		"unknown event":          `{"trigger":"t","event":"TRUNCATE"}`,
		"unknown value kind":     `{"trigger":"t","event":"INSERT","args":[{"kind":"blob"}]}`,
	}
	for name, src := range cases {
		var r Record
		if err := r.UnmarshalJSON([]byte(src)); err == nil {
			t.Errorf("%s: UnmarshalJSON accepted %s", name, src)
		}
	}
}
