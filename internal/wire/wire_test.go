package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
		// A batch of the record twice, framed through one Memo, is
		// Encode's bytes twice.
		var m Memo
		enc := Encode(r)
		if got := AppendEncodeMemo(AppendEncodeMemo(nil, r, &m), r, &m); !bytes.Equal(got, append(enc, enc...)) {
			t.Fatal("memo batch differs from Encode")
		}
	})
}

// FuzzJSON does the same through the JSON form.
func FuzzJSON(f *testing.F) {
	for _, r := range sampleRecords() {
		b, _ := json.Marshal(r)
		f.Add(b)
	}
	for _, src := range malformedJSONNodes {
		f.Add([]byte(src))
	}
	for _, c := range shapeJSONNodes {
		f.Add([]byte(shapeJSONRecords(c.src)[0]))
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
	for i, src := range malformedJSONNodes {
		cases[fmt.Sprintf("malformed node %d", i)] = src
	}
	for name, src := range cases {
		var r Record
		if err := r.UnmarshalJSON([]byte(src)); err == nil {
			t.Errorf("%s: UnmarshalJSON accepted %s", name, src)
		}
	}
}

// malformedJSONNodes are inputs the JSON decoder used to accept: an unknown
// node kind became a text node that kept its attrs and children (and
// re-encoded as "kind":"text"), and a node value without its payload
// decoded to Null where every other kind reports a missing payload.
var malformedJSONNodes = []string{
	`{"trigger":"t","event":"INSERT","new":{"kind":"bogus","children":[{"kind":"text","text":"x"}]}}`,
	`{"trigger":"t","event":"INSERT","new":{"kind":"elem","name":"a","children":[{"name":"b"}]}}`,
	`{"trigger":"t","event":"INSERT","args":[{"kind":"node","node":{"kind":"bogus","attrs":[["a","1"]]}}]}`,
	`{"trigger":"t","event":"INSERT","args":[{"kind":"node"}]}`,
}

// --- reference JSON encoder ---
//
// The reflection-based encoder AppendJSON replaced, kept verbatim as the
// differential reference: a mirror tree of the jsonRecord structs handed
// to encoding/json.

func referenceJSON(r *Record) ([]byte, error) {
	return json.Marshal(jsonRecord{
		Seq:     r.Seq,
		Trigger: r.Trigger,
		Event:   r.Event.String(),
		Old:     toJSONNode(r.Old),
		New:     toJSONNode(r.New),
		Args:    toJSONValues(r.Args),
	})
}

func toJSONNode(n *xdm.Node) *jsonNode {
	if n == nil {
		return nil
	}
	jn := &jsonNode{Name: n.Name, Text: n.Text()}
	switch n.Kind() {
	case xdm.ElementNode:
		jn.Kind = "elem"
	case xdm.AttributeNode:
		jn.Kind = "attr"
	default:
		jn.Kind = "text"
	}
	for _, a := range n.Attrs() {
		jn.Attrs = append(jn.Attrs, [2]string{a.Name, a.Text()})
	}
	for _, c := range n.Children() {
		jn.Children = append(jn.Children, toJSONNode(c))
	}
	return jn
}

func toJSONValues(vs []xdm.Value) []jsonValue {
	if len(vs) == 0 {
		return nil
	}
	out := make([]jsonValue, len(vs))
	for i, v := range vs {
		out[i] = toJSONValue(v)
	}
	return out
}

func toJSONValue(v xdm.Value) jsonValue {
	switch v.Kind() {
	case xdm.KindBool:
		b := v.AsBool()
		return jsonValue{Kind: "bool", Bool: &b}
	case xdm.KindInt:
		s := fmt.Sprintf("%d", v.AsInt())
		return jsonValue{Kind: "int", Int: &s}
	case xdm.KindFloat:
		// Hex float form: exact bits, no shortest-representation parsing
		// subtleties across JSON implementations.
		s := fmt.Sprintf("%x", math.Float64bits(v.AsFloat()))
		return jsonValue{Kind: "float", Float: &s}
	case xdm.KindString:
		s := v.AsString()
		return jsonValue{Kind: "str", Str: &s}
	case xdm.KindNode:
		return jsonValue{Kind: "node", Node: toJSONNode(v.AsNode())}
	case xdm.KindSeq:
		return jsonValue{Kind: "seq", Seq: toJSONValues(v.AsSeq())}
	default:
		return jsonValue{Kind: "null"}
	}
}

// checkAppendJSON is the encoder's contract on one record: byte-identical
// to the reference encoder and to json.Marshal (which re-scans
// MarshalJSON's output), appended after whatever dst already holds, valid
// JSON, and decoding back to an equal record.
func checkAppendJSON(t *testing.T, r *Record) {
	t.Helper()
	want, err := referenceJSON(r)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	got := AppendJSON(nil, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from the reference encoder\n got: %s\nwant: %s", got, want)
	}
	if !json.Valid(got) {
		t.Fatalf("AppendJSON wrote invalid JSON: %s", got)
	}
	if viaMarshal, err := json.Marshal(r); err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("json.Marshal differs from the reference encoder (err %v)\n got: %s\nwant: %s", err, viaMarshal, want)
	}
	if ext := AppendJSON([]byte("prefix"), r); !bytes.Equal(ext, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON did not append after dst's contents: %s", ext)
	}
	var back Record
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatalf("UnmarshalJSON of AppendJSON output: %v\n%s", err, got)
	}
	// Invalid UTF-8 is the one lossy case: JSON strings are Unicode, so each
	// bad byte reads back as U+FFFD, after which the round trip is exact.
	want2 := r
	if bytes.Contains(got, []byte(`\ufffd`)) {
		want2 = new(Record)
		if err := want2.UnmarshalJSON(AppendJSON(nil, &back)); err != nil {
			t.Fatalf("UnmarshalJSON of re-encoded record: %v", err)
		}
	}
	if !Equal(want2, &back) {
		t.Fatalf("JSON round trip changed the record\n in: %+v\njson: %s\nout: %+v", r, got, &back)
	}
}

// adversarialStrings exercise every branch of json.Marshal's string
// escaping.
func adversarialStrings() []string {
	ss := []string{
		"", " ", "\t\n ", "plain", `"quoted" \back\slash/`,
		"<script>alert('&amp;')</script>", "a\u2028b\u2029c", "\u2027\u202a",
		"\x7f", "\xff", "\xc3", "\xc3\x28", "ok\xe2\x80", "\xed\xa0\x80", "\xed\xbf\xbf", // lone surrogate halves
		"\xf4\x90\x80\x80", "\ufffd", "é世\U0001F600", "\x00mid\x00", "tail\\",
	}
	for b := 0; b < 0x20; b++ {
		ss = append(ss, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	return ss
}

func TestAppendJSONMatchesReference(t *testing.T) {
	for _, r := range sampleRecords() {
		checkAppendJSON(t, r)
	}
	for _, s := range adversarialStrings() {
		node := xdm.Elem(s, xdm.Attr(s, s), xdm.TextNd(s), xdm.Elem("c", xdm.TextNd(s)))
		checkAppendJSON(t, &Record{Trigger: s, Event: reldb.EvUpdate, Old: node, New: xdm.TextNd(s),
			Args: []xdm.Value{xdm.Str(s), xdm.NodeVal(xdm.Attr(s, s)), xdm.Seq([]xdm.Value{xdm.Str(s)})}})
	}
	values := []xdm.Value{
		xdm.Float(math.NaN()), xdm.Float(math.Inf(1)), xdm.Float(math.Inf(-1)),
		xdm.Float(math.Copysign(0, -1)), xdm.Float(0), xdm.Float(math.SmallestNonzeroFloat64),
		xdm.Int(math.MinInt64), xdm.Int(math.MaxInt64), xdm.Int(0), xdm.Int(-1),
		xdm.Seq(nil), xdm.Seq([]xdm.Value{}), xdm.Seq([]xdm.Value{xdm.Seq(nil), xdm.Seq([]xdm.Value{xdm.Seq(nil)})}),
		xdm.Seq([]xdm.Value{xdm.Null, xdm.True, xdm.NodeVal(xdm.TextNd(" "))}),
		xdm.NodeVal(nil), xdm.NodeVal(xdm.TextNd("")), xdm.NodeVal(xdm.Elem("")), xdm.NodeVal(xdm.Attr("", "")),
	}
	checkAppendJSON(t, &Record{Seq: math.MaxUint64, Event: reldb.EvDelete, Args: values})
	for _, v := range values {
		checkAppendJSON(t, &Record{Args: []xdm.Value{v}})
	}
	// What only hand-built records have: an attribute among an element's
	// children, a nil child, an event outside the enum.
	odd := xdm.NewNode(xdm.ElementNode, "e", "", 1,
		[]*xdm.Node{xdm.Attr("k", "v"), xdm.Attr("late", "x"), nil, xdm.TextNd("t")})
	if want, err := referenceJSON(&Record{Event: 9, Old: odd}); err != nil {
		t.Fatal(err)
	} else if got := AppendJSON(nil, &Record{Event: 9, Old: odd}); !bytes.Equal(got, want) {
		t.Fatalf("hand-built tree\n got: %s\nwant: %s", got, want)
	}
}

// shapeJSONNodes are JSON nodes no xdm.Node can hold, each with the kind and
// the field the decoder's ShapeError names.
var shapeJSONNodes = []struct{ src, kind, field string }{
	{`{"kind":"elem","name":"e","text":"elem text"}`, "elem", "text"},
	{`{"kind":"attr","name":"a","text":"t","attrs":[["k","v"]]}`, "attr", "attrs"},
	{`{"kind":"attr","name":"a","text":"t","children":[{"kind":"elem","name":"e"}]}`, "attr", "children"},
	{`{"kind":"text","text":"t","attrs":[["k","v"]]}`, "text", "attrs"},
	{`{"kind":"text","text":"t","children":[null]}`, "text", "children"},
}

// shapeJSONRecords puts each of shapeJSONNodes where a record holds a node:
// OLD, deep in NEW, and an argument.
func shapeJSONRecords(node string) []string {
	return []string{
		`{"trigger":"t","event":"UPDATE","old":` + node + `}`,
		`{"trigger":"t","event":"UPDATE","new":{"kind":"elem","name":"r","children":[{"kind":"elem","name":"c","children":[` + node + `]}]}}`,
		`{"trigger":"t","event":"UPDATE","args":[{"kind":"node","node":` + node + `}]}`,
	}
}

// The JSON decoder refuses what AppendJSON never writes and a node cannot
// hold: an element with text, an attribute or text node with attributes or
// children.
func TestJSONRejectsShapesNodesCannotHold(t *testing.T) {
	for _, c := range shapeJSONNodes {
		for _, src := range shapeJSONRecords(c.src) {
			var r Record
			err := json.Unmarshal([]byte(src), &r)
			var se *ShapeError
			if !errors.As(err, &se) {
				t.Errorf("%s: got error %v, want a *ShapeError", src, err)
				continue
			}
			if se.Kind != c.kind || se.Field != c.field {
				t.Errorf("%s: ShapeError names %s's %s, want %s's %s", src, se.Kind, se.Field, c.kind, c.field)
			}
		}
	}
}

// FuzzAppendJSON lets the fuzzer build the record — by decoding its input
// through the binary codec — and holds AppendJSON to the reference encoder
// on whatever comes out. The record then goes through a file sink's
// encoding path twice in a row, the second time from its node cache, and a
// copy whose NEW and argument are its OLD node does too; both lines must
// be AppendJSON's.
func FuzzAppendJSON(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(Encode(r))
	}
	for _, s := range adversarialStrings() {
		f.Add(Encode(&Record{Trigger: s, Old: xdm.Elem(s, xdm.Attr(s, s), xdm.TextNd(s)), Args: []xdm.Value{xdm.Str(s)}}))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := Decode(b)
		if err != nil {
			return
		}
		checkAppendJSON(t, r)
		shared := *r
		if r.Old != nil {
			shared.New = r.Old
			shared.Args = append([]xdm.Value{xdm.NodeVal(r.Old)}, r.Args...)
		}
		var m Memo
		for _, rec := range []*Record{r, r, &shared, &shared} {
			if got, want := AppendJSONMemo(nil, rec, &m), AppendJSON(nil, rec); !bytes.Equal(got, want) {
				t.Fatalf("sink path differs from AppendJSON\n got: %s\nwant: %s", got, want)
			}
		}
	})
}
