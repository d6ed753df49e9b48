// Package wire is the serialization boundary of the trigger pipeline: a
// deterministic, self-describing codec for trigger invocations. The paper
// defines an action as "a call to an external function" (Section 2.2), and
// an external function lives in another process — so the engine's
// in-memory Invocation (trigger name, view-level event, OLD_NODE/NEW_NODE
// XDM trees, evaluated action arguments) must cross a byte boundary
// without losing information and without requiring the consumer to run a
// live engine. Records round-trip exactly: Decode(Encode(r)) reproduces r
// field-for-field, including whitespace-only text nodes and the bit
// pattern of float arguments, which the XML serializer cannot promise.
//
// Two encodings are provided over the same Record:
//
//   - a compact length-prefixed binary form (Encode/Decode), used by the
//     outbox segment log, deterministic byte-for-byte for equal records;
//   - a JSON form (AppendJSON/MarshalJSON/UnmarshalJSON), for file/pipe
//     consumers that want self-describing deltas greppable without this
//     package.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// Record is one serialized trigger invocation. Seq is the outbox sequence
// number (0 until assigned by an append); the remaining fields mirror
// core.Invocation.
type Record struct {
	Seq     uint64
	Trigger string
	Event   reldb.Event
	Old     *xdm.Node // nil for INSERT events
	New     *xdm.Node // nil for DELETE events
	Args    []xdm.Value
}

// Format versioning: a consumer rejecting an unknown version is how the
// log stays replayable across releases.
const (
	magic   = 0xA7 // first byte of every binary record
	version = 1
)

// Value kind tags in the binary form (decoupled from xdm.Kind's numeric
// values so the wire format survives internal enum reordering).
const (
	tagNull  = 0
	tagFalse = 1
	tagTrue  = 2
	tagInt   = 3
	tagFloat = 4
	tagStr   = 5
	tagNode  = 6
	tagSeq   = 7
)

// Node kind tags.
const (
	tagElem = 0
	tagAttr = 1
	tagText = 2
)

// maxNodeDepth bounds decoder recursion: CRC framing catches bit-rot but
// not crafted input, and an unbounded nesting depth would let a few bytes
// per level overflow the stack instead of returning an error. Real view
// trees are a handful of levels deep; 10k is far beyond any of them.
const maxNodeDepth = 10000

// Encode renders the record in the deterministic binary form.
func Encode(r *Record) []byte {
	return AppendEncode(nil, r)
}

// AppendEncode appends the record's binary form to dst and returns the
// extended slice.
func AppendEncode(dst []byte, r *Record) []byte {
	return AppendEncodeMemo(dst, r, nil)
}

// AppendEncodeMemo is AppendEncode that copies a node's bytes from m
// wherever m has seen the node before (see Memo); a nil m walks every node.
// The bytes are AppendEncode's.
func AppendEncodeMemo(dst []byte, r *Record, m *Memo) []byte {
	dst = append(dst, magic, version)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = appendString(dst, r.Trigger)
	dst = append(dst, byte(r.Event))
	dst = appendMaybeNode(dst, r.Old, m)
	dst = appendMaybeNode(dst, r.New, m)
	dst = binary.AppendUvarint(dst, uint64(len(r.Args)))
	for _, a := range r.Args {
		dst = appendValue(dst, a, m)
	}
	return dst
}

// Decode parses a binary record. The whole input must be consumed:
// trailing bytes are an error, so framing bugs surface here rather than
// as silently skewed replays.
func Decode(b []byte) (*Record, error) {
	d := &decoder{b: b}
	r, err := d.record()
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after record", len(d.b)-d.pos)
	}
	return r, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValue(dst []byte, v xdm.Value, m *Memo) []byte {
	switch v.Kind() {
	case xdm.KindNull:
		return append(dst, tagNull)
	case xdm.KindBool:
		if v.AsBool() {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case xdm.KindInt:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, v.AsInt())
	case xdm.KindFloat:
		dst = append(dst, tagFloat)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case xdm.KindString:
		dst = append(dst, tagStr)
		return appendString(dst, v.AsString())
	case xdm.KindNode:
		dst = append(dst, tagNode)
		return memoized(dst, v.AsNode(), m, appendNode)
	case xdm.KindSeq:
		dst = append(dst, tagSeq)
		seq := v.AsSeq()
		dst = binary.AppendUvarint(dst, uint64(len(seq)))
		for _, e := range seq {
			dst = appendValue(dst, e, m)
		}
		return dst
	default:
		// Unreachable with the current xdm kinds; encode as null so the
		// record stays parseable.
		return append(dst, tagNull)
	}
}

func appendMaybeNode(dst []byte, n *xdm.Node, m *Memo) []byte {
	if n == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return memoized(dst, n, m, appendNode)
}

// appendNode encodes the node structurally (kind, name, text, attributes,
// children) rather than as serialized XML: XML parsing normalizes
// whitespace-only text nodes away, which would break round-trip equality.
func appendNode(dst []byte, n *xdm.Node) []byte {
	switch n.Kind() {
	case xdm.ElementNode:
		dst = append(dst, tagElem)
		dst = appendString(dst, n.Name)
		dst = binary.AppendUvarint(dst, uint64(len(n.Attrs())))
		for _, a := range n.Attrs() {
			dst = appendString(dst, a.Name)
			dst = appendString(dst, a.Text())
		}
		dst = binary.AppendUvarint(dst, uint64(len(n.Children())))
		for _, c := range n.Children() {
			dst = appendNode(dst, c)
		}
		return dst
	case xdm.AttributeNode:
		dst = append(dst, tagAttr)
		dst = appendString(dst, n.Name)
		return appendString(dst, n.Text())
	default: // TextNode
		dst = append(dst, tagText)
		return appendString(dst, n.Text())
	}
}

type decoder struct {
	b     []byte
	pos   int
	depth int // current node-recursion depth
}

func (d *decoder) record() (*Record, error) {
	m, err := d.byte()
	if err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("wire: bad magic byte 0x%02x", m)
	}
	v, err := d.byte()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("wire: unsupported record version %d", v)
	}
	r := &Record{}
	if r.Seq, err = d.uvarint(); err != nil {
		return nil, err
	}
	if r.Trigger, err = d.string(); err != nil {
		return nil, err
	}
	ev, err := d.byte()
	if err != nil {
		return nil, err
	}
	if ev > byte(reldb.EvDelete) {
		return nil, fmt.Errorf("wire: unknown event %d", ev)
	}
	r.Event = reldb.Event(ev)
	if r.Old, err = d.maybeNode(); err != nil {
		return nil, err
	}
	if r.New, err = d.maybeNode(); err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, fmt.Errorf("wire: argument count %d exceeds input", n)
	}
	if n > 0 {
		r.Args = make([]xdm.Value, n)
		for i := range r.Args {
			if r.Args[i], err = d.value(); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, fmt.Errorf("wire: truncated record at offset %d", d.pos)
	}
	c := d.b[d.pos]
	d.pos++
	return c, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)-d.pos) {
		return "", fmt.Errorf("wire: string length %d exceeds input at offset %d", n, d.pos)
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) value() (xdm.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return xdm.Null, err
	}
	switch tag {
	case tagNull:
		return xdm.Null, nil
	case tagFalse:
		return xdm.False, nil
	case tagTrue:
		return xdm.True, nil
	case tagInt:
		i, err := d.varint()
		return xdm.Int(i), err
	case tagFloat:
		if len(d.b)-d.pos < 8 {
			return xdm.Null, fmt.Errorf("wire: truncated float at offset %d", d.pos)
		}
		bits := binary.BigEndian.Uint64(d.b[d.pos:])
		d.pos += 8
		return xdm.Float(math.Float64frombits(bits)), nil
	case tagStr:
		s, err := d.string()
		return xdm.Str(s), err
	case tagNode:
		n, err := d.node()
		return xdm.NodeVal(n), err
	case tagSeq:
		n, err := d.uvarint()
		if err != nil {
			return xdm.Null, err
		}
		if n > uint64(len(d.b)-d.pos) {
			return xdm.Null, fmt.Errorf("wire: sequence length %d exceeds input", n)
		}
		seq := make([]xdm.Value, n)
		for i := range seq {
			if seq[i], err = d.value(); err != nil {
				return xdm.Null, err
			}
		}
		return xdm.Seq(seq), nil
	default:
		return xdm.Null, fmt.Errorf("wire: unknown value tag %d at offset %d", tag, d.pos-1)
	}
}

func (d *decoder) maybeNode() (*xdm.Node, error) {
	present, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
		return d.node()
	default:
		return nil, fmt.Errorf("wire: bad node presence byte %d", present)
	}
}

func (d *decoder) node() (*xdm.Node, error) {
	if d.depth++; d.depth > maxNodeDepth {
		return nil, fmt.Errorf("wire: node nesting exceeds depth %d", maxNodeDepth)
	}
	defer func() { d.depth-- }()
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagElem:
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		na, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if na > uint64(len(d.b)-d.pos) {
			return nil, fmt.Errorf("wire: attribute count %d exceeds input", na)
		}
		var content []*xdm.Node // the attributes, then the children
		for i := uint64(0); i < na; i++ {
			name, err := d.string()
			if err != nil {
				return nil, err
			}
			text, err := d.string()
			if err != nil {
				return nil, err
			}
			content = append(content, xdm.Attr(name, text))
		}
		nc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nc > uint64(len(d.b)-d.pos) {
			return nil, fmt.Errorf("wire: child count %d exceeds input", nc)
		}
		for i := uint64(0); i < nc; i++ {
			c, err := d.node()
			if err != nil {
				return nil, err
			}
			content = append(content, c)
		}
		return xdm.NewNode(xdm.ElementNode, name, "", int(na), content), nil
	case tagAttr:
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		text, err := d.string()
		if err != nil {
			return nil, err
		}
		return xdm.Attr(name, text), nil
	case tagText:
		text, err := d.string()
		if err != nil {
			return nil, err
		}
		return xdm.TextNd(text), nil
	default:
		return nil, fmt.Errorf("wire: unknown node tag %d at offset %d", tag, d.pos-1)
	}
}

// Equal reports field-for-field record equality, the codec's round-trip
// contract: Equal(r, mustDecode(Encode(r))) for every valid r.
func Equal(a, b *Record) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Seq != b.Seq || a.Trigger != b.Trigger || a.Event != b.Event {
		return false
	}
	if !nodeEqual(a.Old, b.Old) || !nodeEqual(a.New, b.New) {
		return false
	}
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !valueEqual(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// nodeEqual is structural equality including attribute order and
// whitespace-only text nodes — stricter than xdm.(*Node).DeepEqual, which
// treats attributes as unordered. The codec preserves order, so Equal
// checks it.
func nodeEqual(a, b *xdm.Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	aa, ba, ac, bc := a.Attrs(), b.Attrs(), a.Children(), b.Children()
	if a.Kind() != b.Kind() || a.Name != b.Name || a.Text() != b.Text() || len(aa) != len(ba) || len(ac) != len(bc) {
		return false
	}
	for i := range aa {
		if aa[i].Name != ba[i].Name || aa[i].Text() != ba[i].Text() {
			return false
		}
	}
	for i := range ac {
		if !nodeEqual(ac[i], bc[i]) {
			return false
		}
	}
	return true
}

// valueEqual distinguishes kinds the way the codec does: unlike xdm.Equal
// it does not unify 2 (int) with 2.0 (float), and it compares floats by
// bit pattern so NaN round-trips count as equal.
func valueEqual(a, b xdm.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case xdm.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case xdm.KindNode:
		return nodeEqual(a.AsNode(), b.AsNode())
	case xdm.KindSeq:
		as, bs := a.AsSeq(), b.AsSeq()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !valueEqual(as[i], bs[i]) {
				return false
			}
		}
		return true
	default:
		return xdm.Equal(a, b)
	}
}

// --- JSON form ---

// jsonRecord is the JSON shape of a Record: every field self-describing,
// large integers carried as strings so no consumer mangles them through
// float64. UnmarshalJSON decodes through these structs; AppendJSON writes
// the same shape by hand.
type jsonRecord struct {
	Seq     uint64      `json:"seq"`
	Trigger string      `json:"trigger"`
	Event   string      `json:"event"`
	Old     *jsonNode   `json:"old,omitempty"`
	New     *jsonNode   `json:"new,omitempty"`
	Args    []jsonValue `json:"args,omitempty"`
}

type jsonNode struct {
	Kind     string      `json:"kind"`
	Name     string      `json:"name,omitempty"`
	Text     string      `json:"text,omitempty"`
	Attrs    [][2]string `json:"attrs,omitempty"`
	Children []*jsonNode `json:"children,omitempty"`
}

type jsonValue struct {
	Kind  string      `json:"kind"`
	Bool  *bool       `json:"bool,omitempty"`
	Int   *string     `json:"int,omitempty"` // decimal string: exact int64
	Float *string     `json:"float,omitempty"`
	Str   *string     `json:"str,omitempty"`
	Node  *jsonNode   `json:"node,omitempty"`
	Seq   []jsonValue `json:"seq,omitempty"`
}

// MarshalJSON renders the record in the self-describing JSON form; see
// AppendJSON.
func (r *Record) MarshalJSON() ([]byte, error) {
	return AppendJSON(nil, r), nil
}

// AppendJSON appends the record's JSON form to dst and returns the extended
// slice. It walks the record once and writes straight into dst — no
// intermediate tree, no reflection — producing exactly the bytes
// json.Marshal produces for the jsonRecord shape: fixed field order; empty
// names, texts, attribute and child lists, sequences and absent OLD/NEW
// nodes omitted; ints as decimal strings; floats as the hex digits of
// their IEEE bit pattern, so no consumer mangles them through a decimal
// round trip; strings escaped as appendJSONString describes.
func AppendJSON(dst []byte, r *Record) []byte {
	return AppendJSONMemo(dst, r, nil)
}

// AppendJSONMemo is AppendJSON that copies a node's bytes from m wherever
// m has seen the node before (see Memo); a nil m walks every node. The
// bytes are AppendJSON's.
func AppendJSONMemo(dst []byte, r *Record, m *Memo) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"trigger":`...)
	dst = appendJSONString(dst, r.Trigger)
	dst = append(dst, `,"event":`...)
	dst = appendJSONString(dst, r.Event.String())
	if r.Old != nil {
		dst = append(dst, `,"old":`...)
		dst = memoized(dst, r.Old, m, appendJSONNode)
	}
	if r.New != nil {
		dst = append(dst, `,"new":`...)
		dst = memoized(dst, r.New, m, appendJSONNode)
	}
	if len(r.Args) > 0 {
		dst = append(dst, `,"args":`...)
		dst = appendJSONValues(dst, r.Args, m)
	}
	return append(dst, '}')
}

func appendJSONNode(dst []byte, n *xdm.Node) []byte {
	if n == nil {
		return append(dst, "null"...)
	}
	switch n.Kind() {
	case xdm.ElementNode:
		dst = append(dst, `{"kind":"elem"`...)
	case xdm.AttributeNode:
		dst = append(dst, `{"kind":"attr"`...)
	default:
		dst = append(dst, `{"kind":"text"`...)
	}
	if n.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendJSONString(dst, n.Name)
	}
	if t := n.Text(); t != "" {
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, t)
	}
	if len(n.Attrs()) > 0 {
		dst = append(dst, `,"attrs":[`...)
		for i, a := range n.Attrs() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			dst = appendJSONString(dst, a.Name)
			dst = append(dst, ',')
			dst = appendJSONString(dst, a.Text())
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if len(n.Children()) > 0 {
		dst = append(dst, `,"children":[`...)
		for i, c := range n.Children() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONNode(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendJSONValues(dst []byte, vs []xdm.Value, m *Memo) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONValue(dst, v, m)
	}
	return append(dst, ']')
}

func appendJSONValue(dst []byte, v xdm.Value, m *Memo) []byte {
	switch v.Kind() {
	case xdm.KindBool:
		if v.AsBool() {
			return append(dst, `{"kind":"bool","bool":true}`...)
		}
		return append(dst, `{"kind":"bool","bool":false}`...)
	case xdm.KindInt:
		dst = append(dst, `{"kind":"int","int":"`...)
		dst = strconv.AppendInt(dst, v.AsInt(), 10)
		return append(dst, `"}`...)
	case xdm.KindFloat:
		// Hex float form: exact bits, no shortest-representation parsing
		// subtleties across JSON implementations.
		dst = append(dst, `{"kind":"float","float":"`...)
		dst = strconv.AppendUint(dst, math.Float64bits(v.AsFloat()), 16)
		return append(dst, `"}`...)
	case xdm.KindString:
		dst = append(dst, `{"kind":"str","str":`...)
		dst = appendJSONString(dst, v.AsString())
		return append(dst, '}')
	case xdm.KindNode:
		dst = append(dst, `{"kind":"node","node":`...)
		dst = memoized(dst, v.AsNode(), m, appendJSONNode)
		return append(dst, '}')
	case xdm.KindSeq:
		seq := v.AsSeq()
		if len(seq) == 0 {
			return append(dst, `{"kind":"seq"}`...)
		}
		dst = append(dst, `{"kind":"seq","seq":`...)
		dst = appendJSONValues(dst, seq, m)
		return append(dst, '}')
	default:
		return append(dst, `{"kind":"null"}`...)
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped exactly as
// json.Marshal escapes it (HTML escaping on): a backslash before `"` and
// `\`; \b \f \n \r \t in their short forms; \u00XX for every other byte
// below 0x20 and for `<`, `>` and `&`; \u2028 and \u2029 for the two
// JavaScript line separators; \ufffd for each byte of invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSON parses the JSON form produced by MarshalJSON.
func (r *Record) UnmarshalJSON(b []byte) error {
	var jr jsonRecord
	if err := json.Unmarshal(b, &jr); err != nil {
		return err
	}
	ev, err := parseEvent(jr.Event)
	if err != nil {
		return err
	}
	oldNode, err := fromJSONNode(jr.Old)
	if err != nil {
		return err
	}
	newNode, err := fromJSONNode(jr.New)
	if err != nil {
		return err
	}
	args, err := fromJSONValues(jr.Args)
	if err != nil {
		return err
	}
	*r = Record{Seq: jr.Seq, Trigger: jr.Trigger, Event: ev, Old: oldNode, New: newNode, Args: args}
	return nil
}

func parseEvent(s string) (reldb.Event, error) {
	for _, ev := range []reldb.Event{reldb.EvInsert, reldb.EvUpdate, reldb.EvDelete} {
		if ev.String() == s {
			return ev, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown event %q", s)
}

// ShapeError is the JSON decoder's error for a node its kind cannot hold:
// an element with text, or an attribute or text node with attributes or
// children. AppendJSON never writes one, and the binary form cannot express
// one.
type ShapeError struct {
	Kind  string // the node's "kind": "elem", "attr" or "text"
	Name  string // the node's name
	Field string // what its kind cannot hold: "text", "attrs" or "children"
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("wire: %s node %q has %s, which its kind cannot hold", e.Kind, e.Name, e.Field)
}

// fromJSONNode needs no explicit depth cap: encoding/json itself rejects
// documents nested deeper than 10000, which bounds this recursion.
func fromJSONNode(jn *jsonNode) (*xdm.Node, error) {
	if jn == nil {
		return nil, nil
	}
	switch jn.Kind {
	case "elem":
		if jn.Text != "" {
			return nil, &ShapeError{Kind: jn.Kind, Name: jn.Name, Field: "text"}
		}
	case "attr", "text":
		switch {
		case len(jn.Attrs) > 0:
			return nil, &ShapeError{Kind: jn.Kind, Name: jn.Name, Field: "attrs"}
		case len(jn.Children) > 0:
			return nil, &ShapeError{Kind: jn.Kind, Name: jn.Name, Field: "children"}
		}
		k := xdm.AttributeNode
		if jn.Kind == "text" {
			k = xdm.TextNode
		}
		return xdm.NewNode(k, jn.Name, jn.Text, 0, nil), nil
	default:
		return nil, fmt.Errorf("wire: unknown node kind %q", jn.Kind)
	}
	content := make([]*xdm.Node, 0, len(jn.Attrs)+len(jn.Children)) // the attributes, then the children
	for _, a := range jn.Attrs {
		content = append(content, xdm.Attr(a[0], a[1]))
	}
	for _, jc := range jn.Children {
		c, err := fromJSONNode(jc)
		if err != nil {
			return nil, err
		}
		content = append(content, c)
	}
	return xdm.NewNode(xdm.ElementNode, jn.Name, "", len(jn.Attrs), content), nil
}

func fromJSONValues(js []jsonValue) ([]xdm.Value, error) {
	if len(js) == 0 {
		return nil, nil
	}
	out := make([]xdm.Value, len(js))
	for i, jv := range js {
		v, err := fromJSONValue(jv)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func fromJSONValue(jv jsonValue) (xdm.Value, error) {
	switch jv.Kind {
	case "null":
		return xdm.Null, nil
	case "bool":
		if jv.Bool == nil {
			return xdm.Null, fmt.Errorf("wire: bool value missing payload")
		}
		return xdm.Bool(*jv.Bool), nil
	case "int":
		if jv.Int == nil {
			return xdm.Null, fmt.Errorf("wire: int value missing payload")
		}
		// strconv, not Sscanf: the decoder must reject trailing garbage.
		i, err := strconv.ParseInt(*jv.Int, 10, 64)
		if err != nil {
			return xdm.Null, fmt.Errorf("wire: bad int %q: %w", *jv.Int, err)
		}
		return xdm.Int(i), nil
	case "float":
		if jv.Float == nil {
			return xdm.Null, fmt.Errorf("wire: float value missing payload")
		}
		bits, err := strconv.ParseUint(*jv.Float, 16, 64)
		if err != nil {
			return xdm.Null, fmt.Errorf("wire: bad float bits %q: %w", *jv.Float, err)
		}
		return xdm.Float(math.Float64frombits(bits)), nil
	case "str":
		if jv.Str == nil {
			return xdm.Null, fmt.Errorf("wire: string value missing payload")
		}
		return xdm.Str(*jv.Str), nil
	case "node":
		if jv.Node == nil {
			return xdm.Null, fmt.Errorf("wire: node value missing payload")
		}
		n, err := fromJSONNode(jv.Node)
		return xdm.NodeVal(n), err
	case "seq":
		vs, err := fromJSONValues(jv.Seq)
		if err != nil {
			return xdm.Null, err
		}
		if vs == nil {
			vs = []xdm.Value{}
		}
		return xdm.Seq(vs), nil
	default:
		return xdm.Null, fmt.Errorf("wire: unknown value kind %q", jv.Kind)
	}
}
