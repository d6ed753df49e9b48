// Package xdm implements the data model shared by every layer of the
// system: relational column values, XQGM tuple values, and XML nodes.
// It is a small, self-contained analogue of the XQuery 1.0 data model
// restricted to the types the paper's XQuery subset (Appendix D) needs.
package xdm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNode holds a single XML node; KindSeq holds
// an ordered sequence of values (typically nodes produced by aggXMLFrag).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindNode
	KindSeq
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindNode:
		return "node"
	case KindSeq:
		return "sequence"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed value. The zero Value is Null. Values are
// immutable by convention: operations return new Values.
//
// The struct is 24 bytes: every tuple cell, stored row and transition table
// is made of these, so its size is paid on every copy and scanned on every
// GC cycle. num carries the one numeric payload a value can have (0/1 for
// bool, the int64 bits for int, the IEEE bits for float, the byte length for
// a string). A value refers to at most one thing on the heap, so there is
// one pointer, and kind says what it points to: a string's bytes, a *Node,
// or a sequence's first element. A string and a sequence keep their length
// in num, so neither boxes a header on the heap. ptr is nil for every other
// kind and for the empty string and the nil sequence, which therefore pin
// nothing.
//
// The casts that recover the typed pointer are, with Node's (nodeRef,
// below), the only unsafe code in the module: the constructors Str, NodeVal
// and Seq store ptr, the accessors str, node and seq read it back, and
// nothing else touches it. The one other cast, in PointerFreeValues, views
// pointer-free memory as Values for the values whose ptr is nil.
//
// Never compare Values with == or use one as a map key: with a pointer to
// string data that would compare addresses, not contents. The first field
// makes either a compile error (placed first it costs nothing; Go pads a
// trailing zero-size field). Use Equal, Compare, Key or CompKey. For the
// same reason reflect.DeepEqual over a Value compares the address of a
// string, not its bytes; no test in the tree lets one reach a Value.
type Value struct {
	_    [0]func() // not comparable
	kind Kind
	num  uint64
	ptr  unsafe.Pointer
}

// Null is the null (absent) value.
var Null = Value{kind: KindNull}

// True and False are the boolean constants.
var (
	True  = Value{kind: KindBool, num: 1}
	False = Value{kind: KindBool}
)

// Bool returns a boolean Value.
func Bool(b bool) Value {
	if b {
		return True
	}
	return False
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// Str returns a string Value.
func Str(s string) Value {
	if s == "" {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, num: uint64(len(s)), ptr: unsafe.Pointer(unsafe.StringData(s))}
}

// NodeVal wraps an XML node as a Value. A nil node yields Null.
func NodeVal(n *Node) Value {
	if n == nil {
		return Null
	}
	return Value{kind: KindNode, ptr: unsafe.Pointer(n)}
}

// Seq returns a sequence Value over vs. The slice is not copied; its spare
// capacity is not kept, so an append to what AsSeq returns never writes into
// vs.
func Seq(vs []Value) Value {
	return Value{kind: KindSeq, num: uint64(len(vs)), ptr: unsafe.Pointer(unsafe.SliceData(vs))}
}

// str returns the string content. Invariant: kind == KindString, so Str
// stored ptr and num as the data pointer and length of one string (nil and
// 0 for the empty one).
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), int(v.num)) }

// node returns the node. Invariant: kind == KindNode, so NodeVal stored
// ptr from a non-nil *Node.
func (v Value) node() *Node { return (*Node)(v.ptr) }

// seq returns the sequence. Invariant: kind == KindSeq, so Seq stored ptr
// and num as the data pointer and length of one slice (nil and 0 for a nil
// one, which comes back nil).
func (v Value) seq() []Value { return unsafe.Slice((*Value)(v.ptr), int(v.num)) }

// nodeRef is a Node's one pointer: an attribute's or text node's bytes, or
// an element's content list (its first entry), with the length kept beside
// it in the Node. It is nil for an empty text or list, so it never points
// past the end of anything. Like Value's ptr it is only ever set from a
// string's or slice's data pointer, which the collector follows, and only
// textRef, listRef, text and list touch it.
type nodeRef struct{ p unsafe.Pointer }

// textRef refers to the bytes of s.
func textRef(s string) nodeRef {
	if s == "" {
		return nodeRef{}
	}
	return nodeRef{unsafe.Pointer(unsafe.StringData(s))}
}

// listRef refers to the entries of l.
func listRef(l []*Node) nodeRef {
	if len(l) == 0 {
		return nodeRef{}
	}
	return nodeRef{unsafe.Pointer(unsafe.SliceData(l))}
}

// text returns the n bytes textRef referred to as a string.
func (r nodeRef) text(n uint32) string { return unsafe.String((*byte)(r.p), int(n)) }

// list returns the n entries listRef referred to; the slice has no spare
// capacity.
func (r nodeRef) list(n uint32) []*Node { return unsafe.Slice((**Node)(r.p), int(n)) }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean content; callers must check Kind first.
func (v Value) AsBool() bool { return v.kind == KindBool && v.b() }

// b, i and f decode the numeric word; callers have checked the kind.
func (v Value) b() bool    { return v.num != 0 }
func (v Value) i() int64   { return int64(v.num) }
func (v Value) f() float64 { return math.Float64frombits(v.num) }

// AsInt returns the integer content, converting floats by truncation.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.i()
	case KindFloat:
		return int64(v.f())
	default:
		return 0
	}
}

// AsFloat returns the numeric content as float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i())
	case KindFloat:
		return v.f()
	default:
		return 0
	}
}

// AsString returns the string content; for non-strings it returns the
// canonical lexical form (like XQuery fn:string).
func (v Value) AsString() string {
	switch v.kind {
	case KindString:
		return v.str()
	default:
		return v.Lexical()
	}
}

// AsNode returns the node content or nil.
func (v Value) AsNode() *Node {
	if v.kind != KindNode {
		return nil
	}
	return v.node()
}

// AsSeq returns the contained sequence. A single node or scalar is treated
// as a singleton sequence; Null is the empty sequence.
func (v Value) AsSeq() []Value {
	switch v.kind {
	case KindSeq:
		return v.seq()
	case KindNull:
		return nil
	default:
		return []Value{v}
	}
}

// SeqLen returns the length of the value viewed as a sequence.
func (v Value) SeqLen() int {
	switch v.kind {
	case KindSeq:
		return len(v.seq())
	case KindNull:
		return 0
	default:
		return 1
	}
}

// PointerFree reports whether the value holds no Go pointer: null, a bool,
// an int, a float or the empty string. Only such values may be stored in
// memory from PointerFreeValues.
func (v Value) PointerFree() bool { return v.ptr == nil }

// PointerFreeValues returns n zero Values in memory allocated as
// pointer-free, which the garbage collector never scans: it keeps the
// memory alive while anything points into it, but never looks inside. Only
// values whose PointerFree holds may be stored there; a pointer written into
// it is invisible to the collector, which may then free what it points to.
func PointerFreeValues(n int) []Value {
	words := make([]uint64, n*int(unsafe.Sizeof(Value{})/unsafe.Sizeof(uint64(0))))
	return unsafe.Slice((*Value)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Lexical returns the canonical lexical representation used for tagging
// values into XML text and for string comparison of typed values.
func (v Value) Lexical() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindBool:
		if v.b() {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		var buf [32]byte
		return string(v.appendNumber(buf[:0]))
	case KindString:
		return v.str()
	case KindNode:
		return v.node().Serialize(false)
	case KindSeq:
		var sb strings.Builder
		for _, e := range v.seq() {
			sb.WriteString(e.Lexical())
		}
		return sb.String()
	default:
		return ""
	}
}

// appendNumber appends the lexical form of an int or a float to dst.
func (v Value) appendNumber(dst []byte) []byte {
	if v.kind == KindInt {
		return strconv.AppendInt(dst, v.i(), 10)
	}
	f := v.f()
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		// Render integral floats the way a DECIMAL column would. The
		// digits are the integer's (FormatFloat's fixed-precision path
		// is multi-precision arithmetic, and this runs once per tagged
		// value); only -0 needs its sign spelled out.
		if f == 0 && math.Signbit(f) {
			return append(dst, "-0.00"...)
		}
		return append(strconv.AppendInt(dst, int64(f), 10), ".00"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// String implements fmt.Stringer with a debugging-oriented form.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return strconv.Quote(v.str())
	case KindSeq:
		seq := v.seq()
		parts := make([]string, len(seq))
		for i, e := range seq {
			parts[i] = e.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	default:
		return v.Lexical()
	}
}

// EffectiveBool computes the XQuery effective boolean value: false for
// null/empty, the value itself for bool, non-zero for numerics, non-empty
// for strings, true for any node or non-empty sequence.
func (v Value) EffectiveBool() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool:
		return v.b()
	case KindInt:
		return v.i() != 0
	case KindFloat:
		return v.f() != 0
	case KindString:
		return v.str() != ""
	case KindNode:
		return true
	case KindSeq:
		return len(v.seq()) > 0
	default:
		return false
	}
}

// Compare orders two values. Nulls sort first; two ints compare exactly
// (float promotion would tie ids above 2^53 that Equal tells apart);
// values of different kinds are ordered by numeric promotion when both are
// numeric, else by their lexical form. Returns -1, 0, or 1.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind == KindInt && b.kind == KindInt {
		return cmp.Compare(a.i(), b.i())
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind == KindBool && b.kind == KindBool {
		switch {
		case !a.b() && b.b():
			return -1
		case a.b() && !b.b():
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.AsString(), b.AsString())
}

// Equal reports deep equality of two values. Node values compare by deep
// structural equality (the paper's tagger-level OLD_NODE = NEW_NODE check).
func Equal(a, b Value) bool {
	if a.kind != b.kind {
		if a.IsNumeric() && b.IsNumeric() {
			return a.AsFloat() == b.AsFloat()
		}
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindBool:
		return a.b() == b.b()
	case KindInt:
		return a.i() == b.i()
	case KindFloat:
		return a.f() == b.f()
	case KindString:
		return a.str() == b.str()
	case KindNode:
		return a.node().DeepEqual(b.node())
	case KindSeq:
		as, bs := a.seq(), b.seq()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !Equal(as[i], bs[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Key returns a string usable as a map key that distinguishes values the
// way Equal does for scalar kinds. Node and sequence values key by their
// serialized form.
func (v Value) Key() string {
	switch v.kind {
	case KindNode:
		return "\x00n" + v.node().Serialize(false)
	case KindSeq:
		var sb strings.Builder
		sb.WriteString("\x00q")
		for _, e := range v.seq() {
			k := e.Key()
			sb.WriteString(strconv.Itoa(len(k)))
			sb.WriteByte(':')
			sb.WriteString(k)
		}
		return sb.String()
	case KindString:
		return "\x00s" + v.str()
	}
	var buf [40]byte
	return string(v.appendScalarKey(buf[:0]))
}

// appendScalarKey appends Key of a value that is neither a string, a node nor
// a sequence; at most 32 bytes.
func (v Value) appendScalarKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "\x00N"...)
	case KindBool:
		if v.b() {
			return append(dst, "\x00T"...)
		}
		return append(dst, "\x00F"...)
	case KindInt:
		return strconv.AppendInt(append(dst, "\x00i"...), v.i(), 10)
	case KindFloat:
		if i, ok := floatAsInt(v.f()); ok {
			// Integral floats key identically to ints so that numeric
			// promotion in Equal matches Key-based grouping.
			return strconv.AppendInt(append(dst, "\x00i"...), i, 10)
		}
		return strconv.AppendFloat(append(dst, "\x00f"...), v.f(), 'b', -1, 64)
	default:
		return append(dst, "\x00?"...)
	}
}

// floatAsInt returns the int64 that f equals, if there is one: f is integral
// and inside [-2^63, 2^63). Outside that range (the infinities included)
// int64(f) is one and the same value for every f, so such floats must key by
// their own bits.
func floatAsInt(f float64) (int64, bool) {
	if f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
		return int64(f), true
	}
	return 0, false
}

// TupleKey concatenates the Keys of vs into a single composite map key: each
// one's length in decimal, a colon, the Key.
func TupleKey(vs []Value) string {
	var buf [64]byte
	return string(AppendTupleKey(buf[:0], vs))
}

// AppendTupleKey appends TupleKey(vs) to dst. Only a node or a sequence
// formats a string of its own on the way; a caller that orders rows by their
// TupleKey can keep every row's key in one buffer.
func AppendTupleKey(dst []byte, vs []Value) []byte {
	for _, v := range vs {
		switch v.kind {
		case KindString:
			s := v.str()
			dst = strconv.AppendInt(dst, int64(len(s)+2), 10)
			dst = append(append(dst, ":\x00s"...), s...)
		case KindNode, KindSeq:
			k := v.Key()
			dst = strconv.AppendInt(dst, int64(len(k)), 10)
			dst = append(append(dst, ':'), k...)
		default:
			var buf [40]byte
			k := v.appendScalarKey(buf[:0])
			dst = strconv.AppendInt(dst, int64(len(k)), 10)
			dst = append(append(dst, ':'), k...)
		}
	}
	return dst
}

// CompKey is a comparable image of a tuple's key columns, for use as a Go
// map key by grouping, hash joins and duplicate elimination. Two tuples get
// equal CompKeys exactly when their TupleKey strings are equal — so an
// integral float keys as the int it Equals, if an int64 does (floatAsInt) —
// but the common key, one scalar column, is built without formatting or
// allocating: the kind and the numeric word (or the string itself) are the
// key. Wider keys pack their columns into str with one allocation.
type CompKey struct {
	kind Kind
	num  uint64
	str  string
}

// kindTuple marks a CompKey over zero or several columns.
const kindTuple Kind = 0xff

// CompKey returns the key of a one-column tuple holding v.
func (v Value) CompKey() CompKey {
	switch v.kind {
	case KindNull, KindBool, KindInt:
		return CompKey{kind: v.kind, num: v.num}
	case KindFloat:
		f := v.f()
		if i, ok := floatAsInt(f); ok {
			return CompKey{kind: KindInt, num: uint64(i)}
		}
		if f != f {
			return CompKey{kind: KindFloat, num: math.Float64bits(math.NaN())}
		}
		return CompKey{kind: KindFloat, num: v.num}
	case KindString:
		return CompKey{kind: KindString, str: v.str()}
	default:
		// Nodes and sequences key by serialized form, as Key does.
		return CompKey{kind: v.kind, str: v.Key()}
	}
}

// NumKey is the pointer-free image of a CompKey that has no string part: 16
// bytes the collector never scans, for maps over numeric keys.
type NumKey struct {
	kind Kind
	num  uint64
}

// NumKey returns k without its string part and whether that loses nothing,
// which is exactly when the string part is empty: kind already tells the
// empty string and the zero-column tuple from each other and from the
// numeric kinds.
func (k CompKey) NumKey() (NumKey, bool) {
	return NumKey{kind: k.kind, num: k.num}, k.str == ""
}

// FoldKey folds the CompKey of v into the running hash h: values whose
// CompKeys are equal fold equally, so a hash of a tuple's key columns can file
// the tuple in a table that confirms a match by comparing the CompKeys. It
// allocates nothing for the scalar kinds.
func FoldKey(h uint64, v Value) uint64 {
	k := v.CompKey()
	h = mix64(h ^ uint64(k.kind)<<56 ^ mix64(k.num))
	if k.str != "" {
		h ^= maphash.String(keySeed, k.str)
	}
	return h
}

// keySeed seeds FoldKey's string hashing; a hash never reaches an output.
var keySeed = maphash.MakeSeed()

// mix64 is a 64-bit finalizer: every input bit moves every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// RowKey returns the key of the whole tuple t.
func RowKey(t []Value) CompKey {
	if len(t) == 1 {
		return t[0].CompKey()
	}
	var buf [64]byte
	b := buf[:0]
	for _, v := range t {
		b = v.CompKey().pack(b)
	}
	return CompKey{kind: kindTuple, str: string(b)}
}

// ColsKey returns the key of columns cols of t, in that order.
func ColsKey(t []Value, cols []int) CompKey {
	if len(cols) == 1 {
		return t[cols[0]].CompKey()
	}
	var buf [64]byte
	b := buf[:0]
	for _, c := range cols {
		b = t[c].CompKey().pack(b)
	}
	return CompKey{kind: kindTuple, str: string(b)}
}

// pack appends a self-delimiting encoding of a one-column key.
func (k CompKey) pack(b []byte) []byte {
	b = append(b, byte(k.kind))
	switch k.kind {
	case KindNull:
	case KindBool, KindInt, KindFloat:
		b = binary.BigEndian.AppendUint64(b, k.num)
	default:
		b = binary.AppendUvarint(b, uint64(len(k.str)))
		b = append(b, k.str...)
	}
	return b
}

// Compare orders keys deterministically (by kind, then number, then string);
// the order carries no meaning beyond being total and stable across runs.
func (k CompKey) Compare(o CompKey) int {
	if c := cmp.Compare(k.kind, o.kind); c != 0 {
		return c
	}
	if c := cmp.Compare(k.num, o.num); c != 0 {
		return c
	}
	return strings.Compare(k.str, o.str)
}

// Arith applies a binary arithmetic operator to numeric values. Null
// operands yield Null (SQL semantics). Supported ops: + - * div mod.
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("xdm: arithmetic %q on non-numeric values %s, %s", op, a.Kind(), b.Kind())
	}
	if a.kind == KindInt && b.kind == KindInt && op != "div" {
		x, y := a.i(), b.i()
		switch op {
		case "+":
			return Int(x + y), nil
		case "-":
			return Int(x - y), nil
		case "*":
			return Int(x * y), nil
		case "mod":
			if y == 0 {
				return Null, fmt.Errorf("xdm: mod by zero")
			}
			return Int(x % y), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	case "div":
		if y == 0 {
			return Null, fmt.Errorf("xdm: division by zero")
		}
		return Float(x / y), nil
	case "mod":
		if y == 0 {
			return Null, fmt.Errorf("xdm: mod by zero")
		}
		return Float(math.Mod(x, y)), nil
	default:
		return Null, fmt.Errorf("xdm: unknown arithmetic operator %q", op)
	}
}

// CompareOp evaluates a general comparison (=, !=, <, <=, >, >=) with SQL
// null semantics: any comparison involving Null is Null (returned as Null).
func CompareOp(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	var c int
	if a.kind == KindNode || b.kind == KindNode || a.kind == KindSeq || b.kind == KindSeq {
		// General comparison over sequences: true if any pair matches.
		as, bs := a.AsSeq(), b.AsSeq()
		for _, x := range as {
			for _, y := range bs {
				r, err := CompareOp(op, atomize(x), atomize(y))
				if err != nil {
					return Null, err
				}
				if r.EffectiveBool() {
					return True, nil
				}
			}
		}
		return False, nil
	}
	c = Compare(a, b)
	switch op {
	case "=":
		return Bool(c == 0), nil
	case "!=":
		return Bool(c != 0), nil
	case "<":
		return Bool(c < 0), nil
	case "<=":
		return Bool(c <= 0), nil
	case ">":
		return Bool(c > 0), nil
	case ">=":
		return Bool(c >= 0), nil
	default:
		return Null, fmt.Errorf("xdm: unknown comparison operator %q", op)
	}
}

// atomize extracts the typed value of a node (its text content, parsed as a
// number when possible), mirroring XQuery fn:data for our subset.
func atomize(v Value) Value {
	if v.kind != KindNode {
		return v
	}
	return ParseTyped(v.node().TextContent())
}

// Atomize is the exported form of atomize, applying fn:data semantics to
// nodes and mapping sequences element-wise.
func Atomize(v Value) Value {
	switch v.kind {
	case KindNode:
		return atomize(v)
	case KindSeq:
		seq := v.seq()
		out := make([]Value, len(seq))
		for i, e := range seq {
			out[i] = Atomize(e)
		}
		return Seq(out)
	default:
		return v
	}
}

// ParseTyped parses s into an Int or Float when it is a valid number, else
// returns it as a string value.
func ParseTyped(s string) Value {
	t := strings.TrimSpace(s)
	if t == "" {
		return Str(s)
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	return Str(s)
}
