package xdm

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Bool(true), KindBool},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("hi"), KindString},
		{NodeVal(Elem("a")), KindNode},
		{Seq([]Value{Int(1)}), KindSeq},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", c.v.Kind(), c.kind)
		}
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
	if NodeVal(nil).Kind() != KindNull {
		t.Error("NodeVal(nil) should be Null")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("AsInt")
	}
	if Float(7.9).AsInt() != 7 {
		t.Error("AsInt truncation")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("AsFloat promotion")
	}
	if Str("x").AsString() != "x" {
		t.Error("AsString")
	}
	if Int(12).AsString() != "12" {
		t.Error("AsString of int")
	}
	if Bool(true).AsBool() != true {
		t.Error("AsBool")
	}
}

func TestLexicalForms(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, ""},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-5), "-5"},
		{Float(100), "100.00"},
		{Float(120.5), "120.5"},
		{Str("abc"), "abc"},
	}
	for _, c := range cases {
		if got := c.v.Lexical(); got != c.want {
			t.Errorf("Lexical(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEffectiveBool(t *testing.T) {
	truthy := []Value{Bool(true), Int(1), Float(-2), Str("x"), NodeVal(Elem("a")), Seq([]Value{Null})}
	falsy := []Value{Null, Bool(false), Int(0), Float(0), Str(""), Seq(nil)}
	for _, v := range truthy {
		if !v.EffectiveBool() {
			t.Errorf("EffectiveBool(%v) = false, want true", v)
		}
	}
	for _, v := range falsy {
		if v.EffectiveBool() {
			t.Errorf("EffectiveBool(%v) = true, want false", v)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Int(1), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(1.5), Float(1.5), 0},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		// Ints compare exactly: above 2^53 float promotion would tie values
		// Equal tells apart, and key order assumes Compare == 0 iff Equal.
		{Int(1 << 53), Int(1<<53 + 1), -1},
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(math.MinInt64), Int(math.MaxInt64), -1},
	}
	for _, c := range cases {
		if (Compare(c.a, c.b) == 0) != Equal(c.a, c.b) {
			t.Errorf("Compare(%v, %v) == 0 disagrees with Equal", c.a, c.b)
		}
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualNumericPromotion(t *testing.T) {
	if !Equal(Int(3), Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Equal(Int(3), Float(3.1)) {
		t.Error("Int(3) should not equal Float(3.1)")
	}
	if !Equal(Null, Null) {
		t.Error("Null equals Null (for identity purposes)")
	}
	if Equal(Str("3"), Int(3)) {
		t.Error("string and int are not Equal")
	}
}

func TestKeyDistinguishesLikeEqual(t *testing.T) {
	vals := []Value{
		Null, Bool(true), Bool(false), Int(0), Int(1), Int(-1),
		Float(0.5), Float(1), Str(""), Str("a"), Str("1"),
		NodeVal(Elem("a")), NodeVal(Elem("b")),
		Seq([]Value{Int(1), Int(2)}), Seq([]Value{Int(1)}),
		// Floats outside [-2^63, 2^63): int64() of each is one and the same
		// value, Int(MinInt64)'s. Only -2^63 itself equals that int.
		Float(1e19), Float(2e19), Float(-3e30), Float(0x1p63), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(math.MinInt64), Float(-0x1p63),
	}
	for i, a := range vals {
		for j, b := range vals {
			eq := Equal(a, b)
			if ke := a.Key() == b.Key(); ke != eq {
				t.Errorf("vals[%d]=%v vals[%d]=%v: Key match %v but Equal %v", i, a, j, b, ke, eq)
			}
			if ke := a.CompKey() == b.CompKey(); ke != eq {
				t.Errorf("vals[%d]=%v vals[%d]=%v: CompKey match %v but Equal %v", i, a, j, b, ke, eq)
			}
		}
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Composite keys must not be confusable across boundaries.
	a := TupleKey([]Value{Str("ab"), Str("c")})
	b := TupleKey([]Value{Str("a"), Str("bc")})
	if a == b {
		t.Error("TupleKey must distinguish boundary placement")
	}
	c := TupleKey([]Value{Str("ab")})
	if a == c {
		t.Error("TupleKey must encode arity")
	}
}

func TestTupleKeyQuick(t *testing.T) {
	f := func(x, y string, n int64) bool {
		a := TupleKey([]Value{Str(x), Int(n), Str(y)})
		b := TupleKey([]Value{Str(x), Int(n), Str(y)})
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   string
		a, b Value
		want Value
	}{
		{"+", Int(2), Int(3), Int(5)},
		{"-", Int(2), Int(3), Int(-1)},
		{"*", Int(4), Int(3), Int(12)},
		{"mod", Int(7), Int(3), Int(1)},
		{"div", Int(7), Int(2), Float(3.5)},
		{"+", Float(1.5), Int(1), Float(2.5)},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Fatalf("Arith(%s): %v", c.op, err)
		}
		if !Equal(got, c.want) {
			t.Errorf("Arith(%v %s %v) = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if v, err := Arith("+", Null, Int(1)); err != nil || !v.IsNull() {
		t.Error("null propagation in Arith")
	}
	if _, err := Arith("div", Int(1), Int(0)); err == nil {
		t.Error("expected division-by-zero error")
	}
	if _, err := Arith("+", Str("a"), Int(1)); err == nil {
		t.Error("expected non-numeric error")
	}
}

func TestCompareOp(t *testing.T) {
	ops := map[string][3]bool{ // results for (1 vs 2), (2 vs 2), (3 vs 2)
		"=":  {false, true, false},
		"!=": {true, false, true},
		"<":  {true, false, false},
		"<=": {true, true, false},
		">":  {false, false, true},
		">=": {false, true, true},
	}
	for op, want := range ops {
		for i, a := range []Value{Int(1), Int(2), Int(3)} {
			got, err := CompareOp(op, a, Int(2))
			if err != nil {
				t.Fatal(err)
			}
			if got.AsBool() != want[i] {
				t.Errorf("CompareOp(%v %s 2) = %v, want %v", a, op, got, want[i])
			}
		}
	}
	if v, err := CompareOp("=", Null, Int(1)); err != nil || !v.IsNull() {
		t.Error("null comparison should yield Null")
	}
}

func TestCompareOpGeneralSequence(t *testing.T) {
	seq := Seq([]Value{Int(1), Int(5), Int(9)})
	got, err := CompareOp("=", seq, Int(5))
	if err != nil || !got.AsBool() {
		t.Error("general comparison: seq = 5 should be true")
	}
	got, err = CompareOp(">", seq, Int(8))
	if err != nil || !got.AsBool() {
		t.Error("general comparison: seq > 8 should be true (9 matches)")
	}
	got, err = CompareOp("<", seq, Int(1))
	if err != nil || got.AsBool() {
		t.Error("general comparison: seq < 1 should be false")
	}
}

func TestCompareOpNodeAtomization(t *testing.T) {
	n := Elem("price", TextNd("120.00"))
	got, err := CompareOp("=", NodeVal(n), Float(120))
	if err != nil {
		t.Fatal(err)
	}
	if !got.AsBool() {
		t.Error("node with text 120.00 should compare = 120")
	}
	got, err = CompareOp("<", NodeVal(n), Int(121))
	if err != nil || !got.AsBool() {
		t.Error("node < 121 should hold")
	}
}

func TestAtomize(t *testing.T) {
	n := Elem("a", TextNd("42"))
	if v := Atomize(NodeVal(n)); !Equal(v, Int(42)) {
		t.Errorf("Atomize elem = %v, want 42", v)
	}
	s := Seq([]Value{NodeVal(Elem("a", TextNd("1"))), Str("x")})
	out := Atomize(s)
	if out.SeqLen() != 2 || !Equal(out.AsSeq()[0], Int(1)) {
		t.Errorf("Atomize seq = %v", out)
	}
}

func TestParseTyped(t *testing.T) {
	if !Equal(ParseTyped("12"), Int(12)) {
		t.Error("ParseTyped int")
	}
	if !Equal(ParseTyped("1.5"), Float(1.5)) {
		t.Error("ParseTyped float")
	}
	if !Equal(ParseTyped("abc"), Str("abc")) {
		t.Error("ParseTyped string")
	}
	if !Equal(ParseTyped(""), Str("")) {
		t.Error("ParseTyped empty")
	}
}

func TestSeqHelpers(t *testing.T) {
	if Null.SeqLen() != 0 || Int(1).SeqLen() != 1 || Seq([]Value{Int(1), Int(2)}).SeqLen() != 2 {
		t.Error("SeqLen")
	}
	if len(Int(1).AsSeq()) != 1 || len(Null.AsSeq()) != 0 {
		t.Error("AsSeq")
	}
}

// A sequence keeps its elements' pointer and count, as a string does: the nil
// sequence reads back nil and pins nothing, an empty one reads back empty,
// and a nested sequence reads back the inner value itself.
func TestSeqRoundTrip(t *testing.T) {
	if s := Seq(nil); s.Kind() != KindSeq || s.AsSeq() != nil || s.SeqLen() != 0 || !s.PointerFree() {
		t.Errorf("Seq(nil) = %v kind %s, AsSeq %v, PointerFree %v", s, s.Kind(), s.AsSeq(), s.PointerFree())
	}
	if s := Seq([]Value{}); s.Kind() != KindSeq || s.AsSeq() == nil || s.SeqLen() != 0 || s.EffectiveBool() {
		t.Errorf("Seq([]Value{}) reads back %#v", s.AsSeq())
	}
	if !Equal(Seq(nil), Seq([]Value{})) || Seq(nil).Key() != Seq([]Value{}).Key() {
		t.Error("the nil and the empty sequence differ")
	}
	inner := []Value{Int(1), Str("two")}
	backing := []Value{Seq(inner), Float(3.5), Int(7)}
	outer := Seq(backing[:2])
	got := outer.AsSeq()
	if len(got) != 2 || cap(got) != 2 || &got[0] != &backing[0] {
		t.Fatalf("Seq(outer) reads back len %d cap %d over another array", len(got), cap(got))
	}
	if in := got[0].AsSeq(); len(in) != 2 || &in[0] != &inner[0] || !Equal(in[1], Str("two")) {
		t.Errorf("nested sequence reads back %v", in)
	}
	if outer.String() != `((1, "two"), 3.5)` || outer.Lexical() != "1two3.5" {
		t.Errorf("nested sequence prints %s / %s", outer.String(), outer.Lexical())
	}
	// An append to what AsSeq returned never writes into the backing array.
	_ = append(got, Null)
	if !Equal(backing[2], Int(7)) {
		t.Error("append wrote past the sequence")
	}
	if n := testing.AllocsPerRun(100, func() { _ = Seq(inner).SeqLen() }); n != 0 {
		t.Errorf("Seq allocates %.0f objects", n)
	}
}

// tupleKeyRef is TupleKey as it was first written: each value's Key, length
// prefixed, concatenated.
func tupleKeyRef(vs []Value) string {
	var b []byte
	for _, v := range vs {
		k := v.Key()
		b = append(append(strconv.AppendInt(b, int64(len(k)), 10), ':'), k...)
	}
	return string(b)
}

// AppendTupleKey writes exactly TupleKey's bytes, for every kind, and without
// allocating for the scalar ones.
func TestAppendTupleKey(t *testing.T) {
	vals := []Value{Null, True, False, Int(-1), Int(9), Int(10), Int(100), Int(math.MinInt64),
		Float(2.5), Float(-0.0), Float(1e300), Float(math.NaN()), Float(math.Inf(-1)), Float(0x1p63),
		Str(""), Str("x"), Str("a\x00b"), Str(string(make([]byte, 300))),
		NodeVal(Elem("e", TextNd("t"))), Seq([]Value{Int(1), Str("s")}), Seq(nil)}
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		tup := make([]Value, r.Intn(4))
		for i := range tup {
			tup[i] = vals[r.Intn(len(vals))]
		}
		want := tupleKeyRef(tup)
		if got := string(AppendTupleKey([]byte("pre"), tup)); got != "pre"+want {
			t.Fatalf("AppendTupleKey(%v) = %q, want %q", tup, got, want)
		}
		if got := TupleKey(tup); got != want {
			t.Fatalf("TupleKey(%v) = %q, want %q", tup, got, want)
		}
	}
	scalars := []Value{Int(-12345), Float(2.5), Str("abc"), Null, True}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = AppendTupleKey(buf[:0], scalars) }); n != 0 {
		t.Errorf("AppendTupleKey of scalars allocates %.0f objects", n)
	}
}

// randomScalar builds an arbitrary scalar value from a rand source.
func randomScalar(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63n(1000) - 500)
	case 3:
		return Float(float64(r.Int63n(1000))/4 - 100)
	default:
		const letters = "abcdexyz"
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return Str(string(b))
	}
}

func TestKeyEqualConsistencyQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomScalar(r))
			args[1] = reflect.ValueOf(randomScalar(r))
		},
	}
	f := func(a, b Value) bool {
		return (a.Key() == b.Key()) == Equal(a, b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCompareTotalOrderQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(randomScalar(r))
			}
		},
	}
	// Transitivity on a sampled triple.
	f := func(a, b, c Value) bool {
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLexicalIntegralFloatMatchesFormatFloat(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 42, -1234567, 1e14, -1e14, 999999999999999, 1001, 1e15, 2.5, -0.125} {
		want := strconv.FormatFloat(f, 'g', -1, 64)
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			want = strconv.FormatFloat(f, 'f', 2, 64)
		}
		if got := Float(f).Lexical(); got != want {
			t.Errorf("Lexical(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestValueIs24Bytes(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s != 24 {
		t.Errorf("Value is %d bytes, want 24: every tuple cell and stored row pays for it", s)
	}
	// `Value{} == Value{}` and `map[Value]T` must not compile: == would
	// compare the address of a string's bytes, not the bytes.
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: its leading [0]func() field is gone")
	}
}

// keyPool draws from few values on purpose, so that random tuples collide:
// ints and the floats that equal them, a non-integral float, look-alike
// strings, NULL, booleans, a node and a sequence.
func keyPool(rng *rand.Rand) Value {
	switch rng.Intn(10) {
	case 0:
		return Null
	case 1, 2:
		return Int(int64(rng.Intn(4) - 1))
	case 3, 4:
		return Float(float64(rng.Intn(4) - 1))
	case 5:
		return Float(float64(rng.Intn(3)) + 0.5)
	case 6:
		return Str([]string{"", "1", "1.00", "a", "\x00i1"}[rng.Intn(5)])
	case 7:
		return Bool(rng.Intn(2) == 0)
	case 8:
		return NodeVal(Elem("e", Attr("a", "1"), Attr("b", []string{"x", "y"}[rng.Intn(2)])))
	default:
		return Seq([]Value{Int(int64(rng.Intn(2))), Str("a")})
	}
}

// The typed keys must partition tuples exactly as the string keys they
// replaced in grouping, joining and duplicate elimination did.
func TestCompKeyPartitionsLikeTupleKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		width := 1 + rng.Intn(3)
		cols := rng.Perm(width)[:1+rng.Intn(width)]
		byOld, byRow, byCols := map[string]int{}, map[CompKey]int{}, map[CompKey]int{}
		byOldCols := map[string]int{}
		for i := 0; i < 40; i++ {
			tup := make([]Value, width)
			for c := range tup {
				tup[c] = keyPool(rng)
			}
			sub := make([]Value, len(cols))
			for j, c := range cols {
				sub[j] = tup[c]
			}
			// Each map remembers the first tuple seen with a key; the keys
			// agree iff every tuple maps to the same first tuple under both.
			old, row := TupleKey(tup), RowKey(tup)
			if _, ok := byOld[old]; !ok {
				byOld[old] = i
			}
			if _, ok := byRow[row]; !ok {
				byRow[row] = i
			}
			if byOld[old] != byRow[row] {
				t.Fatalf("round %d: RowKey splits %v differently from TupleKey", round, tup)
			}
			oldc, ck := TupleKey(sub), ColsKey(tup, cols)
			if _, ok := byOldCols[oldc]; !ok {
				byOldCols[oldc] = i
			}
			if _, ok := byCols[ck]; !ok {
				byCols[ck] = i
			}
			if byOldCols[oldc] != byCols[ck] {
				t.Fatalf("round %d: ColsKey%v splits %v differently from TupleKey", round, cols, tup)
			}
			if len(cols) == 1 && ck != tup[cols[0]].CompKey() {
				t.Fatalf("round %d: one-column ColsKey differs from Value.CompKey for %v", round, tup[cols[0]])
			}
		}
	}
}
