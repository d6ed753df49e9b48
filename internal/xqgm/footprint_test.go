package xqgm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"quark/internal/wire"
	"quark/internal/xdm"
)

// ctorCase is a random Project over a constants table: scalar columns, a
// column of sequences the constructor splices, and one element constructor
// reading them.
type ctorCase struct {
	rows []Tuple
	ctor *ElemCtor
}

const scalarCols = 4 // then the spliced column

func randScalar(r *rand.Rand) xdm.Value {
	switch r.Intn(7) {
	case 0:
		return xdm.Null
	case 1:
		return xdm.Int(int64(r.Intn(100))) // formatted without the text chunk
	case 2:
		return xdm.Int(r.Int63n(1<<40) - 1<<39)
	case 3:
		return xdm.Float(float64(r.Intn(20000) - 10000)) // integral: exactly sized
	case 4:
		return xdm.Float(r.NormFloat64() * 1e3) // sized for the longest float
	case 5:
		return xdm.Str(fmt.Sprintf("s%d", r.Intn(1000)))
	default:
		return xdm.Str("")
	}
}

func randCase(r *rand.Rand) ctorCase {
	// Items a spliced sequence holds: shared nodes, attribute nodes,
	// scalars and nested sequences.
	shared := []*xdm.Node{xdm.Elem("x", xdm.Attr("k", "1"), xdm.TextNd("t")), xdm.TextNd("u"), xdm.Elem("y")}
	item := func() xdm.Value {
		switch r.Intn(10) {
		case 0:
			return xdm.NodeVal(xdm.Attr(fmt.Sprintf("a%d", r.Intn(3)), "v"))
		case 1, 2:
			return randScalar(r)
		case 3:
			return xdm.Seq([]xdm.Value{randScalar(r), xdm.NodeVal(shared[r.Intn(len(shared))])})
		default:
			return xdm.NodeVal(shared[r.Intn(len(shared))])
		}
	}
	rows := make([]Tuple, 1+r.Intn(60))
	for i := range rows {
		t := make(Tuple, scalarCols+1)
		for c := 0; c < scalarCols; c++ {
			t[c] = randScalar(r)
		}
		if r.Intn(8) > 0 {
			seq := make([]xdm.Value, r.Intn(401))
			for k := range seq {
				seq[k] = item()
			}
			t[scalarCols] = xdm.Seq(seq)
		}
		rows[i] = t
	}
	col := func() Expr { return Col(r.Intn(scalarCols)) }
	field := func(name string) *ElemCtor { return &ElemCtor{Name: name, Children: []Expr{col()}} }
	ctor := &ElemCtor{Name: "r"}
	for a := r.Intn(4); a > 0; a-- {
		var e Expr = col()
		if r.Intn(4) == 0 {
			e = LitOf(randScalar(r))
		}
		ctor.Attrs = append(ctor.Attrs, AttrSpec{Name: fmt.Sprintf("at%d", a), E: e})
	}
	for k := r.Intn(5); k > 0; k-- {
		switch r.Intn(5) {
		case 0:
			ctor.Children = append(ctor.Children, Col(scalarCols))
		case 1:
			ctor.Children = append(ctor.Children, col())
		case 2:
			ctor.Children = append(ctor.Children, &SeqCtor{Items: []Expr{field("f"), field("g")}})
		case 3:
			ctor.Children = append(ctor.Children, LitOf(randScalar(r)))
		default:
			inner := field("n")
			inner.Attrs = []AttrSpec{{Name: "id", E: col()}}
			ctor.Children = append(ctor.Children, inner)
		}
	}
	return ctorCase{rows, ctor}
}

// checkFull fails unless every element list under n has no spare capacity.
func checkFull(t *testing.T, n *xdm.Node) {
	t.Helper()
	if kids := n.Children(); cap(kids) != len(kids) {
		t.Fatalf("<%s>: %d children, capacity %d", n.Name, len(kids), cap(kids))
	}
	for _, c := range n.Children() {
		checkFull(t, c)
	}
}

// A Project pass that cuts its blocks from the footprint Prepare recorded
// builds what the constructor builds with a zero Chunks, object by object:
// equal trees, equal wire and JSON encodings, and full lists. Its footprint
// counts exactly the nodes the pass builds. Passes run over up to 60 tuples
// splicing up to 400 items each, so they cross block bounds.
func TestFootprintPassesMatchTheZeroChunks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		c := randCase(r)
		root := NewProject(NewConstants([]string{"a", "b", "c", "d", "s"}, c.rows), Proj{Name: "r", E: c.ctor})
		if err := Prepare(root); err != nil {
			t.Fatal(err)
		}
		ctx := NewEvalContext(nil, nil)
		out, err := ctx.Eval(root)
		if err != nil {
			t.Fatal(err)
		}
		var want xdm.Footprint
		for _, row := range c.rows {
			want = want.Add(root.prep.ctor.of(row))
		}
		if ctx.Stats.NodesBuilt != want.Nodes {
			t.Fatalf("case %d (%s): the pass built %d nodes, its footprint %d", i, c.ctor, ctx.Stats.NodesBuilt, want.Nodes)
		}
		for k, row := range c.rows {
			env := &Env{}
			env.In[0] = row
			ref, err := c.ctor.Eval(env)
			if err != nil {
				t.Fatal(err)
			}
			got, exp := out[k][0].AsNode(), ref.AsNode()
			if !got.DeepEqual(exp) {
				t.Fatalf("case %d tuple %d: %s, want %s", i, k, got.Serialize(false), exp.Serialize(false))
			}
			g, e := &wire.Record{New: got, Args: out[k]}, &wire.Record{New: exp, Args: []xdm.Value{ref}}
			if !bytes.Equal(wire.Encode(g), wire.Encode(e)) || !bytes.Equal(wire.AppendJSON(nil, g), wire.AppendJSON(nil, e)) {
				t.Fatalf("case %d tuple %d: encodings differ for %s", i, k, got.Serialize(false))
			}
			checkFull(t, got)
		}
	}
}
