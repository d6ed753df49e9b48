package xdm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A node reaches its text or its list only through the one pointer it keeps
// untyped. Trees built by every constructor and kept only by their roots
// must survive collections while the memory around them is freed and
// reused, and read back as they were built. Under -race checkptr checks
// every cast that reads them.
func TestNodesSurviveCollection(t *testing.T) {
	roots := survivalTrees(t)
	want := make([]string, len(roots))
	for i, n := range roots {
		want[i] = n.Serialize(false)
	}
	churn(6)
	for i, n := range roots {
		if got := n.Serialize(false); got != want[i] {
			t.Errorf("tree %d after collections:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// survivalTrees builds trees whose texts and lists nothing but the trees
// refers to: strings copied to the heap, numbers formatted into the chunks
// of a Chunks that is dropped, lists made and handed over, and a parsed
// document whose source is dropped.
func survivalTrees(t *testing.T) []*Node {
	var roots []*Node
	// Chunks cut to a footprint; a pass that spans several blocks.
	var c Chunks
	is, fs := args(400, func(k int) int64 { return int64(1000 + 7*k) }, func(k int) float64 { return float64(k) + 0.25 })
	roots = append(roots, buildPass(&c, is, fs)...)
	// A zero Chunks, object by object.
	var z Chunks
	for k := 0; k < 50; k++ {
		roots = append(roots, z.Elem("z", NodeVal(z.Attr("n", Int(int64(100000+k)))), Str(heap("text", k)), Float(float64(k)/3)))
	}
	// Elem, Attr and TextNd over heap strings; AppendChild and AppendContent
	// replacing the list.
	for k := 0; k < 50; k++ {
		e := Elem(heap("e", k), Attr(heap("a", k), heap("value", k)), TextNd(heap("t", k)), nil,
			Elem("inner", TextNd(heap("deep", k))))
		e.AppendChild(Attr("late", heap("late", k))).AppendChild(TextNd(heap("after", k)))
		e.AppendContent(&z, Str(heap("content", k)), NodeVal(TextNd(heap("shared", k))))
		roots = append(roots, e)
	}
	// NewNode over a list with spare capacity, which the node drops.
	for k := 0; k < 50; k++ {
		l := make([]*Node, 0, 8)
		l = append(l, NewNode(AttributeNode, "k", heap("v", k), 0, nil), NewNode(TextNode, "", heap("x", k), 0, nil))
		roots = append(roots, NewNode(ElementNode, heap("n", k), "", 1, l))
	}
	// Parse: names and texts are substrings of the source, which is dropped.
	for k := 0; k < 50; k++ {
		src := fmt.Sprintf(`<doc id="%d" esc="a&amp;b"><p>%s</p><q/>%s<r k="%s">x &lt; y</r></doc>`,
			k, strings.Repeat("p", k+1), heap("tail", k), heap("attr", k))
		n, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, n)
	}
	return roots
}

// heap returns a string of its own on the heap, referred to by nothing else.
func heap(prefix string, k int) string {
	return strings.Clone(fmt.Sprintf("%s-%d-%s", prefix, k, strings.Repeat("•", k%5)))
}

// churn collects rounds times, each time filling what was freed with
// garbage: byte runs of '#', lists of a '#' node and nodes holding '#'s, in
// the size classes texts, lists and nodes come from. Memory a tree lost
// reads back as '#'.
func churn(rounds int) {
	junk := TextNd(strings.Repeat("#", 64))
	var keep []any
	for r := 0; r < rounds; r++ {
		runtime.GC()
		keep = keep[:0]
		for size := 1; size <= 24<<10; size += size/4 + 1 {
			for k := 0; k < 32; k++ {
				keep = append(keep, []byte(strings.Repeat("#", size)))
				l := make([]*Node, size/8+1)
				for i := range l {
					l[i] = junk
				}
				keep = append(keep, l)
			}
		}
		for k := 0; k < 4096; k++ {
			keep = append(keep, TextNd(strings.Repeat("#", k%48+1)))
		}
	}
	runtime.KeepAlive(keep)
	runtime.GC()
}
