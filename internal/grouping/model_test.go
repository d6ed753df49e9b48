package grouping

import (
	"slices"
	"strings"
	"testing"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// modelNames sort around each other: prefixes of one another, and bytes
// below, at and above the comma that separates names in TrigIDs.
var modelNames = []string{
	"t", "t!", "t-", "t,x", "t,", "tt", "t1", "t10", "t2", "u", "a", "t!t", "t-1", "tx", "T", "t0",
}

// modelConsts collide: Int(1) and Float(1) are one constant.
var modelConsts = []xdm.Value{xdm.Str("x"), xdm.Str("y"), xdm.Int(1), xdm.Float(1)}

type modelMember struct {
	name   string
	consts []xdm.Value // the condition's two, then any action arguments
}

// FuzzStoreModel replays a stream of joins and leaves against a store and
// a naive model — members by handle, in join order — and checks after
// every step that the store's size, version, join order, rows, listing
// and constants are the model's. A step is three bytes: an op, a name or
// handle, and the constants.
func FuzzStoreModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 2, 1, 0})                   // join, leave, leave a non-member
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 2, 1, 0})          // a row per constant; the last row moves into the hole
	f.Add([]byte{0, 0, 2, 0, 1, 3, 0, 2, 7})                   // Int(1) and Float(1) share a row
	f.Add([]byte{0, 0, 0x10, 0, 1, 0x20, 2, 1, 0, 0, 2, 0})    // action arguments; a handle reused without them
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 1, 1, 0, 3, 2, 0, 4, 2}) // labels that differ at a comma
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			return
		}
		tmpl := &xqgm.Logic{Op: "and", Args: []xqgm.Expr{
			&xqgm.Cmp{Op: "=", L: xqgm.Col(0), R: &ConstRef{Idx: 0}},
			&xqgm.Cmp{Op: "<", L: xqgm.Col(1), R: &ConstRef{Idx: 1}},
		}}
		s := NewStore(tmpl, 2)
		live := map[int32]modelMember{}
		var order []int32 // join order
		var version uint64
		for i := 0; i+2 < len(ops); i += 3 {
			op, arg, c := ops[i], ops[i+1], ops[i+2]
			if op%3 == 2 {
				h := int32(arg%24) - 1
				_, member := live[h]
				if got := s.Remove(h); got != member {
					t.Fatalf("step %d: Remove(%d) = %v, model says %v", i/3, h, got, member)
				}
				if member {
					delete(live, h)
					order = slices.DeleteFunc(order, func(m int32) bool { return m == h })
					version++
				}
			} else {
				name := modelNames[int(arg)%len(modelNames)]
				if slices.ContainsFunc(order, func(m int32) bool { return live[m].name == name }) {
					continue // names are unique
				}
				consts := []xdm.Value{modelConsts[c%4], xdm.Int(int64(c / 4 % 4))}
				for a := 0; a < int(c/16%4); a++ { // action arguments
					consts = append(consts, xdm.Str(name+"'s argument"))
				}
				h, err := s.Add(name, consts)
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := live[h]; dup {
					t.Fatalf("step %d: handle %d is live already", i/3, h)
				}
				live[h] = modelMember{name, consts}
				order = append(order, h)
				version++
			}
			checkStore(t, i/3, s, live, order, version)
		}
	})
}

func checkStore(t *testing.T, step int, s *Store, live map[int32]modelMember, order []int32, version uint64) {
	t.Helper()
	if s.Len() != len(live) || s.Version() != version {
		t.Fatalf("step %d: Len %d, Version %d; model %d, %d", step, s.Len(), s.Version(), len(live), version)
	}
	if got := s.Members(); !slices.Equal(got, order) {
		t.Fatalf("step %d: join order %v, want %v", step, got, order)
	}
	// The model's rows: its members' names by condition constants.
	rows := map[xdm.CompKey][]string{}
	for h, m := range live {
		if s.Name(h) != m.name {
			t.Fatalf("step %d: handle %d is %q, want %q", step, h, s.Name(h), m.name)
		}
		got := s.AppendConsts(nil, h)
		if len(got) != len(m.consts) || xdm.RowKey(got[:2]) != xdm.RowKey(m.consts[:2]) {
			t.Fatalf("step %d: %s's constants %v, want %v", step, m.name, got, m.consts)
		}
		for j := 2; j < len(got); j++ {
			if got[j].AsString() != m.consts[j].AsString() {
				t.Fatalf("step %d: %s's argument %v, want %v", step, m.name, got[j], m.consts[j])
			}
		}
		k := xdm.RowKey(m.consts[:2])
		rows[k] = append(rows[k], m.name)
	}
	tab := s.tab.Rows()
	if len(tab) != len(rows) {
		t.Fatalf("step %d: %d rows, model has %d", step, len(tab), len(rows))
	}
	labels := map[xdm.CompKey]string{}
	for k, names := range rows {
		slices.Sort(names)
		labels[k] = strings.Join(names, ",")
	}
	for _, r := range tab {
		var names []string
		for _, h := range s.RowMembers(r[0]) {
			names = append(names, s.Name(h))
		}
		if got, want := strings.Join(names, ","), labels[xdm.RowKey(r[1:])]; got != want || s.Label(r[0]) != want {
			t.Fatalf("step %d: row %v lists %q, labelled %q, want %q", step, r[1:], got, s.Label(r[0]), want)
		}
		for _, o := range tab {
			want := strings.Compare(labels[xdm.RowKey(r[1:])], labels[xdm.RowKey(o[1:])])
			if got := s.CompareIDs(r[0], o[0]); got != want {
				t.Fatalf("step %d: CompareIDs(%q, %q) = %d, want %d", step, labels[xdm.RowKey(r[1:])], labels[xdm.RowKey(o[1:])], got, want)
			}
		}
	}
	listed := s.tab.Listing()
	if len(listed) != len(rows) {
		t.Fatalf("step %d: listing has %d rows, model %d", step, len(listed), len(rows))
	}
	for j, r := range listed {
		if got, want := r[0].AsString(), labels[xdm.RowKey(r[1:])]; got != want {
			t.Fatalf("step %d: listed TrigIDs %q, want %q", step, got, want)
		}
		if j > 0 && xdm.TupleKey(listed[j-1][1:]) >= xdm.TupleKey(r[1:]) {
			t.Fatalf("step %d: listing out of order at row %d", step, j)
		}
	}
}
