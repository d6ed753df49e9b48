package core

import (
	"fmt"
	"math/rand"
	"testing"

	"quark/internal/grouping"
)

// The name index finds every registered trigger and nothing else while
// triggers of several groups join and leave in random order, through
// growth and backward-shift deletion.
func TestTriggerTableFollowsAModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tt := newTriggerTable()
	var groups []*group
	for i := 0; i < 3; i++ {
		g := &group{members: grouping.NewStore(nil, 0)}
		tt.addGroup(g)
		groups = append(groups, g)
	}
	model := map[string]*group{}
	var names []string
	for step := 0; step < 5000; step++ {
		if len(names) > 0 && rng.Intn(3) == 0 {
			at := rng.Intn(len(names))
			name := names[at]
			names[at] = names[len(names)-1]
			names = names[:len(names)-1]
			g, h, slot := tt.find(name)
			if slot < 0 || g != model[name] {
				t.Fatalf("step %d: %s found in group %v, want %v", step, name, g, model[name])
			}
			tt.remove(slot)
			g.members.Remove(h)
			delete(model, name)
		} else {
			name := fmt.Sprintf("t%d", step)
			g := groups[rng.Intn(len(groups))]
			h, err := g.members.Add(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			tt.insert(g, h)
			model[name] = g
			names = append(names, name)
		}
		if tt.n != len(model) {
			t.Fatalf("step %d: %d entries, model has %d", step, tt.n, len(model))
		}
		if step%97 == 0 {
			for name, want := range model {
				if g, h, _ := tt.find(name); g != want || g.members.Name(h) != name {
					t.Fatalf("step %d: %s not found", step, name)
				}
			}
			if _, _, slot := tt.find(fmt.Sprintf("t%d", step+1)); slot >= 0 {
				t.Fatalf("step %d: an unregistered name was found", step)
			}
		}
	}
}
