package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// membershipSetup is a small Table 2 workload, 16 elements of 8 leaves,
// with no trigger registered yet.
func membershipSetup(t *testing.T, mode core.Mode) *workload.Setup {
	t.Helper()
	w, err := workload.Build(workload.Params{Depth: 2, LeafTuples: 128, Fanout: 8}, mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// setPayload gives one leaf a payload no statement wrote before.
func setPayload(w interface {
	UpdateByPK(string, []xdm.Value, func(reldb.Row) reldb.Row) (bool, error)
}, leaf int64, p float64) error {
	_, err := w.UpdateByPK("vendor", []xdm.Value{xdm.Int(leaf)}, func(r reldb.Row) reldb.Row {
		r[len(r)-1] = xdm.Float(p)
		return r
	})
	return err
}

// Writers fire a 1,000-member GROUPED group while another goroutine has
// members join and leave it. Every firing delivers to exactly the members
// of one membership the group had: a firing reads its constants table and
// names the members of its rows under one read lock, and a join or a leave
// waits for it.
func TestFiringsSeeOneMembership(t *testing.T) {
	w := membershipSetup(t, core.ModeGrouped)
	e := w.Engine
	var mu sync.Mutex
	fired := map[*xdm.Node][]string{} // by the NEW node: one per firing
	e.RegisterAction("rec", func(inv core.Invocation) error {
		mu.Lock()
		fired[inv.New] = append(fired[inv.New], inv.Trigger)
		mu.Unlock()
		return nil
	})
	// Every member holds for element 0; pairs of members share a row.
	create := func(name string, i int) error {
		return e.CreateTrigger(fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' and NEW_NODE/@name != 'q%d' DO rec(NEW_NODE)`,
			name, w.TopNames[0], i/2))
	}
	var live []string
	for i := 0; i < 1000; i++ {
		live = append(live, fmt.Sprintf("m%d", i))
		if err := create(live[i], i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	snapshot := func() string { return strings.Join(slices.Sorted(slices.Values(live)), ",") }
	memberships := map[string]bool{snapshot(): true}

	const writers, updates, changes = 2, 60, 200
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				if err := setPayload(e, int64(wr), float64(1000*(wr+1)+i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for c := 0; c < changes; c++ {
			if c%2 == 0 {
				at := rng.Intn(len(live))
				if err := e.DropTrigger(live[at]); err != nil {
					errs <- err
					return
				}
				live = slices.Delete(live, at, at+1)
			} else {
				live = append(live, fmt.Sprintf("j%d", c))
				if err := create(live[len(live)-1], rng.Intn(1000)); err != nil {
					errs <- err
					return
				}
			}
			memberships[snapshot()] = true
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(fired) != writers*updates {
		t.Fatalf("%d firings delivered, want %d", len(fired), writers*updates)
	}
	for _, names := range fired {
		if slices.Sort(names); !memberships[strings.Join(names, ",")] {
			t.Fatalf("a firing delivered to %d members, a set the group never had", len(names))
		}
	}
	if st := e.GroupStats(); len(st) != 1 || st[0].Builds != 1 {
		t.Errorf("group stats %+v: joins and leaves compiled the group again", st)
	}
}

// A trigger joins a built GROUPED group, and leaves it, while another
// goroutine holds a batch open: neither locks a table. The member is live
// on return, so the open batch's commit delivers to it.
func TestCreateTriggerWhileABatchIsOpen(t *testing.T) {
	w := membershipSetup(t, core.ModeGrouped)
	e := w.Engine
	var fired []string
	e.RegisterAction("rec", func(inv core.Invocation) error {
		fired = append(fired, inv.Trigger)
		return nil
	})
	src := func(name string, elem int) string {
		return fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' DO rec(NEW_NODE)`, name, w.TopNames[elem])
	}
	for i, name := range []string{"a", "b"} {
		if err := e.CreateTrigger(src(name, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	h, err := e.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	if err := setPayload(h.Tx(), 0, 1001); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		err := e.CreateTrigger(src("c", 0))
		if err == nil {
			err = e.DropTrigger("b")
		}
		if err == nil {
			err = e.Flush()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("CreateTrigger / DropTrigger / Flush waited for the open batch")
		_ = h.Rollback()
		<-done
		return
	}
	if err := h.Commit(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "c"}; !slices.Equal(fired, want) {
		t.Errorf("the batch delivered to %v, want %v", fired, want)
	}
	if st := e.GroupStats(); st[0].Builds != 1 || st[0].Members != 2 {
		t.Errorf("group stats %+v, want 1 build and 2 members", st)
	}
}

// An engine whose members came and went while it ran delivers what one
// built from scratch with the members it ended with delivers: the same
// triggers, nodes and arguments, in the same order, in every mode. Members
// share constant combinations (pairs of name and threshold), pass literal
// action arguments of their own, and whole combinations empty out.
func TestIncrementalMembershipMatchesFreshBuild(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeGrouped, core.ModeUngrouped, core.ModeMaterialized} {
		t.Run(mode.String(), func(t *testing.T) {
			live, fresh := membershipSetup(t, mode), membershipSetup(t, mode)
			var logs [2][]string
			for i, w := range []*workload.Setup{live, fresh} {
				w.Engine.RegisterAction("rec", func(inv core.Invocation) error {
					args := make([]string, len(inv.Args))
					for j, a := range inv.Args {
						args[j] = a.AsString()
					}
					logs[i] = append(logs[i], fmt.Sprintf("%s %s old=%s new=%s args=%s",
						inv.Trigger, inv.Event, inv.Old.Serialize(false), inv.New.Serialize(false), strings.Join(args, "|")))
					return nil
				})
			}
			rng := rand.New(rand.NewSource(int64(mode) + 7))
			var members []string // live's, in the order they joined
			srcs := map[string]string{}
			payload := 1000.0
			update := func(w *workload.Setup, leaf int64) {
				t.Helper()
				if err := setPayload(w.Engine, leaf, payload); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 160; step++ {
				switch r := rng.Intn(10); {
				case r < 4 || len(members) < 4:
					name := fmt.Sprintf("t%d", step)
					// Four names by three thresholds; 8 <e1> children meet 7 and 8, not 9.
					srcs[name] = fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' and count(NEW_NODE/e1) >= %d DO rec(NEW_NODE, 'x%d')`,
						name, live.TopNames[rng.Intn(4)], 7+rng.Intn(3), rng.Intn(3))
					if err := live.Engine.CreateTrigger(srcs[name]); err != nil {
						t.Fatal(err)
					}
					members = append(members, name)
				case r < 7:
					at := rng.Intn(len(members))
					if err := live.Engine.DropTrigger(members[at]); err != nil {
						t.Fatal(err)
					}
					members = slices.Delete(members, at, at+1)
				default:
					payload++
					leaf := int64(rng.Intn(4 * 8))
					update(live, leaf)
					update(fresh, leaf) // no trigger there yet: the data stay alike
				}
			}
			for _, name := range members {
				if err := fresh.Engine.CreateTrigger(srcs[name]); err != nil {
					t.Fatal(err)
				}
			}
			logs = [2][]string{}
			for i, w := range []*workload.Setup{live, fresh} {
				p := payload
				for leaf := int64(0); leaf < 4*8; leaf += 3 {
					p++
					if err := setPayload(w.Engine, leaf, p); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Engine.Batch(func(tx *reldb.Tx) error {
					for _, leaf := range []int64{1, 9, 10, 17, 25} {
						p++
						if err := setPayload(tx, leaf, p); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if len(logs[i]) == 0 {
					t.Fatalf("engine %d delivered nothing: the test checks nothing", i)
				}
			}
			if !slices.Equal(logs[0], logs[1]) {
				t.Errorf("%d members: the engine they joined delivered\n%s\na fresh build of them delivers\n%s",
					len(members), strings.Join(logs[0], "\n"), strings.Join(logs[1], "\n"))
			}
		})
	}
}
