package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
func setPayload(w reldb.Writer, leaf int64, p float64) error {
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
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("CreateTrigger / DropTrigger waited for the open batch")
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
	if st := e.GroupStats(); st[0].Members != 2 {
		t.Errorf("group stats %+v, want 2 members", st)
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

// One firing whose result holds several constants rows activates them in
// the order of their TrigIDs — the members' names, sorted, comma-separated
// — and each row's members by name (Figure 16's ORDER BY), as members
// join and leave rows.
func TestActivationsFollowTrigIDs(t *testing.T) {
	w := membershipSetup(t, core.ModeGrouped)
	e := w.Engine
	var fired []string
	e.RegisterAction("rec", func(inv core.Invocation) error {
		fired = append(fired, inv.Trigger)
		return nil
	})
	// Every member holds for element 0; its second constant picks its row.
	create := func(name string, row int) {
		t.Helper()
		if err := e.CreateTrigger(fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' and NEW_NODE/@name != 'q%d' DO rec(NEW_NODE)`,
			name, w.TopNames[0], row)); err != nil {
			t.Fatal(err)
		}
	}
	payload := 1000.0
	check := func(want ...string) {
		t.Helper()
		fired, payload = nil, payload+1
		if err := setPayload(e, 0, payload); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fired, want) {
			t.Errorf("delivered to %v, want %v", fired, want)
		}
	}
	create("b", 1)
	create("a9", 1)
	create("a", 2)
	create("c", 3)
	create("a10", 3)
	check("a", "a10", "c", "a9", "b") // "a" < "a10,c" < "a9,b"
	create("a11", 1)
	check("a", "a10", "c", "a11", "a9", "b")   // "a10,c" < "a11,a9,b"
	if err := e.DropTrigger("a"); err != nil { // its row goes, and the last takes its place
		t.Fatal(err)
	}
	check("a10", "c", "a11", "a9", "b")
}

// Writers fire a group whose members pass action arguments of their own,
// while members join and leave it and another group. Every delivery
// carries its own trigger's argument.
func TestArgumentsFollowTheirMembersUnderChurn(t *testing.T) {
	w := membershipSetup(t, core.ModeGrouped)
	e := w.Engine
	var mu sync.Mutex
	var bad []string
	var delivered atomic.Int64
	e.RegisterAction("rec", func(inv core.Invocation) error {
		delivered.Add(1)
		if len(inv.Args) != 2 || inv.Args[1].AsString() != "arg of "+inv.Trigger {
			mu.Lock()
			bad = append(bad, fmt.Sprintf("%s got %v", inv.Trigger, inv.Args[1:]))
			mu.Unlock()
		}
		return nil
	})
	create := func(name, cond string) error {
		return e.CreateTrigger(fmt.Sprintf(`CREATE TRIGGER %s AFTER UPDATE ON view('doc')/e0 WHERE %s DO rec(NEW_NODE, 'arg of %s')`, name, cond, name))
	}
	watch := fmt.Sprintf("NEW_NODE/@name = '%s'", w.TopNames[0])
	for i := 0; i < 50; i++ {
		if err := create(fmt.Sprintf("m%d", i), watch); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
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
		for c := 0; c < 100; c++ {
			name, cond := fmt.Sprintf("j%d", c), watch
			if c%2 == 1 { // the other group: a condition of another shape
				cond = fmt.Sprintf("count(NEW_NODE/e1) >= %d", c)
			}
			if err := create(name, cond); err != nil {
				errs <- err
				return
			}
			if c%3 == 0 {
				if err := e.DropTrigger(name); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("%d of %d deliveries carried another member's argument, e.g. %s", len(bad), delivered.Load(), bad[0])
	}
	if delivered.Load() < 2*40*50 {
		t.Errorf("%d deliveries, want at least one per writer's update and first member", delivered.Load())
	}
}

// One trigger joining a group and leaving it costs the same at 1,000
// members as at 10, in every mode: a GROUPED or MATERIALIZED member is a
// row of the group's store that the plans read as they run, and an
// UNGROUPED one compiles, installs and drops only its own plans. Flush, a
// no-op, follows each call where a deferred build would recompile the
// whole group.
func TestMembershipChangeCostIsFlat(t *testing.T) {
	for _, mode := range core.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			var allocs [2]float64
			for i, members := range []int{10, 1000} {
				w, err := workload.Build(workload.Params{Depth: 2, LeafTuples: 4096, Fanout: 64, NumTriggers: members, NumSatisfied: 1}, mode, 1)
				if err != nil {
					t.Fatal(err)
				}
				e, src := w.Engine, fmt.Sprintf(`CREATE TRIGGER joiner AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' DO notify(NEW_NODE)`, w.TopNames[1])
				allocs[i] = testing.AllocsPerRun(20, func() {
					for _, err := range []error{e.CreateTrigger(src), e.Flush(), e.DropTrigger("joiner"), e.Flush()} {
						if err != nil {
							t.Fatal(err)
						}
					}
				})
				if st := e.GroupStats(); len(st) != 1 || st[0].Members != members {
					t.Fatalf("group stats %+v, want one group of %d members", st, members)
				}
			}
			t.Logf("allocations per join and leave: %.0f at 10 members, %.0f at 1,000", allocs[0], allocs[1])
			if allocs[1] > 1.25*allocs[0] {
				t.Errorf("a join and a leave allocate %.0f times at 1,000 members, %.0f at 10: more than 1.25x", allocs[1], allocs[0])
			}
		})
	}
}
