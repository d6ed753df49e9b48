package dispatch

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// countTask counts its runs; a pointer to one is a Task that costs no
// allocation to enqueue.
type countTask struct {
	mu sync.Mutex
	n  int
}

func (c *countTask) Run() error {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return nil
}

// TestEnqueueAllocatesNothing: once a lane has run a delivery, enqueueing
// the next one and a worker picking it up reuse the freed slot and the run
// queue's ring, so the round trip allocates nothing.
func TestEnqueueAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := New(Config{Workers: 2, QueueCap: 16})
	defer d.Close()
	task := new(countTask)
	enqueue := func() {
		if err := d.Enqueue(Delivery{Trigger: "t", Task: task}); err != nil {
			t.Fatal(err)
		}
		d.Drain()
	}
	enqueue() // warm the lane, the slot array and the run queue
	if allocs := testing.AllocsPerRun(200, enqueue); allocs != 0 {
		t.Errorf("enqueue plus worker pickup allocates %.2f objects, want 0", allocs)
	}
	if task.n != 202 { // AllocsPerRun warms up with one extra call
		t.Errorf("task ran %d times, want 202", task.n)
	}
}

// TestInterleavedLanesRecycleSlots: three lanes, enqueued interleaved
// while every worker is held, and each lane's action gated on its own
// channel. The test then lets one delivery through at a time in an order
// unrelated to the enqueue order, so the workers free slots in that order
// and the second round's enqueues take them back in an order unrelated to
// the lanes that now hold them. Every lane must still run exactly its
// deliveries in enqueue order, and the slot array must not grow past the
// first round's high water.
func TestInterleavedLanesRecycleSlots(t *testing.T) {
	const workers = 3
	d := New(Config{Workers: workers, QueueCap: 16, Policy: Block})
	defer d.Close()
	gates := map[string]chan struct{}{"a": make(chan struct{}), "b": make(chan struct{}), "c": make(chan struct{})}
	var mu sync.Mutex
	ran := map[string][]string{}
	enqueued := map[string]int{}
	// round holds every worker, enqueues lanes[i] for each i, checks the
	// queued depths, releases the workers, then lets the lanes' deliveries
	// finish one at a time in release order.
	round := func(lanes, release string, queued map[string]int) {
		t.Helper()
		hold := make(chan struct{})
		for i := int64(0); i < workers; i++ {
			if err := d.Enqueue(Delivery{Trigger: fmt.Sprintf("hold%d", i), Task: Func(func() error { <-hold; return nil })}); err != nil {
				t.Fatal(err)
			}
			waitRunning(t, d, i+1)
		}
		for _, c := range lanes {
			lane := string(c)
			label := fmt.Sprintf("%s%d", lane, enqueued[lane])
			enqueued[lane]++
			gate := gates[lane]
			if err := d.Enqueue(Delivery{Trigger: lane, Task: Func(func() error {
				<-gate
				mu.Lock()
				ran[lane] = append(ran[lane], label)
				mu.Unlock()
				return nil
			})}); err != nil {
				t.Fatal(err)
			}
		}
		d.mu.Lock()
		for lane, want := range queued {
			if got := d.lanes[lane].n; got != want {
				d.mu.Unlock()
				t.Fatalf("lane %s queues %d deliveries, want %d", lane, got, want)
			}
		}
		d.mu.Unlock()
		close(hold)
		for _, c := range release {
			gates[string(c)] <- struct{}{}
		}
		d.Drain()
	}
	// Round 1: a gets 5, b 4, c 2; c finishes first and a last.
	round("abcabcababa", "ccbabbabaaa", map[string]int{"a": 5, "b": 4, "c": 2})
	d.mu.Lock()
	highWater := len(d.slots)
	d.mu.Unlock()
	if highWater != 11 { // the holds' slot was freed before the lanes took it
		t.Fatalf("slot array holds %d slots after round 1, want 11", highWater)
	}
	// Round 2: c gets 5, b 4, a 1; a finishes first, b and c alternate.
	round("cbcbcbcbac", "acbbccbcbc", map[string]int{"a": 1, "b": 4, "c": 5})

	want := map[string][]string{
		"a": {"a0", "a1", "a2", "a3", "a4", "a5"},
		"b": {"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"},
		"c": {"c0", "c1", "c2", "c3", "c4", "c5", "c6"},
	}
	for lane, seq := range want {
		if got := ran[lane]; !slices.Equal(got, seq) {
			t.Errorf("lane %s ran %v, want %v", lane, got, seq)
		}
	}
	if st := d.Stats(); st.Queued != 0 || st.Completed != 2*workers+21 {
		t.Errorf("stats = %+v, want Queued=0 Completed=%d", st, 2*workers+21)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.slots) != highWater {
		t.Errorf("slot array grew to %d slots in round 2, want the round-1 high water %d", len(d.slots), highWater)
	}
}

// TestSlotsStayWithinQueueCap: the slot array and the run queue grow
// lazily with the queue depth, not with the number of lanes, and never
// past QueueCap, however many lanes bursts spread over.
func TestSlotsStayWithinQueueCap(t *testing.T) {
	const queueCap = 20
	d := New(Config{Workers: 2, QueueCap: queueCap, Policy: Block})
	defer d.Close()
	capacities := func() (slots, runq int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return cap(d.slots), cap(d.runq)
	}
	if s, r := capacities(); s != 0 || r != 0 {
		t.Fatalf("a new dispatcher holds %d slots and a run queue of %d, want none", s, r)
	}
	task := new(countTask)
	if err := d.Enqueue(Delivery{Trigger: "first", Task: task}); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if s, _ := capacities(); s > 8 {
		t.Fatalf("one delivery grew the slot array to %d slots, want at most 8", s)
	}
	for burst := 0; burst < 5; burst++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					lane := fmt.Sprintf("lane%d", (burst*800+w*200+i)%150)
					if err := d.Enqueue(Delivery{Trigger: lane, Task: task}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		d.Drain()
		if s, r := capacities(); s > queueCap || r > queueCap {
			t.Fatalf("burst %d: %d slots and a run queue of %d, want both at most QueueCap %d", burst, s, r, queueCap)
		}
	}
	if st := d.Stats(); st.Completed != 4001 || st.MaxDepth > queueCap {
		t.Errorf("stats = %+v, want Completed=4001 and MaxDepth at most %d", st, queueCap)
	}
}

// TestRunFieldStillDelivers: a delivery that sets the deprecated Run
// function instead of Task runs it as its task.
func TestRunFieldStillDelivers(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	ran := 0
	if err := d.Enqueue(Delivery{Trigger: "t", Run: func() error { ran++; return nil }}); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if st := d.Stats(); ran != 1 || st.Completed != 1 || st.ActionErrors != 0 {
		t.Errorf("ran %d times, stats %+v; want one clean completion", ran, st)
	}
}
