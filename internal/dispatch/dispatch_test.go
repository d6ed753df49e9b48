package dispatch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLaneFIFO: deliveries of one trigger run in enqueue order even with
// many workers.
func TestLaneFIFO(t *testing.T) {
	d := New(Config{Workers: 8, QueueCap: 1024})
	defer d.Close()
	var mu sync.Mutex
	var got []int
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil
		})}); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	if len(got) != n {
		t.Fatalf("ran %d deliveries, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d ran out of order (got value %d)", i, v)
		}
	}
}

// TestLaneExclusive: one lane never runs two deliveries concurrently,
// while distinct lanes do fan out across workers.
func TestLaneExclusive(t *testing.T) {
	d := New(Config{Workers: 8, QueueCap: 1024})
	defer d.Close()
	var inLane, maxInLane, inAll, maxInAll atomic.Int32
	track := func(cur, max *atomic.Int32) func() {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		return func() { cur.Add(-1) }
	}
	for i := 0; i < 200; i++ {
		lane := fmt.Sprintf("lane%d", i%8)
		mine := lane == "lane0"
		if err := d.Enqueue(Delivery{Trigger: lane, Task: Func(func() error {
			defer track(&inAll, &maxInAll)()
			if mine {
				defer track(&inLane, &maxInLane)()
			}
			time.Sleep(200 * time.Microsecond)
			return nil
		})}); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	if m := maxInLane.Load(); m != 1 {
		t.Errorf("lane0 ran %d deliveries concurrently, want 1", m)
	}
	if m := maxInAll.Load(); m < 2 {
		t.Errorf("max overall concurrency = %d, want >= 2 (no fan-out happened)", m)
	}
}

// TestPolicyError: a full queue rejects with ErrQueueFull and counts the
// rejection.
func TestPolicyError(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 2, Policy: Error})
	defer d.Close()
	gate := make(chan struct{})
	// Occupy the single worker so subsequent enqueues stay queued.
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	for i := 0; i < 2; i++ {
		if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { return nil })}); err != nil {
			t.Fatal(err)
		}
	}
	err := d.Enqueue(Delivery{Trigger: "b", Task: Func(func() error { return nil })})
	if err != ErrQueueFull {
		t.Fatalf("enqueue on full queue = %v, want ErrQueueFull", err)
	}
	close(gate)
	d.Drain()
	st := d.Stats()
	if st.Dropped != 1 || st.Completed != 3 {
		t.Errorf("stats = %+v, want Dropped=1 Completed=3", st)
	}
	if ls, ok := d.TriggerStats("b"); !ok || ls.Dropped != 1 {
		t.Errorf("lane b stats = %+v ok=%v, want Dropped=1", ls, ok)
	}
}

// TestPolicyDropNewest: a full queue silently discards and counts.
func TestPolicyDropNewest(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 1, Policy: DropNewest})
	defer d.Close()
	gate := make(chan struct{})
	var ran atomic.Int32
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { ran.Add(1); return nil })}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { ran.Add(1); return nil })}); err != nil {
		t.Fatal(err) // dropped, not an error
	}
	close(gate)
	d.Drain()
	if got := ran.Load(); got != 1 {
		t.Errorf("ran %d queued deliveries, want 1 (second dropped)", got)
	}
	if st := d.Stats(); st.Dropped != 1 || st.Enqueued != 2 {
		t.Errorf("stats = %+v, want Dropped=1 Enqueued=2", st)
	}
}

// TestPolicyBlock: a blocked enqueuer proceeds when space frees.
func TestPolicyBlock(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 1, Policy: Block})
	defer d.Close()
	gate := make(chan struct{})
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { return nil })}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { return nil })})
	}()
	select {
	case <-done:
		t.Fatal("enqueue on a full queue returned without blocking")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate) // worker drains; space frees; blocked enqueue proceeds
	if err := <-done; err != nil {
		t.Fatalf("blocked enqueue = %v, want nil", err)
	}
	d.Drain()
	if st := d.Stats(); st.Completed != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want Completed=3 Dropped=0", st)
	}
}

// TestCloseDrainsAndRejects: Close finishes queued work, then enqueues
// fail with ErrClosed; a Block-policy enqueuer stuck on a full queue is
// released with ErrClosed too.
func TestCloseDrainsAndRejects(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 1, Policy: Block})
	gate := make(chan struct{})
	var ran atomic.Int32
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { <-gate; ran.Add(1); return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { ran.Add(1); return nil })}); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { ran.Add(1); return nil })})
	}()
	time.Sleep(10 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		close(gate)
		_ = d.Close()
		close(closed)
	}()
	if err := <-blocked; err != ErrClosed {
		t.Errorf("blocked enqueue after Close = %v, want ErrClosed", err)
	}
	<-closed
	if got := ran.Load(); got != 2 {
		t.Errorf("Close ran %d queued deliveries, want 2", got)
	}
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { return nil })}); err != ErrClosed {
		t.Errorf("enqueue after Close = %v, want ErrClosed", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// TestDrainTrigger removes the lane after its deliveries complete.
func TestDrainTrigger(t *testing.T) {
	d := New(Config{Workers: 2, QueueCap: 16})
	defer d.Close()
	gate := make(chan struct{})
	var ran atomic.Int32
	for i := 0; i < 3; i++ {
		if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error {
			<-gate
			ran.Add(1)
			return nil
		})}); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(gate)
	}()
	st := d.DrainTrigger("t")
	if got := ran.Load(); got != 3 {
		t.Errorf("DrainTrigger returned with %d/3 deliveries run", got)
	}
	if st.Completed != 3 {
		t.Errorf("final lane stats = %+v, want Completed=3", st)
	}
	if _, ok := d.TriggerStats("t"); ok {
		t.Error("lane still present after DrainTrigger")
	}
	if d.Stats().Lanes != 0 {
		t.Errorf("lanes = %d after drain, want 0", d.Stats().Lanes)
	}
}

// TestActionErrorsAndPanics are counted and reported via OnError without
// killing workers.
func TestActionErrorsAndPanics(t *testing.T) {
	var reported atomic.Int32
	d := New(Config{Workers: 2, QueueCap: 16, OnError: func(trigger string, err error) {
		if trigger == "bad" && err != nil {
			reported.Add(1)
		}
	}})
	defer d.Close()
	if err := d.Enqueue(Delivery{Trigger: "bad", Task: Func(func() error { return fmt.Errorf("sink down") })}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(Delivery{Trigger: "bad", Task: Func(func() error { panic("boom") })}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(Delivery{Trigger: "ok", Task: Func(func() error { return nil })}); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	st := d.Stats()
	if st.ActionErrors != 2 || st.Completed != 3 {
		t.Errorf("stats = %+v, want ActionErrors=2 Completed=3", st)
	}
	if got := reported.Load(); got != 2 {
		t.Errorf("OnError reported %d errors, want 2", got)
	}
	ls, ok := d.TriggerStats("bad")
	if !ok || ls.ActionErrors != 2 {
		t.Errorf("lane stats = %+v ok=%v, want ActionErrors=2", ls, ok)
	}
}

// TestMaxDepth records the queue high-water mark.
func TestMaxDepth(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 64})
	defer d.Close()
	gate := make(chan struct{})
	if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	for i := 0; i < 5; i++ {
		if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error { return nil })}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	d.Drain()
	if st := d.Stats(); st.MaxDepth != 5 {
		t.Errorf("MaxDepth = %d, want 5", st.MaxDepth)
	}
}

// waitRunning spins until the dispatcher reports n running deliveries, so
// tests can arrange a deterministically occupied pool.
func waitRunning(t *testing.T, d *Dispatcher, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher never reached %d running deliveries", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLaneQuotaPreventsStarvation: a flooding trigger is capped at its
// quota, leaving shared-queue space for other triggers even though the
// flooder alone would fill it.
func TestLaneQuotaPreventsStarvation(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 8, LaneQuota: 2, Policy: DropNewest})
	defer d.Close()
	gate := make(chan struct{})
	if err := d.Enqueue(Delivery{Trigger: "hold", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	// The flooder tries to queue 20; only LaneQuota=2 may sit queued.
	var flooded atomic.Int32
	for i := 0; i < 20; i++ {
		if err := d.Enqueue(Delivery{Trigger: "flood", Task: Func(func() error { flooded.Add(1); return nil })}); err != nil {
			t.Fatal(err)
		}
	}
	if ls, _ := d.TriggerStats("flood"); ls.Queued != 2 || ls.Dropped != 18 {
		t.Fatalf("flood lane = %+v, want Queued=2 Dropped=18", ls)
	}
	// A well-behaved trigger still gets in: the flooder did not own the
	// shared queue.
	var quiet atomic.Int32
	if err := d.Enqueue(Delivery{Trigger: "quiet", Task: Func(func() error { quiet.Add(1); return nil })}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	d.Drain()
	if flooded.Load() != 2 || quiet.Load() != 1 {
		t.Errorf("flooded=%d quiet=%d, want 2 and 1", flooded.Load(), quiet.Load())
	}
}

// TestPolicyDropOldest: at quota, the lane keeps the freshest deliveries
// in FIFO order and drops from the head.
func TestPolicyDropOldest(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 64, LaneQuota: 3, Policy: DropOldest})
	defer d.Close()
	gate := make(chan struct{})
	if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	var mu sync.Mutex
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil
		})}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	d.Drain()
	// Quota 3: the lane kept the newest three (7, 8, 9), in order.
	if len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("ran %v, want [7 8 9] (oldest dropped, order kept)", got)
	}
	if st := d.Stats(); st.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", st.Dropped)
	}
}

// TestDropOldestNeverDisplacesOtherLanes: when the shared queue is full of
// other triggers' work, DropOldest with an empty own lane degrades to
// dropping the incoming delivery.
func TestDropOldestNeverDisplacesOtherLanes(t *testing.T) {
	d := New(Config{Workers: 1, QueueCap: 2, Policy: DropOldest})
	defer d.Close()
	gate := make(chan struct{})
	var aRan atomic.Int32
	if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	for i := 0; i < 2; i++ {
		if err := d.Enqueue(Delivery{Trigger: "a", Task: Func(func() error { aRan.Add(1); return nil })}); err != nil {
			t.Fatal(err)
		}
	}
	// Queue full with a's work; b has nothing queued to displace.
	var bRan atomic.Int32
	if err := d.Enqueue(Delivery{Trigger: "b", Task: Func(func() error { bRan.Add(1); return nil })}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	d.Drain()
	if aRan.Load() != 2 || bRan.Load() != 0 {
		t.Errorf("a ran %d (want 2), b ran %d (want 0: dropped, not displacing)", aRan.Load(), bRan.Load())
	}
	if ls, ok := d.TriggerStats("b"); !ok || ls.Dropped != 1 {
		t.Errorf("lane b = %+v, want Dropped=1", ls)
	}
}

// TestBlockWakesLaneQuotaWaiters: with Block policy and a lane quota, an
// enqueuer blocked on its lane's quota (not the shared queue) must wake
// when that lane drains.
func TestBlockWakesLaneQuotaWaiters(t *testing.T) {
	d := New(Config{Workers: 2, QueueCap: 1024, LaneQuota: 1, Policy: Block})
	defer d.Close()
	gate := make(chan struct{})
	if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error { <-gate; return nil })}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d, 1)
	if err := d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error { return nil })}); err != nil {
		t.Fatal(err) // fills the quota-1 lane
	}
	done := make(chan error, 1)
	go func() {
		done <- d.Enqueue(Delivery{Trigger: "t", Task: Func(func() error { return nil })})
	}()
	select {
	case err := <-done:
		t.Fatalf("enqueue returned %v before the lane drained", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked enqueuer never woke after the lane drained")
	}
	d.Drain()
	if st := d.Stats(); st.Completed != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want Completed=3 Dropped=0", st)
	}
}
