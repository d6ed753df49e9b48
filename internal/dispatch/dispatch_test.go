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

// TestPolicyBlock: enqueuers blocked on a full queue proceed as space
// frees. Each slot a worker frees wakes one of them, so several waiting
// enqueuers all get in as the queue drains, one slot at a time.
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
	const waiters = 4
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		lane := fmt.Sprintf("w%d", i)
		go func() { done <- d.Enqueue(Delivery{Trigger: lane, Task: Func(func() error { return nil })}) }()
	}
	select {
	case err := <-done:
		t.Fatalf("enqueue on a full queue returned %v without blocking", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d blocked enqueuers never woke", waiters-i, waiters)
		}
	}
	d.Drain()
	if st := d.Stats(); st.Completed != 2+waiters || st.MaxDepth != 1 {
		t.Errorf("stats = %+v, want Completed=%d MaxDepth=1", st, 2+waiters)
	}
}

// TestCloseDrainsAndRejects: Close finishes queued work, then enqueues
// fail with ErrClosed; an enqueuer stuck on a full queue is released with
// ErrClosed too.
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
	d.DrainTrigger("t")
	if got := ran.Load(); got != 3 {
		t.Errorf("DrainTrigger returned with %d/3 deliveries run", got)
	}
	if st := d.Stats(); st.Completed != 3 || st.Lanes != 0 {
		t.Errorf("stats after DrainTrigger = %+v, want Completed=3 Lanes=0", st)
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
	if st.ActionErrors != 2 || st.Panics != 1 || st.Completed != 3 {
		t.Errorf("stats = %+v, want ActionErrors=2 Panics=1 Completed=3", st)
	}
	if got := reported.Load(); got != 2 {
		t.Errorf("OnError reported %d errors of trigger bad, want 2", got)
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
