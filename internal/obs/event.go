package obs

import (
	"sync"
	"time"
)

// Event is one structured state transition: a kind plus flat string
// fields. A transition that used to be silent, the torn-tail truncation of
// an outbox's recovery, emits one.
type Event struct {
	Time   time.Time         `json:"time"`
	Kind   string            `json:"kind"`
	Fields map[string]string `json:"fields,omitempty"`
}

// eventRingSize bounds the retained event tail; old events are
// overwritten, never blocking the emitter.
const eventRingSize = 256

type eventRing struct {
	mu   sync.Mutex
	buf  [eventRingSize]Event
	n    int // total emitted
	hook func(Event)
}

// Emit records one event in the ring and invokes the hook, if any. The
// hook runs synchronously on the emitting goroutine, so hooks must be
// fast and must not call back into the emitting layer.
func (r *Registry) Emit(kind string, fields map[string]string) {
	if r == nil {
		return
	}
	ev := Event{Time: time.Now(), Kind: kind, Fields: fields}
	r.events.mu.Lock()
	r.events.buf[r.events.n%eventRingSize] = ev
	r.events.n++
	hook := r.events.hook
	r.events.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// OnEvent installs fn as the event hook (nil to clear). One hook at a
// time; installing replaces the previous one.
func (r *Registry) OnEvent(fn func(Event)) {
	if r == nil {
		return
	}
	r.events.mu.Lock()
	r.events.hook = fn
	r.events.mu.Unlock()
}

// Events returns the retained event tail, oldest first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.events.mu.Lock()
	defer r.events.mu.Unlock()
	n := r.events.n
	if n == 0 {
		return nil
	}
	count := n
	if count > eventRingSize {
		count = eventRingSize
	}
	out := make([]Event, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, r.events.buf[i%eventRingSize])
	}
	return out
}
