package xqgm

import "sync"

// nodeKey names what a prepared node computes across every plan of the
// process: two nodes have equal keys exactly when they compute the same
// output, which is what lets an EvalContext serve one plan's output to
// another plan's node (see EvalContext). A key is the node's signature with
// its inputs named by their keys, interned — never hashed, since two
// signatures sharing a key would serve one node's tuples for the other's.
// Keys are never reused, so a key outlives nothing it could be confused with.
type nodeKey uint64

// interned holds the signature of every key some prepared plan holds. It is
// process-wide, as unique.Make's table is: a key must name one computation in
// every plan, whoever prepared it, and no caller can observe more than that.
// An entry lives as long as a plan refers to it: each plan's cleanup
// releases its references once the plan is unreachable (see plan).
var interned = struct {
	sync.Mutex
	bySig map[string]*sigEntry
	last  nodeKey
}{bySig: map[string]*sigEntry{}}

// sigEntry is one interned signature: its key and how many plans hold it.
type sigEntry struct {
	sig  string
	key  nodeKey
	refs int
}

// lookupLocked returns the entry interned for sig, or nil. Caller holds
// interned.
func lookupLocked(sig []byte) *sigEntry { return interned.bySig[string(sig)] }

// keyOrZero returns e's key, or the zero key, which no node has, when e is
// nil.
func (e *sigEntry) keyOrZero() nodeKey {
	if e == nil {
		return 0
	}
	return e.key
}

// internLocked takes one more reference to e, the entry lookupLocked
// returned for sig, creating the entry when there was none. Caller holds
// interned.
func internLocked(e *sigEntry, sig []byte) *sigEntry {
	if e == nil {
		interned.last++
		e = &sigEntry{sig: string(sig), key: interned.last}
		interned.bySig[e.sig] = e
	}
	e.refs++
	return e
}

// release drops one reference to each entry, forgetting those no plan holds
// any longer.
func release(held []*sigEntry) {
	interned.Lock()
	defer interned.Unlock()
	releaseLocked(held)
}

func releaseLocked(held []*sigEntry) {
	for _, e := range held {
		if e.refs--; e.refs == 0 {
			delete(interned.bySig, e.sig)
		}
	}
}
