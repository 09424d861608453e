package server

import (
	"repro/internal/block"
	"repro/internal/netsim"
)

// dupCache is the duplicate request cache (Juszczak 1989): retransmitted
// requests whose originals are still in progress are dropped; ones whose
// replies were already sent get the cached reply resent, avoiding
// re-execution of non-idempotent operations.
//
// A reply is kept the way it was sent: one reference to its head and, for a
// READ that went out by reference, one to the data block. The references
// are dropped wherever the entry dies (evict, forget, drop); the
// filesystem's copy-on-write keeps the block's bytes what they were when
// the reply was first sent, so a retransmission is answered with the same
// data whatever has been written since.

type dupKey struct {
	client string
	xid    uint32
}

type dupState int

const (
	dupInProgress dupState = iota
	dupDone
)

type dupEntry struct {
	state dupState
	// reply is the whole reply message, or the head of a split one: one
	// reference, the entry's own.
	reply netsim.Head
	// body is the data block of a split READ reply (one reference, the
	// entry's own) and bodyLen its byte count on the wire; nil otherwise.
	body    *block.Buf
	bodyLen int
}

type dupCache struct {
	cap     int
	entries map[dupKey]*dupEntry
	order   []dupKey
	head    int // index of the oldest entry in order
	free    []*dupEntry
	bodies  int // entries holding a body reference (leak-check accounting)
	heads   int // entries holding a carved head's reference (ditto)
}

// newDupCache sizes the containers for a full cache up front: entries for
// cap keys plus the one begin adds before it evicts, and order for the 2
// × cap keys it holds before the dead half is compacted away.
func newDupCache(cap int) *dupCache {
	return &dupCache{
		cap:     cap,
		entries: make(map[dupKey]*dupEntry, cap+1),
		order:   make([]dupKey, 0, 2*cap),
	}
}

// begin registers a request as in progress. It returns (entry, true) when
// the key was already present — i.e. the incoming request is a duplicate.
func (c *dupCache) begin(k dupKey) (*dupEntry, bool) {
	if e, ok := c.entries[k]; ok {
		return e, true
	}
	var e *dupEntry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
		e.state = dupInProgress
	} else {
		e = &dupEntry{state: dupInProgress}
	}
	c.entries[k] = e
	c.order = append(c.order, k)
	c.evict()
	return e, false
}

// done records the reply for later resends: the entry's own reference to
// the whole message, or — body non-nil — to the head of a split READ
// reply plus one to its data block.
func (c *dupCache) done(k dupKey, reply netsim.Head, body *block.Buf, bodyLen int) {
	if e, ok := c.entries[k]; ok {
		e.state = dupDone
		e.reply = reply.Ref()
		if reply.Carved() {
			c.heads++
		}
		if body != nil {
			e.body, e.bodyLen = body.Ref(), bodyLen
			c.bodies++
		}
	}
}

// forget removes a key (used when a request errors before any reply state
// should be retained).
func (c *dupCache) forget(k dupKey) {
	if e, ok := c.entries[k]; ok {
		delete(c.entries, k)
		c.recycle(e)
	}
}

// recycle drops what a dead entry holds — the head and body references —
// and parks the record for reuse.
func (c *dupCache) recycle(e *dupEntry) {
	if e.reply.Carved() {
		c.heads--
	}
	e.reply.Release()
	e.reply = netsim.Head{}
	if e.body != nil {
		e.body.Release()
		e.body, e.bodyLen = nil, 0
		c.bodies--
	}
	c.free = append(c.free, e)
}

// drop empties the cache, releasing every head and body reference: the
// crash. It walks the keys in arrival order, so the blocks return to their
// pool in the same order on every run.
func (c *dupCache) drop() {
	for _, k := range c.order[c.head:] {
		if e, ok := c.entries[k]; ok {
			delete(c.entries, k)
			c.recycle(e)
		}
	}
	c.order, c.head = c.order[:0], 0
}

// contains reports whether the key is known (in progress or done); the
// mbuf hunter uses it to avoid counting duplicates as gatherable writes.
func (c *dupCache) contains(k dupKey) bool {
	_, ok := c.entries[k]
	return ok
}

func (c *dupCache) evict() {
	// Never evict in-progress entries: that could double-execute a write.
	// Rotate them to the back instead — but scan at most one full pass so
	// a cache of nothing-but-in-progress entries (more outstanding
	// requests than cap) overflows gracefully instead of spinning.
	scanned := 0
	for len(c.order)-c.head > c.cap && scanned < len(c.order)-c.head {
		victim := c.order[c.head]
		c.order[c.head] = dupKey{}
		c.head++
		if e, ok := c.entries[victim]; ok && e.state == dupInProgress {
			c.order = append(c.order, victim)
			scanned++
			continue
		} else if ok {
			delete(c.entries, victim)
			c.recycle(e)
		}
	}
	// Compact once the dead prefix dominates, so order stays O(cap)
	// instead of growing for the life of the run.
	if c.head > 0 && (c.head == len(c.order) || c.head >= len(c.order)/2) {
		n := copy(c.order, c.order[c.head:])
		tail := c.order[n:]
		for i := range tail {
			tail[i] = dupKey{}
		}
		c.order = c.order[:n]
		c.head = 0
	}
}
