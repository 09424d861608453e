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
//
// Storage is made once and recycled: the entries live in one record
// table the cache owns (dead ones on the free list), made in chunks of
// dupChunk records as the cache first fills, and the index is an
// open-addressed table over it, made with the cache (linear probing,
// backward-shift deletion, so churn leaves no tombstones to rehash away).
// Past a full cache neither grows unless more than cap requests are in
// progress at once. The chunks, the index, the free list and order are
// lent by the server's ledger (block.Lend), so a scenario cell's cache
// reuses the tables of the cell before it on the same worker. Eviction
// walks order, which holds keys, not records, exactly as a map-based
// cache would: a key that is forgotten and begun again is found by its
// stale order slot too.

type dupKey struct {
	client string
	xid    uint32
}

// hash is a fixed FNV-1a over the client name, with the xid folded in and
// spread by a Fibonacci multiply; slot takes its top bits.
func (k dupKey) hash() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.client); i++ {
		h = (h ^ uint64(k.client[i])) * 1099511628211
	}
	return (h ^ uint64(k.xid)) * 0x9e3779b97f4a7c15
}

type dupState int

const (
	dupInProgress dupState = iota
	dupDone
)

type dupEntry struct {
	key   dupKey
	hash  uint64
	state dupState
	// reply is the whole reply message, or the head of a split one: one
	// reference, the entry's own.
	reply netsim.Head
	// body is the data block of a split READ reply (one reference, the
	// entry's own) and bodyLen its byte count on the wire; nil otherwise.
	body    *block.Buf
	bodyLen int
}

// dupChunk is how many records the table makes at a time.
const dupChunk = 64

type dupCache struct {
	acct  *block.Accounting // the ledger the tables are lent by
	cap   int
	recs  [][]dupEntry // record table in chunks; record r is recs[r/dupChunk][r%dupChunk]
	nrecs int          // records made
	free  []int32      // dead records
	slots []int32      // open-addressed index: record + 1, 0 = empty
	shift uint         // 64 - log2(len(slots))
	live  int          // records indexed by slots
	order []dupKey
	head  int // index of the oldest entry in order

	bodies int // entries holding a body reference (leak-check accounting)
	heads  int // entries holding a carved head's reference (ditto)
}

// newDupCache sizes the containers for a full cache up front — the free
// list for cap records plus the one begin adds before it evicts, an index
// of at least 2 × cap slots, and order for the 2 × cap keys it holds
// before the dead half is compacted away — and leaves the records to be
// made as requests arrive.
func newDupCache(acct *block.Accounting, cap int) *dupCache {
	c := &dupCache{
		acct:  acct,
		cap:   cap,
		recs:  make([][]dupEntry, 0, cap/dupChunk+1),
		free:  block.Lend[int32](acct, cap+1)[:0],
		order: block.Lend[dupKey](acct, 2*cap)[:0],
	}
	c.index(cap)
	return c
}

// rec returns record r.
func (c *dupCache) rec(r int32) *dupEntry { return &c.recs[r/dupChunk][r%dupChunk] }

// index makes an empty index of at least twice n slots.
func (c *dupCache) index(n int) {
	size, bits := 8, uint(3)
	for size < 2*n {
		size, bits = 2*size, bits+1
	}
	c.slots, c.shift = block.Lend[int32](c.acct, size), 64-bits
}

// find returns the slot holding k, or the empty slot that ends its probe.
func (c *dupCache) find(k dupKey, h uint64) (slot int, found bool) {
	mask := len(c.slots) - 1
	for i := int(h >> c.shift); ; i = (i + 1) & mask {
		r := c.slots[i]
		if r == 0 {
			return i, false
		}
		if e := c.rec(r - 1); e.hash == h && e.key == k {
			return i, true
		}
	}
}

// lookup returns k's live entry, or nil.
func (c *dupCache) lookup(k dupKey) *dupEntry {
	if i, ok := c.find(k, k.hash()); ok {
		return c.rec(c.slots[i] - 1)
	}
	return nil
}

// begin registers a request as in progress. It returns (entry, true) when
// the key was already present — i.e. the incoming request is a duplicate.
func (c *dupCache) begin(k dupKey) (*dupEntry, bool) {
	h := k.hash()
	i, ok := c.find(k, h)
	if ok {
		return c.rec(c.slots[i] - 1), true
	}
	if 4*(c.live+1) > 3*len(c.slots) {
		c.rehash()
		i, _ = c.find(k, h)
	}
	var r int32
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		if c.nrecs%dupChunk == 0 {
			c.recs = append(c.recs, block.Lend[dupEntry](c.acct, dupChunk))
		}
		r = int32(c.nrecs)
		c.nrecs++
	}
	e := c.rec(r)
	e.key, e.hash, e.state = k, h, dupInProgress
	c.slots[i] = r + 1
	c.live++
	c.order = append(c.order, k)
	c.evict()
	return e, false
}

// rehash doubles the index once it is three quarters full: more requests
// are in progress than cap.
func (c *dupCache) rehash() {
	old := c.slots
	c.index(len(old))
	mask := len(c.slots) - 1
	for _, r := range old {
		if r == 0 {
			continue
		}
		i := int(c.rec(r-1).hash >> c.shift)
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = r
	}
}

// done records the reply for later resends: the entry's own reference to
// the whole message, or — body non-nil — to the head of a split READ
// reply plus one to its data block.
func (c *dupCache) done(k dupKey, reply netsim.Head, body *block.Buf, bodyLen int) {
	if e := c.lookup(k); e != nil {
		e.state = dupDone
		e.reply = refReply(reply)
		if reply.Carved() {
			c.heads++
		}
		if body != nil {
			e.body, e.bodyLen = body.Ref(), bodyLen
			c.bodies++
		}
	}
}

// refReply takes a dup entry's reference to its reply head in done. It is
// a variable only so that a test can plant a missing reference
// (export_test.go).
var refReply = netsim.Head.Ref

// forget removes a key (used when a request errors before any reply state
// should be retained).
func (c *dupCache) forget(k dupKey) {
	if i, ok := c.find(k, k.hash()); ok {
		c.remove(i)
	}
}

// remove unindexes the record at slot i and recycles it. The entries
// after it in its probe run shift back over the hole, each as far as its
// home slot allows, so every key stays reachable without a tombstone.
func (c *dupCache) remove(i int) {
	c.recycle(c.slots[i] - 1)
	c.live--
	mask := len(c.slots) - 1
	for j := (i + 1) & mask; c.slots[j] != 0; j = (j + 1) & mask {
		home := int(c.rec(c.slots[j]-1).hash >> c.shift)
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then moving it would put it before home.
		if (j-home)&mask >= (j-i)&mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = 0
}

// recycle drops what a dead record holds — the head and body references —
// and parks it for reuse.
func (c *dupCache) recycle(r int32) {
	e := c.rec(r)
	if e.reply.Carved() {
		c.heads--
	}
	e.reply.Release()
	if e.body != nil {
		e.body.Release()
		c.bodies--
	}
	*e = dupEntry{}
	c.free = append(c.free, r)
}

// drop empties the cache, releasing every head and body reference: the
// crash. It walks the keys in arrival order, so the blocks return to their
// pool in the same order on every run.
func (c *dupCache) drop() {
	for _, k := range c.order[c.head:] {
		c.forget(k)
	}
	c.order, c.head = c.order[:0], 0
}

// contains reports whether the key is known (in progress or done); the
// mbuf hunter uses it to avoid counting duplicates as gatherable writes.
func (c *dupCache) contains(k dupKey) bool {
	_, ok := c.find(k, k.hash())
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
		if i, ok := c.find(victim, victim.hash()); ok && c.rec(c.slots[i]-1).state == dupInProgress {
			c.order = append(c.order, victim)
			scanned++
			continue
		} else if ok {
			c.remove(i)
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
