package server

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// mapDupCache is the duplicate request cache as it was before the record
// table: a map from key to a pooled entry. It is kept here, unchanged but
// for its names, as the reference model the table is held to.
type mapDupCache struct {
	cap     int
	entries map[dupKey]*mapDupEntry
	order   []dupKey
	head    int
	free    []*mapDupEntry
	bodies  int
	heads   int
}

type mapDupEntry struct {
	state   dupState
	reply   netsim.Head
	body    *block.Buf
	bodyLen int
}

func newMapDupCache(cap int) *mapDupCache {
	return &mapDupCache{
		cap:     cap,
		entries: make(map[dupKey]*mapDupEntry, cap+1),
		order:   make([]dupKey, 0, 2*cap),
	}
}

func (c *mapDupCache) begin(k dupKey) (*mapDupEntry, bool) {
	if e, ok := c.entries[k]; ok {
		return e, true
	}
	var e *mapDupEntry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
		e.state = dupInProgress
	} else {
		e = &mapDupEntry{state: dupInProgress}
	}
	c.entries[k] = e
	c.order = append(c.order, k)
	c.evict()
	return e, false
}

func (c *mapDupCache) done(k dupKey, reply netsim.Head, body *block.Buf, bodyLen int) {
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

func (c *mapDupCache) forget(k dupKey) {
	if e, ok := c.entries[k]; ok {
		delete(c.entries, k)
		c.recycle(e)
	}
}

func (c *mapDupCache) recycle(e *mapDupEntry) {
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

func (c *mapDupCache) drop() {
	for _, k := range c.order[c.head:] {
		if e, ok := c.entries[k]; ok {
			delete(c.entries, k)
			c.recycle(e)
		}
	}
	c.order, c.head = c.order[:0], 0
}

func (c *mapDupCache) evict() {
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

// TestDupCacheMatchesMapModel drives the record table and the map-based
// model through the same random begin/done/forget/drop sequences — keys
// forgotten and begun again, in-progress entries rotated, more requests
// in progress than cap — and compares them after every step: the state
// and reply of every key, the order ring and its head (so which key each
// begin evicted, and when), and the head and body reference counts
// DupHeads and DupBodies report. Replies are real carved heads and split
// READ blocks, so the references both caches take and drop are the ones
// the server's are.
func TestDupCacheMatchesMapModel(t *testing.T) {
	acct := block.NewAccounting()
	pool := acct.NewPool()
	n := netsim.New(sim.New(1), hw.FDDI())
	n.SetAccounting(acct)
	blk := pool.Get()
	clients := []string{"a", "client7", "c3", "bridge:lan12/host40"}
	var overflowed, grew, reBegun int
	for seq := 0; seq < 400; seq++ {
		rng := rand.New(rand.NewPCG(uint64(seq), 7))
		capacity := 1 + rng.IntN(6)
		xids := 2 + rng.IntN(3*capacity)
		pDone := 0.1 + 0.5*rng.Float64() // low values pile up in-progress entries
		c, m := newDupCache(nil, capacity), newMapDupCache(capacity)
		slots := len(c.slots)
		forgotten := map[dupKey]bool{}
		for step := 0; step < 300; step++ {
			k := dupKey{clients[rng.IntN(len(clients))], uint32(rng.IntN(xids))}
			var what string
			switch u := rng.Float64(); {
			case u < 0.5:
				what = "begin"
				e, dup := c.begin(k)
				me, mdup := m.begin(k)
				if dup != mdup || dup && e.state != me.state {
					t.Fatalf("seq %d step %d: begin %v = %v %v, model %v %v", seq, step, k, dup, e.state, mdup, me.state)
				}
				if !dup && forgotten[k] {
					reBegun++
				}
				delete(forgotten, k)
			case u < 0.5+pDone*0.45:
				// The server answers a request once: done follows an
				// in-progress begin, or finds the key gone.
				if me := m.entries[k]; me != nil && me.state == dupDone {
					continue
				}
				what = "done"
				n.Encoder(4).Uint32(k.xid)
				h := n.Encoded()
				var body *block.Buf
				if rng.IntN(2) == 0 {
					body = blk
				}
				c.done(k, h, body, int(k.xid))
				m.done(k, h, body, int(k.xid))
				h.Release()
			case u < 0.97:
				what = "forget"
				if c.contains(k) {
					forgotten[k] = true
				}
				c.forget(k)
				m.forget(k)
			default:
				what = "drop"
				c.drop()
				m.drop()
			}
			if c.live > capacity {
				overflowed++
			}
			if len(c.slots) > slots {
				grew++
				slots = len(c.slots)
			}
			if err := sameDupState(c, m, clients, xids); err != nil {
				t.Fatalf("seq %d (cap %d) step %d, after %s %v: %v", seq, capacity, step, what, k, err)
			}
		}
		c.drop()
		m.drop()
	}
	blk.Release()
	if refs := acct.TotalRefs(); refs != 0 {
		t.Fatalf("%d references left after every cache was dropped", refs)
	}
	t.Logf("%d steps past cap, %d index growths, %d forgotten keys begun again", overflowed, grew, reBegun)
	if overflowed == 0 || grew == 0 || reBegun == 0 {
		t.Fatalf("the sequences never overflowed cap (%d), grew the index (%d) or re-began a forgotten key (%d)",
			overflowed, grew, reBegun)
	}
}

// sameDupState compares the table with the model key by key.
func sameDupState(c *dupCache, m *mapDupCache, clients []string, xids int) error {
	if !slices.Equal(c.order[c.head:], m.order[m.head:]) || c.head != m.head {
		return fmt.Errorf("order %v (head %d), model %v (head %d)", c.order[c.head:], c.head, m.order[m.head:], m.head)
	}
	if c.heads != m.heads || c.bodies != m.bodies {
		return fmt.Errorf("heads %d bodies %d, model %d %d", c.heads, c.bodies, m.heads, m.bodies)
	}
	if c.live != len(m.entries) {
		return fmt.Errorf("%d live entries, model %d", c.live, len(m.entries))
	}
	for _, cl := range clients {
		for x := 0; x < xids; x++ {
			k := dupKey{cl, uint32(x)}
			e, me := c.lookup(k), m.entries[k]
			if (e != nil) != (me != nil) || c.contains(k) != (me != nil) {
				return fmt.Errorf("%v: present %v, model %v", k, e != nil, me != nil)
			}
			if e == nil {
				continue
			}
			if e.state != me.state || string(e.reply.Bytes) != string(me.reply.Bytes) || e.body != me.body || e.bodyLen != me.bodyLen {
				return fmt.Errorf("%v: entry %v %x %p %d, model %v %x %p %d", k,
					e.state, e.reply.Bytes, e.body, e.bodyLen, me.state, me.reply.Bytes, me.body, me.bodyLen)
			}
		}
	}
	return nil
}

// TestDupCacheForgetThenBegin pins the case the order ring's keys exist
// for: a key forgotten and begun again has two order slots, and the stale
// one, reached first, finds and evicts the re-begun entry once it is done.
func TestDupCacheForgetThenBegin(t *testing.T) {
	c := newDupCache(nil, 2)
	a, b, d := dupKey{"a", 1}, dupKey{"a", 2}, dupKey{"a", 3}
	c.begin(a)
	c.forget(a)
	c.begin(a) // order: a (stale), a
	c.done(a, netsim.Head{}, nil, 0)
	c.begin(b) // three slots past cap 2: the stale slot evicts the done a
	if c.contains(a) || !c.contains(b) {
		t.Fatalf("after begin(b): contains a %v, b %v; want the stale slot to have evicted a", c.contains(a), c.contains(b))
	}
	c.done(b, netsim.Head{}, nil, 0)
	c.begin(d) // the live slot for a finds nothing; b and d stay
	if !c.contains(b) || !c.contains(d) || c.live != 2 {
		t.Fatalf("after begin(d): b %v, d %v, %d live", c.contains(b), c.contains(d), c.live)
	}
}

// TestDupCacheSteadyStateAllocs: a full cache turns over — begin, done,
// the oldest done entry evicted — without allocating, so neither the index
// nor the record table regrows under churn.
func TestDupCacheSteadyStateAllocs(t *testing.T) {
	const capacity = 1024
	c := newDupCache(nil, capacity)
	xid := uint32(0)
	turn := func() {
		k := dupKey{"client12", xid}
		xid++
		c.begin(k)
		c.done(k, netsim.Head{}, nil, 0)
	}
	for i := 0; i < 3*capacity; i++ {
		turn()
	}
	slots := len(c.slots)
	if allocs := testing.AllocsPerRun(4*capacity, turn); allocs != 0 {
		t.Errorf("a full cache allocates %.3f objects per request, want 0", allocs)
	}
	if c.live != capacity || len(c.slots) != slots || c.nrecs != capacity+1 {
		t.Errorf("%d live, %d slots (was %d), %d records made; want %d live in unchanged storage of %d records",
			c.live, len(c.slots), slots, c.nrecs, capacity, capacity+1)
	}
}
