package sim

// Queue is a bounded FIFO queue connecting simulation processes, modelling
// structures like a server's socket buffer. Put never blocks: when the
// queue is full the item is dropped and counted, exactly as a UDP socket
// buffer drops datagrams. Get blocks the calling process until an item is
// available.
//
// Capacity may be expressed in items, in bytes (via a size function), or
// both; a zero limit means unlimited in that dimension.
//
// Storage is a growable ring buffer: steady-state Put/Get cycles allocate
// nothing and never strand the backing array the way repeated items[1:]
// re-slicing would.
type Queue[T any] struct {
	sim      *Sim
	buf      []T // ring storage; len(buf) is the current capacity
	head     int // index of the oldest element
	count    int // number of queued elements
	maxItems int
	maxBytes int
	curBytes int
	sizeOf   func(T) int
	cond     Cond

	puts  uint64
	drops uint64
	gets  uint64
	// peak occupancy, for reporting
	peakItems int
}

// NewQueue returns a queue bounded to maxItems entries (0 = unlimited).
func NewQueue[T any](s *Sim, maxItems int) *Queue[T] {
	return &Queue[T]{sim: s, maxItems: maxItems, cond: Cond{sim: s}}
}

// NewByteQueue returns a queue bounded to maxBytes total, with item sizes
// measured by sizeOf. maxItems additionally bounds the entry count when
// non-zero.
func NewByteQueue[T any](s *Sim, maxItems, maxBytes int, sizeOf func(T) int) *Queue[T] {
	return &Queue[T]{sim: s, maxItems: maxItems, maxBytes: maxBytes, sizeOf: sizeOf, cond: Cond{sim: s}}
}

// slot maps logical index i (0 = oldest) to a physical buffer index.
func (q *Queue[T]) slot(i int) int {
	p := q.head + i
	if p >= len(q.buf) {
		p -= len(q.buf)
	}
	return p
}

// grow doubles the ring, unwrapping the live elements to the front.
func (q *Queue[T]) grow() {
	nc := 2 * len(q.buf)
	if nc == 0 {
		nc = 8
	}
	nb := make([]T, nc)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[q.slot(i)]
	}
	q.buf = nb
	q.head = 0
}

// Put appends v if the queue has room and reports whether it was accepted.
// On overflow the item is dropped and the drop counter incremented.
func (q *Queue[T]) Put(v T) bool {
	sz := 0
	if q.sizeOf != nil {
		sz = q.sizeOf(v)
	}
	if q.maxItems > 0 && q.count >= q.maxItems {
		q.drops++
		return false
	}
	if q.maxBytes > 0 && q.curBytes+sz > q.maxBytes {
		q.drops++
		return false
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.count)] = v
	q.count++
	q.curBytes += sz
	q.puts++
	if q.count > q.peakItems {
		q.peakItems = q.count
	}
	q.cond.Signal()
	return true
}

func (q *Queue[T]) ready() bool { return q.count > 0 }

// Get blocks p until an item is available and returns the oldest one.
func (q *Queue[T]) Get(p *Proc) T {
	for !q.ready() {
		q.cond.waitFor(p, q)
	}
	return q.pop()
}

// Notify arms fn to run once the queue holds an item: as a callback waiter
// on the queue (Cond.Notify) while it is empty, or as an event at the
// current instant when it is not. A consumer that never blocks mid-item — a
// demultiplexer, a router — drains the queue with TryGet from fn and arms
// it again, and needs no process of its own.
func (q *Queue[T]) Notify(fn func()) {
	if q.count > 0 {
		q.sim.At(0, fn)
		return
	}
	q.cond.Notify(fn)
}

// TryGet returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	return q.pop(), true
}

func (q *Queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.count--
	if q.sizeOf != nil {
		q.curBytes -= q.sizeOf(v)
	}
	q.gets++
	return v
}

// removeAt deletes the element at logical index i, preserving FIFO order
// of the remainder by shifting the tail side down across the wrap point.
func (q *Queue[T]) removeAt(i int) {
	var zero T
	for j := i; j < q.count-1; j++ {
		q.buf[q.slot(j)] = q.buf[q.slot(j+1)]
	}
	q.buf[q.slot(q.count-1)] = zero
	q.count--
}

// Scan calls fn on each queued item in FIFO order until fn returns true
// (found) or the queue is exhausted. If remove is true the found item is
// removed from the queue. Scan is the primitive behind the paper's "mbuf
// hunter", which searches the socket buffer for write requests to a file.
func (q *Queue[T]) Scan(fn func(T) bool, remove bool) (v T, found bool) {
	for i := 0; i < q.count; i++ {
		it := q.buf[q.slot(i)]
		if fn(it) {
			if remove {
				if q.sizeOf != nil {
					q.curBytes -= q.sizeOf(it)
				}
				q.removeAt(i)
				q.gets++
			}
			return it, true
		}
	}
	return v, false
}

// Len reports the current number of queued items.
func (q *Queue[T]) Len() int { return q.count }

// Bytes reports the current queued byte total (0 unless built with
// NewByteQueue).
func (q *Queue[T]) Bytes() int { return q.curBytes }

// Drops reports how many Put calls were rejected for lack of room.
func (q *Queue[T]) Drops() uint64 { return q.drops }

// Puts reports how many items were accepted.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// PeakLen reports the maximum occupancy observed.
func (q *Queue[T]) PeakLen() int { return q.peakItems }
