package openload

// chunkTasks is how many backlogged arrivals one chunk holds.
const chunkTasks = 256

// chunk is a fixed slab of backlog storage, linked into a backlog's FIFO
// or onto its cell's spare list.
type chunk struct {
	tasks [chunkTasks]task
	next  *chunk
}

// chunks is a cell's spare list, shared by its generators through their
// Population: a chunk a backlog drains goes back on it, so the cell makes
// only as many chunks as its generators' backlogs hold at once.
type chunks struct {
	spare *chunk
	made  int // chunks ever made; all spare once every backlog drains
}

func (cs *chunks) get() *chunk {
	c := cs.spare
	if c == nil {
		cs.made++
		return new(chunk)
	}
	cs.spare, c.next = c.next, nil
	return c
}

func (cs *chunks) put(c *chunk) {
	c.next, cs.spare = cs.spare, c
}

// backlog is a generator's bounded FIFO of arrivals waiting for a window
// slot: a list of chunks, filled at the tail and drained from the head.
// Put never blocks: past cap the arrival is refused, to be shed.
type backlog struct {
	pool       *chunks
	head, tail *chunk
	first      int // index of the oldest task in head
	n          int // tasks queued
	cap        int
	peak       int
}

// Put appends t if the backlog has room and reports whether it did.
func (b *backlog) Put(t task) bool {
	if b.n >= b.cap {
		return false
	}
	end := b.first + b.n // slot index counted from head's first slot
	if b.tail == nil {
		b.head = b.pool.get()
		b.tail, b.first, end = b.head, 0, 0
	} else if end%chunkTasks == 0 {
		c := b.pool.get()
		b.tail.next, b.tail = c, c
	}
	b.tail.tasks[end%chunkTasks] = t
	b.n++
	b.peak = max(b.peak, b.n)
	return true
}

// TryGet takes the oldest task, if any. A chunk it empties goes back to
// the spare list.
func (b *backlog) TryGet() (task, bool) {
	if b.n == 0 {
		return task{}, false
	}
	t := b.head.tasks[b.first]
	b.first++
	b.n--
	if b.n == 0 || b.first == chunkTasks {
		c := b.head
		b.head, b.first = c.next, 0
		if b.n == 0 {
			b.tail = nil
		}
		b.pool.put(c)
	}
	return t, true
}

// Len is the number of tasks queued.
func (b *backlog) Len() int { return b.n }
