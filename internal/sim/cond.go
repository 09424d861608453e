package sim

// Cond is a condition variable for simulation processes. Waiters are woken
// in FIFO order. Unlike sync.Cond there is no associated lock: the kernel's
// one-process-at-a-time discipline makes state inspection before Wait safe.
//
// The wait list is a doubly linked list threaded through pooled waiter
// records, so waiting, signalling and leaving the list from the middle (a
// timeout, a Kill) allocate nothing and cost the same at any length. A Cond
// must not be copied while processes wait on it.
type Cond struct {
	sim        *Sim
	head, tail *condWaiter
}

// condWaiter is one blocked process, or one armed callback (Notify,
// NotifyTimeout). Records are pooled on the Sim: a waiter is off its Cond's
// list before the owning process resumes, so the process can safely return
// the record to the pool on wake-up; a callback's record goes back when
// Signal or its deadline reaches it.
type condWaiter struct {
	c          *Cond
	p          *Proc
	fn         func() // set for a callback waiter, which has no p
	next, prev *condWaiter
	queued     bool // on c's list
	signaled   bool
	timeout    Event
	// until is what a process parked in Acquire or Get waits for. The run
	// loop tests it when the wake-up fires and, if it does not hold,
	// links the waiter back at the tail instead of switching in.
	until readiness
}

// readiness is the condition a parked Acquire or Get waits for: a free
// slot, a queued item.
type readiness interface{ ready() bool }

// NewCond returns a condition variable bound to s.
func NewCond(s *Sim) *Cond { return &Cond{sim: s} }

// Init (re)binds c to s and empties the wait list. It lets callers embed a
// Cond by value inside pooled records instead of allocating with NewCond.
func (c *Cond) Init(s *Sim) { *c = Cond{sim: s} }

func (s *Sim) newWaiter(c *Cond, p *Proc, fn func()) *condWaiter {
	if len(s.freeWaiters) == 0 {
		s.freeWaiters = refill(s.freeWaiters)
	}
	n := len(s.freeWaiters) - 1
	w := s.freeWaiters[n]
	s.freeWaiters = s.freeWaiters[:n]
	*w = condWaiter{c: c, p: p, fn: fn}
	return w
}

func (s *Sim) putWaiter(w *condWaiter) {
	w.c, w.p, w.fn, w.until = nil, nil, nil, nil
	s.freeWaiters = append(s.freeWaiters, w)
}

// enqueue makes a waiter record for p, or for the callback fn, and appends
// it to the list.
func (c *Cond) enqueue(p *Proc, fn func()) *condWaiter {
	w := c.sim.newWaiter(c, p, fn)
	c.link(w)
	if p != nil {
		p.waiting = w
	}
	return w
}

// link appends a waiter that is off the list to its tail.
func (c *Cond) link(w *condWaiter) {
	w.queued = true
	w.prev = c.tail
	if c.tail != nil {
		c.tail.next = w
	} else {
		c.head = w
	}
	c.tail = w
}

// detach unlinks w from the wait list; a waiter already off it (signalled,
// not yet resumed) is left alone. A WaitTimeout deadline carries its
// condWaiter as a typed event target and the event loop detaches it before
// dispatching the process, as Kill does for its victim — which is what
// makes the record safe to recycle the moment the wait returns or unwinds.
func (c *Cond) detach(w *condWaiter) {
	if !w.queued {
		return
	}
	w.queued = false
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		c.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		c.tail = w.prev
	}
	w.next, w.prev = nil, nil
}

// Waiters reports how many processes are blocked, and callbacks armed, on
// the Cond.
func (c *Cond) Waiters() int {
	n := 0
	for w := c.head; w != nil; w = w.next {
		n++
	}
	return n
}

// Wait blocks p until a Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) { c.waitFor(p, nil) }

// waitFor is Wait for a process that waits for t to hold (nil: for the
// Signal alone). A wake-up that finds t false puts the waiter back at the
// tail in the run loop, without resuming p: what p would have done.
func (c *Cond) waitFor(p *Proc, t readiness) {
	w := c.enqueue(p, nil)
	w.until = t
	p.yield() // a Kill unwinds from here; Kill already recycled the waiter
	p.waiting = nil
	// Only a Signal resumes a plain Wait, and Signal takes the waiter off
	// the list first, so the record is ours alone again.
	c.sim.putWaiter(w)
}

// WaitTimeout blocks p until signaled or until d elapses. It reports true
// if the process was signaled, false on timeout.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	w := c.enqueue(p, nil)
	w.timeout = c.sim.handle(c.sim.schedule(d, nil, nil, w))
	p.yield() // a Kill unwinds from here; Kill already recycled the waiter
	p.waiting = nil
	signaled := w.signaled
	c.sim.putWaiter(w)
	return signaled
}

// Notify arms fn as a one-shot callback waiter. It takes the place in the
// FIFO that a process calling Wait would take, and the Signal that reaches
// it schedules fn at the current instant, in the (time, seq) slot that
// process's wake-up would have had: a waiter that never blocks mid-stack
// needs no process, and the run is the same event for event, less the
// process switches. Close with fn still armed never calls it.
func (c *Cond) Notify(fn func()) { c.enqueue(nil, fn) }

// NotifyTimeout is WaitTimeout for a waiter that is no process: fn takes
// the FIFO place a process calling WaitTimeout would take, and runs once,
// in the slot a Signal's wake-up would have had, or at the deadline d from
// now, where the timed-out process would resume. Either way it is exactly
// the one event the process form schedules. A caller that must tell the
// two apart reads its own state, as the signaller set it. Close with fn
// still armed never calls it.
func (c *Cond) NotifyTimeout(d Duration, fn func()) {
	w := c.enqueue(nil, fn)
	w.timeout = c.sim.handle(c.sim.schedule(d, nil, nil, w))
}

// Signal wakes the longest waiter, process or callback, if any. It reports
// whether a waiter was woken.
func (c *Cond) Signal() bool {
	w := c.head
	if w == nil {
		return false
	}
	c.detach(w)
	w.timeout.Cancel()
	if fn := w.fn; fn != nil {
		c.sim.putWaiter(w)
		c.sim.schedule(0, fn, nil, nil)
		return true
	}
	w.signaled = true
	c.sim.wakeProc(w.p)
	return true
}

// Broadcast wakes all waiting processes in FIFO order. It returns the
// number woken.
func (c *Cond) Broadcast() int {
	n := 0
	for c.Signal() {
		n++
	}
	return n
}

// Resource is a counting semaphore with FIFO admission, used to model
// servers with finite concurrency (a CPU, a disk arm, an nfsd pool slot).
// It also tracks busy time so utilization can be reported.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	cond     Cond

	busy      Duration // accumulated (inUse × elapsed) time
	lastStamp Time
	acquires  uint64
}

// NewResource returns a resource with the given concurrency capacity.
func NewResource(s *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity, cond: Cond{sim: s}}
}

func (r *Resource) stamp() {
	now := r.sim.Now()
	r.busy += Duration(int64(now.Sub(r.lastStamp)) * int64(r.inUse))
	r.lastStamp = now
}

func (r *Resource) ready() bool { return r.inUse < r.capacity }

// Acquire blocks p until a slot is free, then takes it. A waiter woken by
// a Release whose slot someone took before the waiter ran (a holder that
// re-acquires at once) goes back to the tail.
func (r *Resource) Acquire(p *Proc) {
	for !r.ready() {
		r.cond.waitFor(p, r)
	}
	r.stamp()
	r.inUse++
	r.acquires++
}

// TryAcquire takes a slot if one is free without blocking.
func (r *Resource) TryAcquire() bool {
	if !r.ready() {
		return false
	}
	r.stamp()
	r.inUse++
	r.acquires++
	return true
}

// Release frees a slot and admits the longest waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	r.stamp()
	r.inUse--
	r.cond.Signal()
}

// AcquireNotify is Acquire for a caller that is no process. It takes a
// slot and reports true when one is free. Otherwise it arms fn in the FIFO
// place Acquire's process would take (Cond.Notify) and reports false; fn
// then runs in that process's wake slot and must call AcquireNotify again,
// because like Acquire's loop it re-checks on waking and goes to the tail
// if the slot went to someone else meanwhile.
func (r *Resource) AcquireNotify(fn func()) bool {
	if r.TryAcquire() {
		return true
	}
	r.cond.Notify(fn)
	return false
}

// Use acquires the resource, holds it for d, and releases it; the classic
// "consume d of service time" idiom. The release is deferred so a process
// killed mid-hold does not strand the slot.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	defer r.Release()
	p.Sleep(d)
}

// InUse reports the number of slots currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquires reports the total number of successful acquisitions.
func (r *Resource) Acquires() uint64 { return r.acquires }

// BusyTime reports the accumulated slot-busy time up to the current instant.
func (r *Resource) BusyTime() Duration {
	r.stamp()
	return r.busy
}

// Utilization reports mean utilization (busy time / (capacity × elapsed))
// over the interval from simulation start to now.
func (r *Resource) Utilization() float64 {
	now := r.sim.Now()
	if now == 0 {
		return 0
	}
	return float64(r.BusyTime()) / (float64(now) * float64(r.capacity))
}
