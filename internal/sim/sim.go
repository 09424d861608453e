// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Sim owns a virtual clock and an event heap. Model code runs either as
// plain callbacks scheduled with At, or as processes (Proc) spawned with
// Spawn. A process runs on a coroutine (see carrier), so the kernel
// guarantees that at most one process executes at a time and that control
// transfers are totally ordered by (virtual time, sequence number): a
// simulation run is fully deterministic for a given seed.
//
// Processes block with Proc.Sleep, Cond.Wait, Resource.Acquire, or
// Queue.Get. While a process is blocked it consumes no virtual time beyond
// what it asked for; its coroutine is suspended. A Sim that spawned
// processes holds their coroutines until Close. Code that waits but never
// blocks mid-stack — a demultiplexer, a clock — is no process: it waits as
// a callback (Cond.Notify, Queue.Notify) or an At chain, and costs neither
// a coroutine nor a switch.
//
// The event loop is a zero-allocation fast path: the pending set is a
// concrete 4-ary min-heap of pooled event records keyed on (time, seq), so
// scheduling involves no interface conversions and, once the free list has
// warmed up, no heap allocations. Each record knows its slot, so a cancel
// takes it out at once and the heap holds only live work. Process wake-ups
// (Sleep, Cond, Resource, Queue) are typed targets on the event record
// rather than closures.
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
)

// Time is an absolute virtual time in microseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis reports the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// Seconds reports the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }

// Millis reports the time as floating-point milliseconds since start.
func (t Time) Millis() float64 { return Duration(t).Millis() }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// event is the kernel's scheduled-occurrence record. Records are pooled:
// after an event fires, is cancelled or is dropped, the record returns to
// the free list with its generation bumped, which invalidates any
// outstanding Event handles to the old occurrence.
//
// Exactly one of fn, proc, waiter is set: fn is a plain callback, proc is a
// process to dispatch (Sleep/Spawn/wake-ups), waiter is a Cond.WaitTimeout
// or NotifyTimeout deadline.
type event struct {
	t      Time
	seq    uint64
	fn     func()
	proc   *Proc
	waiter *condWaiter
	idx    int // slot in Sim.events while pending
	weak   bool
	gen    uint64
}

func eventLess(a, b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Event is a cancellable handle to a scheduled occurrence. The zero value
// refers to nothing; cancelling it is a no-op.
type Event struct {
	s         *Sim
	e         *event
	gen       uint64
	cancelled bool
}

// Cancel prevents the event from firing and takes its record out of the
// heap at once. Cancelling an event that already fired or was already
// cancelled is a no-op: the handle's generation no longer matches the
// pooled record, so a recycled record is never touched. So is a cancel
// after Close, which dropped the heap.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	e.cancelled = true
	if r := e.e; r != nil && r.gen == e.gen && !e.s.closed {
		e.s.cancel(r)
	}
}

// Cancelled reports whether Cancel was called through this handle.
func (e *Event) Cancelled() bool { return e != nil && e.cancelled }

// Sim is a discrete-event simulation instance. Create one with New; it is
// not safe for concurrent use from multiple OS threads outside the process
// discipline the kernel itself imposes.
type Sim struct {
	now    Time
	events []*event // 4-ary min-heap on (t, seq); each record knows its slot
	free   []*event // event record free list
	seq    uint64
	rng    *rand.Rand
	nprocs int
	until  Time // Run bound for the loop, 0 = none
	weakN  int  // weak events in the heap

	// The event ledger beside seq, which Run checks (audit).
	fired, cancelled, dropped uint64
	// switches counts coroutine resumptions (Switches).
	switches uint64

	// carriers chains every coroutine this sim started (carrier.all), for
	// Close; idle chains those whose process returned (carrier.idle), for
	// the next Spawn.
	carriers  *carrier
	idle      *carrier
	ncarriers int

	// fatal carries a model-code panic from the process it unwound to the
	// Run caller, which re-raises it (see runProc), so a panicking
	// simulation aborts with one message on the driving goroutine —
	// recoverable by harnesses like the scenario fuzzer.
	fatal *fatalPanic
	// halted stops loop from popping events: a process panicked, or Close
	// began.
	halted bool
	closed bool

	// Trace, when non-nil, receives a line per control transfer
	// (debugging). Per-instance so concurrently executing sims can be
	// traced independently without racing on a package global.
	Trace func(string)

	freeWaiters []*condWaiter
}

// fatalPanic records a panic captured in a process.
type fatalPanic struct {
	val   any
	proc  string
	stack []byte
}

// raise re-panics on the caller's goroutine.
func (f *fatalPanic) raise(now Time) {
	panic(fmt.Sprintf("sim: process %q panicked at t=%d: %v\n%s", f.proc, now, f.val, f.stack))
}

// New returns a simulator with its clock at zero and the given RNG seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// EventsFired reports how many events have fired so far; useful for
// determinism checks and kernel tests.
func (s *Sim) EventsFired() uint64 { return s.fired }

// Switches reports how many times the kernel has resumed a process's
// coroutine. A process whose own wake-up is the next event continues with
// no switch, and a callback never costs one.
func (s *Sim) Switches() uint64 { return s.switches }

// refill stocks an empty free list of event or waiter records from one
// allocation of 64: a sim with ten thousand simultaneous sleepers pays
// hundreds of allocations for its records, not one each.
func refill[T any](free []*T) []*T {
	slab := make([]T, 64)
	for i := range slab {
		free = append(free, &slab[i])
	}
	return free
}

func (s *Sim) newEvent() *event {
	if len(s.free) == 0 {
		s.free = refill(s.free)
	}
	n := len(s.free) - 1
	e := s.free[n]
	s.free = s.free[:n]
	return e
}

// recycle returns a record that left the heap to the free list. Bumping
// the generation first makes any outstanding handle to it inert.
func (s *Sim) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.proc = nil
	e.waiter = nil
	e.weak = false
	s.free = append(s.free, e)
}

// schedule enqueues one event record d after the current time.
func (s *Sim) schedule(d Duration, fn func(), p *Proc, w *condWaiter) *event {
	if d < 0 {
		panic("sim: negative delay")
	}
	e := s.newEvent()
	e.t = s.now.Add(d)
	e.seq = s.seq
	e.fn, e.proc, e.waiter = fn, p, w
	s.seq++
	e.idx = len(s.events)
	s.events = append(s.events, e)
	s.up(e.idx)
	return e
}

// heapRemove takes the record in slot i out of the 4-ary min-heap: the
// last record fills the hole and is sifted whichever way restores order.
func (s *Sim) heapRemove(i int) {
	h := s.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.events = h[:n]
	if i == n {
		return
	}
	h[i] = last
	if i > 0 && eventLess(last, h[(i-1)>>2]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

// up sifts the record in slot i toward the root.
func (s *Sim) up(i int) {
	h := s.events
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !eventLess(e, p) {
			break
		}
		h[i], p.idx = p, i
		i = parent
	}
	h[i], e.idx = e, i
}

// down sifts the record in slot i toward the leaves.
func (s *Sim) down(i int) {
	h := s.events
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		least := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if eventLess(h[k], h[least]) {
				least = k
			}
		}
		if !eventLess(h[least], e) {
			break
		}
		h[i], h[least].idx = h[least], i
		i = least
	}
	h[i], e.idx = e, i
}

// cancel takes a pending record out of the heap and recycles it.
func (s *Sim) cancel(e *event) {
	s.heapRemove(e.idx)
	if e.weak {
		s.weakN--
	}
	s.cancelled++
	s.recycle(e)
}

// handle returns the caller's cancellable handle to a scheduled record.
func (s *Sim) handle(e *event) Event { return Event{s: s, e: e, gen: e.gen} }

// At schedules fn to run d after the current time and returns an Event so
// the caller may cancel it. d must be non-negative; a zero d schedules the
// callback after all other work already scheduled for the current instant.
func (s *Sim) At(d Duration, fn func()) Event {
	return s.handle(s.schedule(d, fn, nil, nil))
}

// AtWeak schedules fn like At, but as a weak event: at its scheduled time
// it fires only if at least one ordinary (non-weak) event remains in the
// heap. Otherwise the record is dropped without advancing the clock. A
// self-rescheduling observer (a periodic sampler) uses this so its next
// tick can never extend the simulation past the workload's natural
// quiesce: the run ends at exactly the instant it would have ended with no
// observer scheduled at all.
func (s *Sim) AtWeak(d Duration, fn func()) Event {
	e := s.schedule(d, fn, nil, nil)
	e.weak = true
	s.weakN++
	return s.handle(e)
}

// liveOrdinary reports whether any ordinary (non-weak) event remains in the
// heap. Cancelled events leave the heap at once, so every record in it is
// live, and counting the weak ones is enough.
func (s *Sim) liveOrdinary() bool { return len(s.events) > s.weakN }

// wakeProc schedules a dispatch of p at the current instant without
// allocating a closure (the typed fast path behind Cond, Resource, Queue).
func (s *Sim) wakeProc(p *Proc) {
	s.schedule(0, nil, p, nil)
}

// Run processes events until the heap is empty or the clock would pass
// until (until <= 0 means run to completion). It returns the final clock.
//
// Run's goroutine is the hub of every process switch: a process that must
// give way switches back here naming its successor, and Run resumes that
// one. Both are same-thread coroutine switches that bypass the Go scheduler.
func (s *Sim) Run(until Time) Time {
	if s.closed {
		panic("sim: Run after Close")
	}
	s.until = until
	for p := s.loop(); p != nil; {
		s.switches++
		p, _ = p.c.next()
	}
	if f := s.fatal; f != nil {
		// Re-raise a captured process panic here, on the driving
		// goroutine. The simulation is dead: every later Run raises it
		// again, and only Close is left to do.
		f.raise(s.now)
	}
	s.audit()
	if until > 0 && s.now < until {
		s.now = until
	}
	return s.now
}

// audit checks the event ledger: every event ever scheduled has fired,
// been cancelled, been dropped at quiesce, or is still in the heap. A
// record that left the heap any other way would be a lost wake-up.
func (s *Sim) audit() {
	if s.seq != s.fired+s.cancelled+s.dropped+uint64(len(s.events)) {
		panic(fmt.Sprintf("sim: event ledger does not balance: scheduled %d != fired %d + cancelled %d + dropped %d + pending %d",
			s.seq, s.fired, s.cancelled, s.dropped, len(s.events)))
	}
}

// loop is the event loop. It pops events until a process must run and
// returns that process; nil means the run is over for now (heap empty,
// until reached, or halted). Whoever gives up control runs it — Run, a
// process that blocks (yield), a carrier whose process returned — so plain
// callbacks fire inline wherever the loop happens to be, and a process
// whose own wake-up is the next event gets itself back and continues with
// no switch at all.
func (s *Sim) loop() *Proc {
	for len(s.events) > 0 && !s.halted {
		e := s.events[0]
		if s.until > 0 && e.t > s.until {
			s.now = s.until
			break
		}
		s.heapRemove(0)
		if e.weak {
			s.weakN--
			if !s.liveOrdinary() {
				// A weak event with no ordinary work left behind it: drop
				// it without advancing the clock, so observers never
				// stretch a quiesced simulation.
				s.dropped++
				s.recycle(e)
				continue
			}
		}
		if e.t < s.now {
			panic("sim: time went backwards")
		}
		s.now = e.t
		s.fired++
		fn, p, w := e.fn, e.proc, e.waiter
		s.recycle(e)
		if w != nil {
			// A WaitTimeout deadline: take the waiter off its Cond's list
			// and dispatch the parked process, or call a NotifyTimeout
			// callback.
			w.c.detach(w)
			if fn := w.fn; fn != nil {
				s.putWaiter(w)
				fn()
				continue
			}
			p = w.p
		}
		if p == nil {
			fn()
			continue
		}
		// A wake-up may outlive its target: Kill unwinds a process on its
		// first dispatch, and any further events still aimed at it (an old
		// sleep deadline, a queued signal) are scrubbed here.
		if p.done {
			continue
		}
		if s.Trace != nil {
			s.Trace(fmt.Sprintf("t=%d dispatch %s", s.now, p.name))
		}
		return p
	}
	return nil
}

// Close ends the simulation and releases what it holds. Every live process
// is unwound the way Kill unwinds one — its blocking call panics with the
// kill sentinel, so deferred cleanups run — in no particular order and
// without firing another event; every coroutine returns; the event heap
// and the free lists are dropped. A suspended coroutine is a garbage
// collection root, so a sim that spawned processes and is never closed
// keeps them, their stacks and everything those reach for the life of the
// program. Call Close when no Run is in progress and the last result has
// been read. A second Close is a no-op; Spawn and Run after it panic. A panic other than the kill unwind raised by a cleanup is
// re-raised here.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed, s.halted = true, true
	s.fatal = nil // Run raised it already, if there was one
	for c := s.carriers; c != nil; c = c.all {
		c.stop()
		if p := c.proc; p != nil {
			// Spawned but never dispatched: the body never ran.
			p.done, p.killed, p.fn, p.c = true, true, nil, nil
			c.proc = nil
		}
	}
	s.nprocs = 0
	s.carriers, s.idle = nil, nil
	s.events, s.free, s.freeWaiters = nil, nil, nil
	if f := s.fatal; f != nil {
		f.raise(s.now)
	}
}

// Idle reports whether no events remain. A cancelled event leaves the
// heap at once, so a sim whose last deadlines were all cancelled is idle.
func (s *Sim) Idle() bool { return len(s.events) == 0 }

// Pending reports how many events are scheduled and have not yet fired,
// been cancelled or been dropped: the live records in the heap.
func (s *Sim) Pending() int { return len(s.events) }

// NumProcs reports the number of live (spawned, not yet finished) processes.
func (s *Sim) NumProcs() int { return s.nprocs }

// Carriers reports how many coroutines the sim has started. A finished
// process's coroutine carries the next one, so this is the peak number of
// processes alive at once.
func (s *Sim) Carriers() int { return s.ncarriers }

// Proc is a simulation process: a function run on a coroutine that the
// kernel schedules cooperatively. All blocking methods must be called from
// the process itself.
type Proc struct {
	sim    *Sim
	name   string
	fn     func(p *Proc)
	c      *carrier
	done   bool
	killed bool
	// waiting is the cond waiter the process is currently parked on, if
	// any; Kill uses it to scrub the process out of the wait list.
	waiting *condWaiter
	// parent/children link helper processes (SpawnChild) to their owner
	// so Kill takes the whole tree down — an I/O fan-out must not outlive
	// the crashed host that issued it.
	parent   *Proc
	children []*Proc
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn starts fn as a new process. The process begins running at the
// current virtual time (after already-scheduled work for this instant).
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a new process after delay d. The process takes
// over an idle carrier if there is one, so a model that spawns a process
// per operation starts a coroutine per concurrent operation, not per
// operation; the handle is a new Proc either way.
func (s *Sim) SpawnAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	if s.closed {
		panic("sim: Spawn after Close")
	}
	var p *Proc
	c := s.idle
	if c != nil {
		s.idle, c.idle = c.idle, nil
		p = new(Proc)
	} else {
		c = s.newCarrier()
		p = &c.first
	}
	*p = Proc{sim: s, name: name, fn: fn, c: c}
	c.proc = p
	s.nprocs++
	s.schedule(d, nil, p, nil)
	return p
}

// SpawnChild starts fn as a helper process owned by parent: killing the
// parent kills the child too. Device fan-outs (a stripe splitting one
// transfer across members) use it so in-flight member I/O dies with the
// crashed host instead of completing posthumously. Scheduling is identical
// to Spawn.
func (s *Sim) SpawnChild(parent *Proc, name string, fn func(p *Proc)) *Proc {
	p := s.Spawn(name, fn)
	p.parent = parent
	parent.children = append(parent.children, p)
	return p
}

// unlinkParent removes a finished child from its parent's list.
func (p *Proc) unlinkParent() {
	if p.parent == nil {
		return
	}
	kids := p.parent.children
	for i, c := range kids {
		if c == p {
			kids[i] = kids[len(kids)-1]
			kids[len(kids)-1] = nil
			p.parent.children = kids[:len(kids)-1]
			break
		}
	}
	p.parent = nil
}

// killSentinel is the panic value that unwinds a killed process's stack;
// runProc swallows it so only the victim dies.
type killSentinel struct{}

// runProc runs a process body, absorbing the kill unwind. Any other
// panic is captured into s.fatal — the process's deferred cleanups have
// already run by the time the recover sees it — and the loop halts so the
// Run caller can re-raise it on the driving goroutine.
func runProc(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				return
			}
			if p.sim.fatal == nil {
				p.sim.fatal = &fatalPanic{val: r, proc: p.name, stack: debug.Stack()}
				p.sim.halted = true
			}
		}
	}()
	if p.killed {
		return // killed before first dispatch
	}
	p.fn(p)
}

// Kill marks p for termination: the next time the kernel dispatches it, the
// process unwinds (deferred cleanups run) instead of resuming model code.
// If p is parked on a Cond/Queue/Resource it is scrubbed from the wait list
// immediately, so no later Signal is wasted on it, and a wake-up is
// scheduled at the current instant to deliver the kill promptly. Killing a
// finished or already-killed process is a no-op. A process cannot kill
// itself — unwind by returning instead.
//
// Kill models a crash, not a graceful stop: the victim's stack unwinds
// mid-operation, so shared structures it is mid-flight on must release via
// defer (the kernel's own Resource.Use does; so do the disk arm and the
// network medium).
func (s *Sim) Kill(p *Proc) {
	if p == nil || p.done || p.killed {
		return
	}
	p.killed = true
	// Take down owned helpers first (SpawnChild): their in-flight work
	// belongs to this process's host.
	for _, c := range p.children {
		s.Kill(c)
	}
	if w := p.waiting; w != nil {
		// Scrub the parked process out of its wait list so a future
		// Signal is not spent on a corpse, cancel any pending timeout,
		// and recycle the waiter record (the unwinding Wait will not).
		w.c.detach(w)
		w.timeout.Cancel()
		p.waiting = nil
		s.putWaiter(w)
	}
	s.wakeProc(p)
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the process has finished (returned or unwound).
// Fault injectors use it to tell a completed application from one their
// kill actually took down.
func (p *Proc) Done() bool { return p.done }

// yield runs the event loop on the process's own coroutine until some
// process must run. If that is p itself, model code simply continues;
// otherwise p switches to Run's goroutine, naming the process to resume,
// and stays suspended until it is dispatched again. A killed process never
// resumes model code: the kill unwinds its stack here, through whatever
// blocking primitive parked it. So does Close, which stops the coroutine
// (the switch then reports false, at once and on every later attempt).
func (p *Proc) yield() {
	if next := p.sim.loop(); next != p && !p.c.yield(next) {
		p.killed = true
	}
	if p.killed {
		panic(killSentinel{})
	}
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.sim.schedule(d, nil, p, nil)
	p.yield()
}

// Park blocks the process until some other party wakes it via the returned
// wake function. The wake function may be called at most once, from kernel
// context (an event callback or another process); it schedules the wakeup
// at the current virtual time.
func (p *Proc) Park() (wake func()) {
	woken := false
	return func() {
		if woken {
			panic("sim: double wake of process " + p.name)
		}
		woken = true
		p.sim.wakeProc(p)
	}
}

// Block parks the process; the wake function returned by a prior Park
// arrangement releases it. Callers typically use higher-level Cond, Resource
// or Queue instead.
func (p *Proc) Block() { p.yield() }
