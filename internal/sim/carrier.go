//go:build go1.23

// The module's language line stays at go 1.22 (bench/go.mod replaces this
// module and says 1.22); the constraint above is what admits package iter.

package sim

import "iter"

// carrier is a runtime coroutine (iter.Pull) that runs process bodies, one
// after another. Run's goroutine resumes it with next, which hands over the
// thread without a trip through the Go scheduler; the process hands it back
// with yield, naming the process Run should resume instead. A carrier whose
// process returned parks on Sim.idle and the next Spawn reuses it, stack
// and all, so what a Sim starts is a coroutine per process alive at once.
//
// next and yield order the two sides' memory accesses (the race detector
// sees an acquire/release pair on every switch), so kernel state needs no
// other synchronisation.
type carrier struct {
	sim   *Sim
	proc  *Proc // the process carried, from Spawn until its body returns
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
	idle  *carrier // link of Sim.idle
	all   *carrier // link of Sim.carriers
	first Proc     // the first process carried: one allocation for both
}

func (s *Sim) newCarrier() *carrier {
	c := &carrier{sim: s, all: s.carriers}
	s.carriers = c
	s.ncarriers++
	c.next, c.stop = iter.Pull(c.run)
	return c
}

// run is the coroutine's body: run the process, go idle, keep the event
// loop going until some process must run, switch away, and start over with
// the process a Spawn has bound meanwhile. It returns when Close stops the
// coroutine.
func (c *carrier) run(yield func(*Proc) bool) {
	c.yield = yield
	s := c.sim
	for {
		p := c.proc
		runProc(p)
		p.done, p.fn, p.c = true, nil, nil // a kept handle roots nothing
		p.unlinkParent()
		s.nprocs--
		c.proc = nil
		c.idle, s.idle = s.idle, c
		// A callback fired by this loop may spawn onto this very carrier;
		// if that process's dispatch comes up here it starts with no switch.
		if next := s.loop(); (next == nil || next.c != c) && !yield(next) {
			shedStack()
			return
		}
	}
}

// shedStack is a carrier's last call, made when Close stops it. An ended
// goroutine's record keeps its stack for the next goroutine only if that
// stack is the runtime's current starting size, which the runtime
// re-estimates at every collection from the stacks it scans. Left alone,
// whether a closed sim's carriers leave their stacks behind would hang on
// when the collector last ran (and shrank the parked ones), so the memory
// a finished run retains would move by a stack span from one run to the
// next. shedStack's 8 KB frame grows the stack to at least 16 KB, past the
// starting sizes a run produces (2 to 8 KB), so the runtime frees it when
// the coroutine returns. A 16 KB stack still comes from the runtime's
// small-stack cache; a larger frame would map fresh pages per carrier.
//
//go:noinline
func shedStack() {
	var frame [8 << 10]byte
	keepFrame(&frame)
}

//go:noinline
func keepFrame(*[8 << 10]byte) {}
