package sim

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// notifyScript is one model run whose consumer drains a queue either as a
// process blocked in Get or as a callback armed with Notify. The consumer
// starts in the same event slot both ways (a spawn dispatch, or an At that
// arms the callback); every item it handles wakes a watcher process and
// schedules a follow-up, so a handler that ran in any other (t, seq) slot
// would show in the fired counts the trace records.
func notifyScript(callback bool) (trace []string, fired uint64, end Time) {
	s := New(3)
	defer s.Close()
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("t=%d fired=%d ", s.Now(), s.EventsFired())+fmt.Sprintf(format, args...))
	}
	q := NewQueue[int](s, 0)
	seen := NewCond(s)
	handle := func(v int) {
		logf("handle %d", v)
		seen.Signal()
		s.At(Duration(1+v%3), func() { logf("follow-up %d", v) })
	}
	if callback {
		var drain func()
		drain = func() {
			for {
				v, ok := q.TryGet()
				if !ok {
					q.Notify(drain)
					return
				}
				handle(v)
			}
		}
		s.At(0, func() { q.Notify(drain) })
	} else {
		s.Spawn("consumer", func(p *Proc) {
			for {
				handle(q.Get(p))
			}
		})
	}
	s.Spawn("watcher", func(p *Proc) {
		for {
			seen.Wait(p)
			logf("watcher")
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i, gap := range []Duration{1, 0, 1, 3, 0, 0, 2} {
			p.Sleep(gap)
			q.Put(i)
			logf("put %d", i)
		}
	})
	s.At(3, func() { q.Put(100); q.Put(101) })
	end = s.Run(0)
	return trace, s.EventsFired(), end
}

// A Notify waiter takes the slot a process blocked in Get would take: the
// same script with either consumer handles every item at the same instant
// with the same number of events fired before it, fires as many events in
// all, and ends at the same clock.
func TestNotifyRunsInTheWakeSlot(t *testing.T) {
	digest := func(callback bool) string {
		trace, fired, end := notifyScript(callback)
		sum := sha256.Sum256([]byte(strings.Join(trace, "\n")))
		return fmt.Sprintf("fired=%d end=%d lines=%d trace=%x", fired, end, len(trace), sum[:8])
	}
	proc, cb := digest(false), digest(true)
	if proc != cb {
		t.Errorf("process consumer: %s\ncallback consumer: %s", proc, cb)
	}
	trace, _, _ := notifyScript(true)
	if n := strings.Count(strings.Join(trace, "\n"), "handle"); n != 9 {
		t.Errorf("%d items handled, want 9", n)
	}
}

// Process and callback waiters share one FIFO: a Broadcast wakes them in
// the order they started waiting, whatever their kind.
func TestNotifyAndWaitShareFIFO(t *testing.T) {
	s := New(1)
	defer s.Close()
	c := NewCond(s)
	var order []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("proc%d", i)
		s.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
		cb := fmt.Sprintf("cb%d", i)
		s.At(0, func() { c.Notify(func() { order = append(order, cb) }) })
	}
	s.At(5, func() {
		if n := c.Waiters(); n != 6 {
			t.Errorf("%d waiters before the broadcast, want 6", n)
		}
		if n := c.Broadcast(); n != 6 {
			t.Errorf("Broadcast woke %d, want 6", n)
		}
	})
	s.Run(0)
	if got := strings.Join(order, " "); got != "proc0 cb0 proc1 cb1 proc2 cb2" {
		t.Errorf("woken in order %q", got)
	}
}

// A Put that finds the drain already scheduled adds no event: the callback
// left the wait list when the first Put signalled it. Notify on a queue
// that holds items schedules the callback at once.
func TestPutDuringScheduledDrainAddsNoEvent(t *testing.T) {
	s := New(1)
	defer s.Close()
	q := NewQueue[int](s, 0)
	var got []int
	drains := 0
	drain := func() {
		drains++
		for v, ok := q.TryGet(); ok; v, ok = q.TryGet() {
			got = append(got, v)
		}
	}
	q.Notify(drain)
	s.At(1, func() {
		q.Put(1)
		if s.Pending() != 1 {
			t.Errorf("Pending %d after the first Put, want the drain", s.Pending())
		}
		q.Put(2)
		q.Put(3)
		if s.Pending() != 1 {
			t.Errorf("Pending %d after three Puts, want the one drain", s.Pending())
		}
	})
	s.Run(0)
	if drains != 1 || len(got) != 3 || s.EventsFired() != 2 {
		t.Errorf("drains=%d items=%v fired=%d, want 1 drain of 3 items in 2 events", drains, got, s.EventsFired())
	}
	q.Put(4)
	if s.Pending() != 0 {
		t.Errorf("a Put with nothing armed scheduled %d events", s.Pending())
	}
	q.Notify(drain)
	if s.Pending() != 1 {
		t.Errorf("Notify on a non-empty queue scheduled %d events, want 1", s.Pending())
	}
	s.Run(0)
	if drains != 2 || len(got) != 4 {
		t.Errorf("drains=%d items=%v after Notify on a non-empty queue", drains, got)
	}
}

// Armed callbacks cost no coroutine, so Close has nothing of theirs to
// stop: none fires, and the sim leaves no goroutine behind.
func TestCloseWithArmedCallbacks(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	c := NewCond(s)
	q := NewQueue[int](s, 0)
	fired := false
	c.Notify(func() { fired = true })
	q.Notify(func() { fired = true })
	s.At(1, func() {})
	s.Run(0)
	if c.Waiters() != 1 || s.Carriers() != 0 {
		t.Fatalf("waiters=%d carriers=%d before Close, want 1 and 0", c.Waiters(), s.Carriers())
	}
	s.Close()
	if fired || s.Pending() != 0 {
		t.Errorf("fired=%v pending=%d after Close", fired, s.Pending())
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("NumGoroutine=%d after Close, %d before New", got, before)
	}
}

// slotScript is one model run whose actors each loop three times over a
// held Resource (capacity 1, so they contend) and a timed wait on a Cond,
// either as processes (Use, WaitTimeout) or as callbacks (AcquireNotify
// plus an At hold, NotifyTimeout). A signaller wakes the Cond at fixed
// instants, so some waits end on a Signal before their deadline and some
// time out. Every step the trace records carries the fired count, so a
// callback that ran in any other (t, seq) slot than its process twin
// would show.
func slotScript(callback bool) (trace []string, fired uint64, end Time) {
	s := New(5)
	defer s.Close()
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("t=%d fired=%d ", s.Now(), s.EventsFired())+fmt.Sprintf(format, args...))
	}
	r := NewResource(s, 1)
	c := NewCond(s)
	const rounds = 3
	for i := 0; i < 4; i++ {
		hold, wait := Duration(2+i), Duration(3+4*i)
		if callback {
			a := &slotActor{s: s, r: r, c: c, hold: hold, wait: wait, rounds: rounds, i: i, logf: logf}
			a.acquireFn, a.releaseFn, a.waitedFn = a.acquire, a.release, a.waited
			s.At(0, a.acquireFn)
			continue
		}
		s.Spawn(fmt.Sprintf("actor%d", i), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				r.Use(p, hold)
				logf("actor%d held", i)
				c.WaitTimeout(p, wait)
				logf("actor%d waited", i)
			}
		})
	}
	for _, at := range []Duration{4, 9, 10, 17, 30} {
		s.At(at, func() { logf("signal %v", c.Signal()) })
	}
	end = s.Run(0)
	return trace, s.EventsFired(), end
}

// slotActor is slotScript's callback actor.
type slotActor struct {
	s                    *Sim
	r                    *Resource
	c                    *Cond
	hold, wait           Duration
	rounds, k, i         int
	logf                 func(string, ...any)
	acquireFn, releaseFn func()
	waitedFn             func()
}

func (a *slotActor) acquire() {
	if a.r.AcquireNotify(a.acquireFn) {
		a.s.At(a.hold, a.releaseFn)
	}
}

func (a *slotActor) release() {
	a.r.Release()
	a.logf("actor%d held", a.i)
	a.c.NotifyTimeout(a.wait, a.waitedFn)
}

func (a *slotActor) waited() {
	a.logf("actor%d waited", a.i)
	if a.k++; a.k < a.rounds {
		a.acquire()
	}
}

// The callback forms of Resource.Acquire/Use and Cond.WaitTimeout take
// the slots of their process forms: the same script either way fires the
// same events in the same order and ends at the same clock, under
// contention, with waits that end on a Signal and waits that time out.
func TestCallbackWaitsRunInTheProcessSlots(t *testing.T) {
	digest := func(callback bool) string {
		trace, fired, end := slotScript(callback)
		sum := sha256.Sum256([]byte(strings.Join(trace, "\n")))
		return fmt.Sprintf("fired=%d end=%d lines=%d trace=%x", fired, end, len(trace), sum[:8])
	}
	proc, cb := digest(false), digest(true)
	if proc != cb {
		t.Errorf("processes: %s\ncallbacks: %s", proc, cb)
	}
	trace, _, _ := slotScript(true)
	all := strings.Join(trace, "\n")
	if n := strings.Count(all, "signal true"); n == 0 || n == 12 {
		t.Errorf("%d of 12 waits ended on a Signal; the script must cover both endings", n)
	}
	if n := strings.Count(all, "held"); n != 12 {
		t.Errorf("%d holds, want 12", n)
	}
}
