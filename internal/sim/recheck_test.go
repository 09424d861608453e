package sim

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// A holder that releases its slot and re-acquires it before the woken
// waiter runs goes ahead of that waiter, and the waiter goes back to the
// tail of the line: behind a waiter that queued after it.
func TestResourceBargingSendsWaiterToTail(t *testing.T) {
	s := New(1)
	defer s.Close()
	r := NewResource(s, 1)
	var order []string
	take := func(p *Proc, hold Duration) {
		r.Acquire(p)
		order = append(order, p.Name())
		p.Sleep(hold)
		r.Release()
	}
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		order = append(order, p.Name())
		p.Sleep(5)
		r.Release() // wakes first
		take(p, 5)  // and takes the slot back before first runs
	})
	s.SpawnAfter(1, "first", func(p *Proc) { take(p, 1) })
	s.SpawnAfter(2, "second", func(p *Proc) { take(p, 1) })
	s.At(6, func() {
		if n := r.cond.Waiters(); n != 2 {
			t.Errorf("waiters after the barging re-acquire = %d, want 2", n)
		}
		if w := r.cond.tail; w == nil || w.p.Name() != "first" {
			t.Error("the woken waiter did not go back to the tail")
		}
	})
	s.Run(0)
	if got := strings.Join(order, " "); got != "holder holder second first" {
		t.Fatalf("acquisition order %q, want %q", got, "holder holder second first")
	}
}

// slot and line are a Resource and a Queue as a script uses them, so that
// the same script runs on the kernel's types and on hand-written twins
// whose woken waiters resume, re-check and wait again in model code.
type slot interface {
	acquire(p *Proc)
	release()
}

type line interface {
	get(p *Proc) int
	tryGet() (int, bool)
	put(v int)
}

type kernelSlot struct{ r *Resource }

func (k kernelSlot) acquire(p *Proc) { k.r.Acquire(p) }
func (k kernelSlot) release()        { k.r.Release() }

type kernelLine struct{ q *Queue[int] }

func (k kernelLine) get(p *Proc) int     { return k.q.Get(p) }
func (k kernelLine) tryGet() (int, bool) { return k.q.TryGet() }
func (k kernelLine) put(v int)           { k.q.Put(v) }

type handSlot struct {
	c    *Cond
	busy bool
}

func (h *handSlot) acquire(p *Proc) {
	for h.busy {
		h.c.Wait(p)
	}
	h.busy = true
}

func (h *handSlot) release() {
	h.busy = false
	h.c.Signal()
}

type handLine struct {
	c     *Cond
	items []int
}

func (h *handLine) get(p *Proc) int {
	for len(h.items) == 0 {
		h.c.Wait(p)
	}
	v, _ := h.tryGet()
	return v
}

func (h *handLine) tryGet() (int, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	v := h.items[0]
	h.items = h.items[1:]
	return v, true
}

func (h *handLine) put(v int) {
	h.items = append(h.items, v)
	h.c.Signal()
}

// bargeScript runs holders that release a slot and re-acquire it at once,
// and a thief that takes each queued item before the woken getter runs,
// so every waiter is woken in vain at least once. It returns the trace
// (dispatch lines and model lines, each with the events fired so far),
// the event count, the switch count and the end clock.
func bargeScript(hand bool) (trace []string, fired, switches uint64, end Time) {
	s := New(5)
	defer s.Close()
	s.Trace = func(line string) { trace = append(trace, line) }
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("t=%d fired=%d ", s.Now(), s.EventsFired())+fmt.Sprintf(format, args...))
	}
	var sl slot = kernelSlot{NewResource(s, 1)}
	var ln line = kernelLine{NewQueue[int](s, 0)}
	if hand {
		sl = &handSlot{c: NewCond(s)}
		ln = &handLine{c: NewCond(s)}
	}
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("holder-%d", i), func(p *Proc) {
			sl.acquire(p)
			for k := 0; k < 3; k++ {
				p.Sleep(Duration(2 + i))
				sl.release()
				sl.acquire(p) // barges past whoever the release woke
				logf("%s re-acquired", p.Name())
			}
			p.Sleep(1)
			sl.release()
		})
	}
	for i := 0; i < 3; i++ {
		s.SpawnAfter(Duration(i), fmt.Sprintf("waiter-%d", i), func(p *Proc) {
			sl.acquire(p)
			logf("%s acquired", p.Name())
			p.Sleep(1)
			sl.release()
		})
	}
	s.Spawn("getter", func(p *Proc) {
		for {
			logf("got %d", ln.get(p))
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for v := 0; v < 6; v++ {
			p.Sleep(Duration(1 + v%2))
			ln.put(v)
			if v%2 == 0 {
				if got, ok := ln.tryGet(); ok { // the thief
					logf("stole %d", got)
				}
			}
		}
	})
	end = s.Run(0)
	return trace, s.EventsFired(), s.Switches(), end
}

// The run loop's re-check is the waiter's own re-check, less the switch:
// against hand-written waiters that resume and wait again, the kernel's
// Resource and Queue fire the same events in the same order, trace the
// same dispatches, end at the same clock, and switch less.
func TestRecheckIsTheWaitersOwnRecheck(t *testing.T) {
	digest := func(hand bool) (string, uint64) {
		trace, fired, switches, end := bargeScript(hand)
		sum := sha256.Sum256([]byte(strings.Join(trace, "\n")))
		return fmt.Sprintf("fired=%d end=%d lines=%d trace=%x", fired, end, len(trace), sum[:8]), switches
	}
	kernel, kSwitches := digest(false)
	hand, hSwitches := digest(true)
	if kernel != hand {
		t.Errorf("kernel Resource/Queue: %s\nhand-written re-wait: %s", kernel, hand)
	}
	if kSwitches >= hSwitches {
		t.Errorf("switches: kernel %d, hand-written %d; the re-check spared none", kSwitches, hSwitches)
	}
	trace, _, _, _ := bargeScript(false)
	if !strings.Contains(strings.Join(trace, "\n"), "stole") {
		t.Error("the script never stole an item: the queue re-check went untested")
	}
}

// Killing a waiter that the run loop put back at the tail scrubs it from
// the wait list, as Kill does for any parked process: the next release
// wakes nobody and the waiter's record goes back to the free list.
func TestKillRequeuedWaiterScrubs(t *testing.T) {
	s := New(1)
	defer s.Close()
	r := NewResource(s, 1)
	var victimRan bool
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(5)
		r.Release()
		r.Acquire(p) // the victim is woken, then requeued by the loop
		p.Sleep(5)
		r.Release()
	})
	victim := s.SpawnAfter(1, "victim", func(p *Proc) {
		r.Acquire(p)
		victimRan = true
	})
	var freeBefore int
	s.At(7, func() {
		if r.cond.Waiters() != 1 || victim.waiting == nil || !victim.waiting.queued {
			t.Error("the victim is not back on the wait list")
		}
		freeBefore = len(s.freeWaiters)
		s.Kill(victim)
		if n := r.cond.Waiters(); n != 0 {
			t.Errorf("waiters after killing the requeued victim = %d, want 0", n)
		}
		if len(s.freeWaiters) != freeBefore+1 {
			t.Error("the requeued victim's waiter record was not recycled")
		}
	})
	s.Run(0)
	if victimRan {
		t.Fatal("killed waiter acquired the slot")
	}
	if r.InUse() != 0 || s.NumProcs() != 0 {
		t.Fatalf("InUse = %d, NumProcs = %d at the end", r.InUse(), s.NumProcs())
	}
}

// A helper killed mid-Sleep keeps its record: its sleep deadline is still
// in the heap, and a record handed to a new helper would be dispatched by
// it. The next helper gets another record and sleeps its full time.
func TestKilledHelperIsNeverReused(t *testing.T) {
	s := New(1)
	defer s.Close()
	parent := s.Spawn("parent", func(p *Proc) {
		s.SpawnChild(p, "doomed", func(q *Proc) {
			q.Sleep(100) // its deadline at t=100 outlives the kill
			t.Error("killed helper resumed")
		})
		p.Sleep(1000)
	})
	s.At(10, func() { s.Kill(parent) })
	var doomed *Proc
	s.At(5, func() { doomed = parent.children[0] })
	var slept Duration
	s.SpawnAfter(20, "issuer", func(p *Proc) {
		s.SpawnChild(p, "fresh", func(q *Proc) {
			if q == doomed {
				t.Error("the killed helper's record was handed out again")
			}
			start := q.Now()
			q.Sleep(500)
			slept = q.Now().Sub(start)
		})
		p.Sleep(600)
	})
	s.Run(0)
	if slept != 500 {
		t.Fatalf("the new helper slept %d, want 500: a stale wake-up reached it", slept)
	}
}

// A helper that returns normally leaves its record to the next SpawnChild.
func TestReturnedHelperRecordIsReused(t *testing.T) {
	s := New(1)
	defer s.Close()
	var first, second *Proc
	s.Spawn("parent", func(p *Proc) {
		s.SpawnChild(p, "a", func(q *Proc) { first = q; q.Sleep(1) })
		p.Sleep(5)
		s.SpawnChild(p, "b", func(q *Proc) { second = q; q.Sleep(1) })
		p.Sleep(5)
	})
	s.Run(0)
	if first == nil || first != second {
		t.Fatalf("helper records %p and %p, want the first one reused", first, second)
	}
}
