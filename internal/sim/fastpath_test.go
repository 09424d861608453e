package sim

import "testing"

// The kernel fast path (4-ary heap, event free list, typed wake targets,
// ring-buffer Queue) must preserve the exact semantics the model layers
// depend on. These tests pin the edge cases the refactor could plausibly
// have broken, plus allocation guards for the steady-state hot paths.

// TestCancelAfterFire: cancelling an event that already fired must be a
// no-op — in particular it must NOT cancel an unrelated event that reuses
// the same pooled record.
func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	fired1 := false
	e1 := s.At(Millisecond, func() { fired1 = true })
	s.Run(0)
	if !fired1 {
		t.Fatal("first event did not fire")
	}

	// The freed record is reused by the next At.
	fired2 := false
	s.At(Millisecond, func() { fired2 = true })

	// Stale handle: must not touch the recycled record.
	e1.Cancel()
	s.Run(0)
	if !fired2 {
		t.Fatal("cancel of already-fired event leaked into a reused record")
	}
	if !e1.Cancelled() {
		t.Fatal("handle should still report Cancel was called")
	}
}

// TestCancelZeroEvent: the zero-value handle is inert.
func TestCancelZeroEvent(t *testing.T) {
	var e Event
	e.Cancel() // must not panic
	if !e.Cancelled() {
		t.Fatal("Cancelled should report the Cancel call")
	}
	var pe *Event
	pe.Cancel() // nil receiver must not panic
	if pe.Cancelled() {
		t.Fatal("nil handle cannot have been cancelled")
	}
}

// TestWaitTimeoutExactDeadline: a Signal scheduled for exactly the
// deadline instant but sequenced after the timeout event must lose — the
// waiter times out, and the signal falls through to the next waiter.
func TestWaitTimeoutExactDeadline(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var timedOutFirst, signaledSecond bool
	s.Spawn("first", func(p *Proc) {
		// WaitTimeout schedules its deadline event now (seq N).
		timedOutFirst = !c.WaitTimeout(p, 5*Millisecond)
	})
	s.Spawn("second", func(p *Proc) {
		signaledSecond = c.WaitTimeout(p, 50*Millisecond)
	})
	// Schedule the Signal for t=5ms from t=1ms, so its event is sequenced
	// after the first waiter's deadline event (created at t=0): at the
	// shared instant, the deadline fires first and wins.
	s.At(Millisecond, func() {
		s.At(4*Millisecond, func() { c.Signal() })
	})
	s.Run(0)
	if !timedOutFirst {
		t.Fatal("first waiter should time out at its exact deadline")
	}
	if !signaledSecond {
		t.Fatal("signal at the deadline instant should wake the second waiter")
	}
	if got := s.Now(); got != 5*1000 {
		t.Fatalf("clock = %d, want 5ms", got)
	}
}

// TestWaitTimeoutSignalJustBeforeDeadline: a signal one microsecond before
// the deadline wins.
func TestWaitTimeoutSignalJustBeforeDeadline(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var signaled bool
	s.Spawn("w", func(p *Proc) {
		signaled = c.WaitTimeout(p, 5*Millisecond)
	})
	s.At(5*Millisecond-Microsecond, func() { c.Signal() })
	s.Run(0)
	if !signaled {
		t.Fatal("waiter should be signaled just before the deadline")
	}
}

// TestQueueByteBoundAtWrap: byte-bounded drops must behave identically
// when the ring's write position has wrapped around the backing array.
func TestQueueByteBoundAtWrap(t *testing.T) {
	s := New(1)
	q := NewByteQueue[int](s, 0, 100, func(int) int { return 30 })

	var got []int
	drain := func(n int) {
		for i := 0; i < n; i++ {
			v, ok := q.TryGet()
			if !ok {
				t.Fatal("queue unexpectedly empty")
			}
			got = append(got, v)
		}
	}

	// Cycle enough items through to force several wraps of the initial
	// 8-slot ring, then fill to the byte bound at a wrapped position.
	next := 0
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 3; i++ {
			if !q.Put(next) {
				t.Fatalf("unexpected drop at fill %d", next)
			}
			next++
		}
		drain(3)
	}
	// 3 items fit (90 bytes); the 4th exceeds 100 bytes and must drop.
	for i := 0; i < 3; i++ {
		if !q.Put(next) {
			t.Fatalf("unexpected drop at fill %d", next)
		}
		next++
	}
	if q.Put(999) {
		t.Fatal("byte-bound overflow accepted at wrap point")
	}
	if q.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", q.Drops())
	}
	if q.Bytes() != 90 {
		t.Fatalf("bytes = %d, want 90", q.Bytes())
	}
	drain(3)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO order broken: got[%d] = %d", i, v)
		}
	}
}

// TestQueueScanRemoveAtWrap: Scan with remove of a mid-queue element must
// preserve FIFO order of the remainder across the wrap point.
func TestQueueScanRemoveAtWrap(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)

	// Advance head so the live window wraps: with an 8-slot ring, pushing
	// 6, popping 4, pushing 5 more leaves elements physically split.
	for i := 0; i < 6; i++ {
		q.Put(i)
	}
	for i := 0; i < 4; i++ {
		q.TryGet()
	}
	for i := 6; i < 11; i++ {
		q.Put(i)
	}
	// Queue now holds 4..10.
	v, found := q.Scan(func(x int) bool { return x == 7 }, true)
	if !found || v != 7 {
		t.Fatalf("Scan(7) = %d, %v", v, found)
	}
	want := []int{4, 5, 6, 8, 9, 10}
	for _, w := range want {
		g, ok := q.TryGet()
		if !ok || g != w {
			t.Fatalf("after mid-queue remove: got %d (ok=%v), want %d", g, ok, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty: %d", q.Len())
	}
}

// TestQueueScanRemoveHeadTail: removing the first and last elements via
// Scan keeps the ring consistent.
func TestQueueScanRemoveHeadTail(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	if _, found := q.Scan(func(x int) bool { return x == 0 }, true); !found {
		t.Fatal("head remove failed")
	}
	if _, found := q.Scan(func(x int) bool { return x == 4 }, true); !found {
		t.Fatal("tail remove failed")
	}
	want := []int{1, 2, 3}
	for _, w := range want {
		g, ok := q.TryGet()
		if !ok || g != w {
			t.Fatalf("got %d (ok=%v), want %d", g, ok, w)
		}
	}
}

// TestAtRunZeroAlloc: once the free list has warmed up, the At/Run cycle
// must not allocate.
func TestAtRunZeroAlloc(t *testing.T) {
	s := New(1)
	// Warm up the event pool and heap capacity.
	for i := 0; i < 64; i++ {
		s.At(Duration(i), func() {})
	}
	s.Run(0)
	n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.At(Duration(i), func() {})
		}
		s.Run(0)
	})
	if n > 0 {
		t.Fatalf("At/Run allocated %.1f objects per run, want 0", n)
	}
}

// TestQueueSteadyStateZeroAlloc: Put/Get cycles on a warmed ring allocate
// nothing.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	for i := 0; i < 16; i++ {
		q.Put(i)
	}
	for i := 0; i < 16; i++ {
		q.TryGet()
	}
	n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.Put(i)
		}
		for i := 0; i < 8; i++ {
			q.TryGet()
		}
	})
	if n > 0 {
		t.Fatalf("Put/TryGet allocated %.1f objects per run, want 0", n)
	}
}

// TestCondSteadyStateZeroAlloc: the typed wake path (Cond.Wait/Signal,
// which is also what Sleep, Resource and Queue wake-ups ride on) does not
// allocate once pools are warm.
func TestCondSteadyStateZeroAlloc(t *testing.T) {
	s := New(2)
	c := NewCond(s)
	s.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	s.Run(s.Now() + Time(Millisecond)) // park the waiter
	c.Signal()
	s.Run(s.Now() + Time(Millisecond)) // warm the pools
	n := testing.AllocsPerRun(100, func() {
		c.Signal()
		s.Run(s.Now() + Time(Millisecond))
	})
	if n > 0 {
		t.Fatalf("Signal/Wait cycle allocated %.1f objects per run, want 0", n)
	}
}

// TestDeterminismEventsFired: the same model run twice from the same seed
// fires the identical number of events and lands on the same clock.
func TestDeterminismEventsFired(t *testing.T) {
	run := func() (uint64, Time) {
		s := New(42)
		q := NewQueue[int](s, 4)
		res := NewResource(s, 2)
		for i := 0; i < 4; i++ {
			s.Spawn("prod", func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(Duration(1 + s.Rand().Intn(500)))
					q.Put(j)
				}
			})
			s.Spawn("cons", func(p *Proc) {
				for j := 0; j < 50; j++ {
					if _, ok := q.TryGet(); !ok {
						p.Sleep(300 * Microsecond)
						continue
					}
					res.Use(p, Duration(1+s.Rand().Intn(200)))
				}
			})
		}
		end := s.Run(0)
		return s.EventsFired(), end
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 || t1 != t2 {
		t.Fatalf("non-deterministic: run1=(%d, %d) run2=(%d, %d)", f1, t1, f2, t2)
	}
	if f1 == 0 {
		t.Fatal("model fired no events")
	}
}
