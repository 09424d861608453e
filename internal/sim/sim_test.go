package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestAtFiresInOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*Millisecond, func() { order = append(order, 3) })
	s.At(10*Millisecond, func() { order = append(order, 1) })
	s.At(20*Millisecond, func() { order = append(order, 2) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != Time(30*Millisecond) {
		t.Fatalf("final clock %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Millisecond, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("At(-1) did not panic")
		}
	}()
	s.At(-1, func() {})
}

func TestCancelledEventDoesNotFire(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(Millisecond, func() { fired = true })
	e.Cancel()
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(10*Millisecond, func() { fired++ })
	s.At(50*Millisecond, func() { fired++ })
	end := s.Run(Time(20 * Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if end != Time(20*Millisecond) {
		t.Fatalf("end = %v, want 20ms", end)
	}
	// Continue to completion.
	s.Run(0)
	if fired != 2 {
		t.Fatalf("fired = %d after full run, want 2", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New(1)
	end := s.Run(Time(7 * Second))
	if end != Time(7*Second) {
		t.Fatalf("end = %v, want 7s", end)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Millisecond)
		wake = p.Now()
	})
	s.Run(0)
	if wake != Time(42*Millisecond) {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
	if s.NumProcs() != 0 {
		t.Fatalf("NumProcs = %d after completion, want 0", s.NumProcs())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New(1)
		var log []string
		s.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10 * Millisecond)
				log = append(log, "a")
			}
		})
		s.Spawn("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(15 * Millisecond)
				log = append(log, "b")
			}
		})
		s.Run(0)
		return log
	}
	first := run()
	// a wakes at 10, 20, 30; b at 15, 30. At t=30 b's wakeup was scheduled
	// first (at t=15) so it fires before a's (scheduled at t=20).
	want := []string{"a", "b", "a", "b", "a"}
	if len(first) != len(want) {
		t.Fatalf("log = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSpawnAfter(t *testing.T) {
	s := New(1)
	var start Time
	s.SpawnAfter(100*Millisecond, "late", func(p *Proc) { start = p.Now() })
	s.Run(0)
	if start != Time(100*Millisecond) {
		t.Fatalf("started at %v, want 100ms", start)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	s.At(Millisecond, func() {
		if c.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", c.Waiters())
		}
		c.Signal()
	})
	s.At(2*Millisecond, func() { c.Broadcast() })
	s.Run(0)
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

func TestCondWaitTimeoutExpires(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var signaled bool
	var woke Time
	s.Spawn("w", func(p *Proc) {
		signaled = c.WaitTimeout(p, 5*Millisecond)
		woke = p.Now()
	})
	s.Run(0)
	if signaled {
		t.Fatal("WaitTimeout reported signaled on timeout")
	}
	if woke != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if c.Waiters() != 0 {
		t.Fatalf("stale waiter left on cond")
	}
}

func TestCondWaitTimeoutSignaled(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var signaled bool
	var woke Time
	s.Spawn("w", func(p *Proc) {
		signaled = c.WaitTimeout(p, 50*Millisecond)
		woke = p.Now()
	})
	s.At(3*Millisecond, func() { c.Signal() })
	s.Run(0)
	if !signaled {
		t.Fatal("WaitTimeout reported timeout despite signal")
	}
	if woke != Time(3*Millisecond) {
		t.Fatalf("woke at %v, want 3ms", woke)
	}
}

func TestSignalAfterTimeoutSkipsDeadWaiter(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	timedOut := false
	got := false
	s.Spawn("t", func(p *Proc) {
		if !c.WaitTimeout(p, Millisecond) {
			timedOut = true
		}
	})
	s.SpawnAfter(2*Millisecond, "w", func(p *Proc) {
		c.Wait(p)
		got = true
	})
	s.At(3*Millisecond, func() { c.Signal() })
	s.Run(0)
	if !timedOut {
		t.Fatal("first waiter should have timed out")
	}
	if !got {
		t.Fatal("signal was consumed by a timed-out waiter")
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		s.Spawn("u", func(p *Proc) {
			r.Use(p, 10*Millisecond)
			finish = append(finish, p.Now())
		})
	}
	s.Run(0)
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
	if r.Acquires() != 3 {
		t.Fatalf("Acquires = %d, want 3", r.Acquires())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	s := New(1)
	r := NewResource(s, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		s.Spawn("u", func(p *Proc) {
			r.Use(p, 10*Millisecond)
			finish = append(finish, p.Now())
		})
	}
	s.Run(0)
	// Two run in parallel, then the next two.
	want := []Time{Time(10 * Millisecond), Time(10 * Millisecond), Time(20 * Millisecond), Time(20 * Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	s.Spawn("u", func(p *Proc) {
		r.Use(p, 25*Millisecond)
	})
	s.Run(Time(100 * Millisecond))
	got := r.Utilization()
	if got < 0.249 || got > 0.251 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed on idle resource")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire succeeded on busy resource")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestQueuePutGet(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	s.At(Millisecond, func() { q.Put(1); q.Put(2) })
	s.At(2*Millisecond, func() { q.Put(3) })
	s.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueDropsWhenFull(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 2)
	if !q.Put(1) || !q.Put(2) {
		t.Fatal("puts under capacity failed")
	}
	if q.Put(3) {
		t.Fatal("put over capacity accepted")
	}
	if q.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", q.Drops())
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestByteQueueLimit(t *testing.T) {
	s := New(1)
	q := NewByteQueue[string](s, 0, 10, func(v string) int { return len(v) })
	if !q.Put("hello") { // 5 bytes
		t.Fatal("put failed")
	}
	if !q.Put("hi") { // 7 total
		t.Fatal("put failed")
	}
	if q.Put("worlds") { // would be 13
		t.Fatal("byte-limit put accepted")
	}
	if q.Bytes() != 7 {
		t.Fatalf("Bytes = %d, want 7", q.Bytes())
	}
	if v, ok := q.TryGet(); !ok || v != "hello" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
	if q.Bytes() != 2 {
		t.Fatalf("Bytes = %d after get, want 2", q.Bytes())
	}
}

func TestQueueScan(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	for _, v := range []int{4, 8, 15, 16, 23} {
		q.Put(v)
	}
	v, found := q.Scan(func(x int) bool { return x > 10 }, false)
	if !found || v != 15 {
		t.Fatalf("Scan = %d,%v; want 15,true", v, found)
	}
	if q.Len() != 5 {
		t.Fatalf("non-removing scan changed length to %d", q.Len())
	}
	v, found = q.Scan(func(x int) bool { return x > 10 }, true)
	if !found || v != 15 {
		t.Fatalf("removing Scan = %d,%v; want 15,true", v, found)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d after removing scan, want 4", q.Len())
	}
	// FIFO order preserved around the removal.
	want := []int{4, 8, 16, 23}
	for _, w := range want {
		got, _ := q.TryGet()
		if got != w {
			t.Fatalf("order disturbed: got %d want %d", got, w)
		}
	}
}

func TestQueueScanNotFound(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	q.Put(1)
	if _, found := q.Scan(func(int) bool { return false }, true); found {
		t.Fatal("Scan found a nonexistent item")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Microsecond, "500µs"},
		{8 * Millisecond, "8.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDeterminismProperty(t *testing.T) {
	// Same seed and same structure of spawned work must produce identical
	// event counts and final clocks.
	f := func(seed int64, n uint8) bool {
		run := func() (Time, uint64) {
			s := New(seed)
			c := NewCond(s)
			r := NewResource(s, 2)
			for i := 0; i < int(n%8)+2; i++ {
				s.Spawn("p", func(p *Proc) {
					d := Duration(s.Rand().Intn(1000)+1) * Microsecond
					p.Sleep(d)
					r.Use(p, d)
					c.Signal()
				})
			}
			s.Spawn("w", func(p *Proc) {
				c.WaitTimeout(p, 100*Millisecond)
			})
			end := s.Run(0)
			return end, s.EventsFired()
		}
		t1, e1 := run()
		t2, e2 := run()
		return t1 == t2 && e1 == e2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsStress(t *testing.T) {
	s := New(7)
	r := NewResource(s, 4)
	done := 0
	const n = 500
	for i := 0; i < n; i++ {
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Duration(s.Rand().Intn(100)) * Microsecond)
			r.Use(p, Duration(s.Rand().Intn(50)+1)*Microsecond)
			done++
		})
	}
	s.Run(0)
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if s.NumProcs() != 0 {
		t.Fatalf("NumProcs = %d, want 0", s.NumProcs())
	}
}
