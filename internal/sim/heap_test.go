package sim

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkHeap asserts the pending set's invariants: every heap record knows
// its slot and no record sorts before its parent; every lane record is at
// now, after every heap record at now and after the lane record before
// it, and laneLive counts the live ones; weakN counts the live weak
// records in both.
func checkHeap(t *testing.T, s *Sim) {
	t.Helper()
	weak := 0
	var last *event // the heap record at now with the highest seq
	for i, e := range s.events {
		if e.idx != i {
			t.Fatalf("record in slot %d says it is in slot %d", i, e.idx)
		}
		if i > 0 && eventLess(e, s.events[(i-1)>>2]) {
			t.Fatalf("slot %d sorts before its parent", i)
		}
		if e.weak {
			weak++
		}
		if e.t == s.now && (last == nil || last.seq < e.seq) {
			last = e
		}
	}
	live := 0
	for i, e := range s.lane[s.laneHead:] {
		if e.t != s.now || (last != nil && !eventLess(last, e)) {
			t.Fatalf("lane record %d at (%d, %d) is out of order at now %d", i, e.t, e.seq, s.now)
		}
		last = e
		switch e.idx {
		case laneSlot:
			live++
			if e.weak {
				weak++
			}
		case deadSlot:
		default:
			t.Fatalf("lane record %d says it is in heap slot %d", i, e.idx)
		}
	}
	if live != s.laneLive {
		t.Fatalf("%d live records on the lane, laneLive says %d", live, s.laneLive)
	}
	if weak != s.weakN {
		t.Fatalf("%d live weak records, weakN says %d", weak, s.weakN)
	}
}

// holds reports whether rec is pending: in the heap, or live on the lane.
func holds(s *Sim, rec *event) bool {
	if rec.idx >= 0 {
		return rec.idx < len(s.events) && s.events[rec.idx] == rec
	}
	return rec.idx == laneSlot && slices.Contains(s.lane[s.laneHead:], rec)
}

// key is an event's place in the firing order.
type key struct {
	t   Time
	seq uint64
}

func keyCmp(a, b key) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// TestIndexedHeapProperty interleaves every way a record enters or leaves
// the heap or the lane — At, AtWeak, Spawn, Sleep, WaitTimeout, Signal,
// pops in Run, and cancels of live, fired, recycled and zero handles — and
// checks both after every step. The events that fire must be, in order, exactly
// the scheduled events that were not cancelled, sorted by (t, seq): a
// cancelled record never fired and never moved the clock, so taking it out
// early reorders nothing.
func TestIndexedHeapProperty(t *testing.T) {
	const steps = 12000
	rng := rand.New(rand.NewSource(26))
	s := New(1)
	defer s.Close()
	c := NewCond(s)

	var all, fired []key
	pending := map[key]bool{} // scheduled, neither fired nor cancelled
	cancelled := map[key]bool{}
	// next predicts the key of the record the kernel is about to schedule
	// d from now.
	next := func(d Duration) key {
		k := key{s.Now().Add(d), s.seq}
		all = append(all, k)
		pending[k] = true
		return k
	}
	fire := func(k key) {
		if !pending[k] || s.Now() != k.t {
			t.Fatalf("%v fired at %d, pending %v", k, s.Now(), pending[k])
		}
		delete(pending, k)
		fired = append(fired, k)
	}
	drop := func(k key) {
		delete(pending, k)
		cancelled[k] = true
	}
	deadline := map[*Proc]key{} // a WaitTimeout waiter's deadline
	woken := map[*Proc]key{}    // a signalled waiter's wake-up

	type handle struct {
		ev Event
		k  key
	}
	var handles []handle
	var live, stale, recycled, zero int

	// An ordinary event past everything else keeps every weak event alive.
	end := next(1 << 40)
	s.At(1<<40, func() { fire(end) })

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 33:
			d := Duration(rng.Intn(50))
			k := next(d)
			cb := func() { fire(k) }
			var ev Event
			if r < 25 {
				ev = s.At(d, cb)
			} else {
				ev = s.AtWeak(d, cb)
			}
			handles = append(handles, handle{ev, k})
		case r < 43:
			d := Duration(rng.Intn(50))
			k := next(0)
			s.Spawn("sleeper", func(p *Proc) {
				fire(k)
				wake := next(d)
				p.Sleep(d)
				fire(wake)
			})
		case r < 53:
			d := Duration(1 + rng.Intn(80))
			k := next(0)
			s.Spawn("waiter", func(p *Proc) {
				fire(k)
				deadline[p] = next(d)
				if c.WaitTimeout(p, d) {
					fire(woken[p])
				} else {
					fire(deadline[p])
				}
				delete(deadline, p)
				delete(woken, p)
			})
		case r < 63:
			if w := c.head; w != nil {
				drop(deadline[w.p])
				woken[w.p] = next(0)
				c.Signal()
			}
		case r < 65:
			var z Event
			before := s.Pending()
			z.Cancel()
			if s.Pending() != before {
				t.Fatal("cancelling the zero handle moved the heap")
			}
			zero++
		case r < 83:
			if len(handles) == 0 {
				continue
			}
			// Mostly recent handles, whose events may still be pending.
			h := &handles[len(handles)-1-rng.Intn(min(len(handles), 24))]
			before := s.Pending()
			want := before
			switch rec := h.ev.e; {
			case pending[h.k]:
				drop(h.k)
				want--
				live++
			case holds(s, rec):
				recycled++ // the record is pending again, for someone else
			default:
				stale++
			}
			h.ev.Cancel()
			if got := s.Pending(); got != want {
				t.Fatalf("step %d: Pending %d after a cancel, want %d", step, got, want)
			}
		default:
			s.Run(s.Now() + Time(1+rng.Intn(30)))
		}
		checkHeap(t, s)
		if s.Pending() != len(pending) {
			t.Fatalf("step %d: Pending %d, want %d", step, s.Pending(), len(pending))
		}
	}
	s.Run(0)

	if len(pending) != 0 || s.Pending() != 0 {
		t.Fatalf("%d events never fired (kernel: %d pending)", len(pending), s.Pending())
	}
	var want []key
	for _, k := range all {
		if !cancelled[k] {
			want = append(want, k)
		}
	}
	slices.SortFunc(want, keyCmp)
	if !slices.Equal(fired, want) {
		t.Fatal("events did not fire in (t, seq) order")
	}
	if s.seq != uint64(len(all)) || s.fired != uint64(len(fired)) || s.cancelled != uint64(len(cancelled)) {
		t.Fatalf("scheduled %d (kernel %d), fired %d (kernel %d), cancelled %d (kernel %d)",
			len(all), s.seq, len(fired), s.fired, len(cancelled), s.cancelled)
	}
	t.Logf("%d events: %d fired, %d cancelled; cancels of live %d, stale %d, recycled %d, zero %d handles",
		len(all), len(fired), len(cancelled), live, stale, recycled, zero)
	if live == 0 || stale == 0 || recycled == 0 || zero == 0 {
		t.Fatal("a kind of cancel was never exercised")
	}
}

// TestCancelledDeadlinesLeaveHeap is the client's retransmission timer at
// scale: 2,000 processes wait with a 1.1 s deadline and are signalled after
// 1 ms. Each deadline leaves the heap the moment its waiter is signalled,
// so what is pending is what is live. The run itself is the one the kernel
// made when cancelled deadlines stayed in the heap until their time came
// (3,200 records at 3 ms, not 1,200): the event count, end clock and
// dispatch trace below were taken from that kernel.
func TestCancelledDeadlinesLeaveHeap(t *testing.T) {
	const n = 2000
	s := New(1)
	defer s.Close()
	var trace []string
	s.Trace = func(l string) { trace = append(trace, l) }
	c := NewCond(s)
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("w%d", i%10), func(p *Proc) {
			if !c.WaitTimeout(p, 1100*Millisecond) {
				t.Error("a waiter timed out")
			}
			p.Sleep(Duration(1+i%5) * Millisecond)
		})
	}
	s.At(Millisecond, func() {
		if s.Pending() != n {
			t.Errorf("Pending %d before the signals, want %d deadlines", s.Pending(), n)
		}
		for c.Signal() {
			// One deadline out, one wake-up in.
			if s.Pending() != n {
				t.Fatalf("Pending %d after a signal, want %d", s.Pending(), n)
			}
		}
	})
	s.Run(Time(3 * Millisecond))
	if want := n * 3 / 5; s.Pending() != want {
		t.Errorf("Pending %d at 3 ms, want the %d processes still asleep", s.Pending(), want)
	}
	end := s.Run(0)
	if !s.Idle() {
		t.Errorf("%d events left", s.Pending())
	}
	sum := sha256.Sum256([]byte(strings.Join(trace, "\n")))
	got := fmt.Sprintf("fired=%d end=%d dispatches=%d trace=%x", s.EventsFired(), end, len(trace), sum[:8])
	const want = "fired=6001 end=6000 dispatches=6000 trace=1e57451779f2c604"
	if got != want {
		t.Errorf("run moved:\n got %s\nwant %s", got, want)
	}
}

// A cancel after Close finds no heap or lane to take the record out of:
// it is inert, whether made by the caller or by a cleanup that Close
// unwinds.
func TestCancelAfterCloseIsInert(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	ev := s.At(Second, func() { t.Error("event fired after Close") })
	s.Spawn("waiter", func(p *Proc) { c.WaitTimeout(p, Second) })
	s.Spawn("signaller", func(p *Proc) {
		defer c.Signal() // cancels the waiter's deadline, during Close
		p.Sleep(Second)
	})
	s.Run(Time(Millisecond))
	now := s.At(0, func() { t.Error("lane event fired after Close") })
	s.Close()
	ev.Cancel()
	now.Cancel()
	if !ev.Cancelled() || !now.Cancelled() || s.Pending() != 0 {
		t.Errorf("Cancelled=%v/%v Pending=%d after Close", ev.Cancelled(), now.Cancelled(), s.Pending())
	}
}

// Kill takes a WaitTimeout waiter's deadline out of the heap at once. The
// deadline's handle then stays inert while its record, recycled, carries
// the kill wake-up on the lane and later another waiter's deadline.
func TestKillWaitTimeoutLeavesHeap(t *testing.T) {
	s := New(1)
	defer s.Close()
	c := NewCond(s)
	victim := s.Spawn("victim", func(p *Proc) {
		c.WaitTimeout(p, 100)
		t.Error("killed waiter resumed")
	})
	s.Run(10)
	if s.Pending() != 1 {
		t.Fatalf("Pending %d with one waiter parked, want its deadline", s.Pending())
	}
	stale := victim.waiting.timeout
	s.Kill(victim)
	if s.Pending() != 1 || len(s.events) != 0 || s.lane[s.laneHead] != stale.e || stale.e.proc != victim {
		t.Fatalf("Pending %d after Kill, want only the kill wake-up", s.Pending())
	}
	s.Run(20)
	timedOut := false
	next := s.Spawn("next", func(p *Proc) { timedOut = !c.WaitTimeout(p, 100) })
	s.Run(30)
	if s.events[0] != stale.e {
		t.Fatal("the next deadline did not reuse the victim's record")
	}
	stale.Cancel()
	if end := s.Run(0); end != 120 || !timedOut || !next.Done() {
		t.Errorf("end=%d timedOut=%v done=%v: the stale handle reached the next deadline", end, timedOut, next.Done())
	}
}

// TestEventLedgerAuditFires: an honest run with a cancel and a dropped weak
// event balances; a record that leaves the heap uncounted — the shape of a
// lost wake-up — makes Run panic with the ledger's numbers.
func TestEventLedgerAuditFires(t *testing.T) {
	s := New(1)
	defer s.Close()
	s.At(5, func() {})
	ev := s.At(7, func() {})
	ev.Cancel()
	s.AtWeak(20, func() { t.Error("weak event fired at quiesce") })
	s.Run(0)
	if s.seq != 3 || s.fired != 1 || s.cancelled != 1 || s.dropped != 1 {
		t.Fatalf("scheduled %d, fired %d, cancelled %d, dropped %d", s.seq, s.fired, s.cancelled, s.dropped)
	}

	s.At(5, func() {})
	lost := s.At(6, func() {})
	s.heapRemove(lost.e.idx)
	msg := mustPanic(t, func() { s.Run(0) })
	if want := "sim: event ledger does not balance: scheduled 5 != fired 2 + cancelled 1 + dropped 1 + pending 0"; msg != want {
		t.Errorf("panic %q, want %q", msg, want)
	}
}
