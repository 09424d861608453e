package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestLaneKeepsHeapOrder runs a random program in which half of all
// records are scheduled with zero delay — At, AtWeak, Spawn, Sleep — with
// cancels of pending, fired and recycled handles and kills of sleepers
// in between, and checks that what fires is, in order, what a single
// queue on (t, seq) would fire: every record not cancelled, sorted. A
// killed sleeper unwinds at its first pending wake-up, the kill's own or
// a sleep deadline at the same instant, and its other one fires silently.
func TestLaneKeepsHeapOrder(t *testing.T) {
	const steps = 20000
	rng := rand.New(rand.NewSource(36))
	s := New(1)
	defer s.Close()

	var all, fired []key
	pending := map[key]bool{}
	silent := map[key]bool{} // cancelled, or a kill's unobserved wake-up
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
	quiet := func(k key) {
		delete(pending, k)
		silent[k] = true
	}
	delay := func() Duration {
		if rng.Intn(2) == 0 {
			return 0
		}
		return Duration(1 + rng.Intn(40))
	}

	type sleeper struct {
		p       *Proc
		started bool
		start   key // the spawn's dispatch
		wake    key // the pending Sleep's wake-up
		unwind  key // where a kill unwinds it
	}
	var sleepers []*sleeper
	type handle struct {
		ev Event
		k  key
	}
	var handles []handle
	var zero, laneCancels int
	var kills [3]int // before the body ran, at a same-instant wake-up, at the kill's
	// killOne kills one of the newest sleepers still running. It runs as
	// an event, so the victim's wake-up can be pending at the same instant.
	killOne := func() {
		if len(sleepers) == 0 {
			return
		}
		sl := sleepers[len(sleepers)-1-rng.Intn(min(len(sleepers), 8))]
		if sl.p.Done() || sl.p.Killed() {
			return
		}
		kill := next(0)
		switch {
		case !sl.started:
			quiet(sl.start) // dispatched, and unwound before the body
			quiet(kill)
			kills[0]++
		case sl.wake.t == s.Now():
			sl.unwind = sl.wake // pending before the kill's wake-up
			quiet(kill)
			kills[1]++
		default:
			sl.unwind = kill
			quiet(sl.wake)
			kills[2]++
		}
		s.Kill(sl.p)
	}

	// An ordinary event past everything else keeps every weak event alive.
	end := next(1 << 40)
	s.At(1<<40, func() { fire(end) })

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 35:
			d := delay()
			if d == 0 {
				zero++
			}
			k := next(d)
			cb := func() { fire(k) }
			var ev Event
			if r < 25 {
				ev = s.At(d, cb)
			} else {
				ev = s.AtWeak(d, cb)
			}
			handles = append(handles, handle{ev, k})
		case r < 50:
			sl := &sleeper{start: next(0)}
			sl.p = s.Spawn("sleeper", func(p *Proc) {
				defer func() {
					if p.Killed() {
						fire(sl.unwind)
					}
				}()
				sl.started = true
				fire(sl.start)
				for i := 0; i < 5; i++ {
					d := delay()
					sl.wake = next(d)
					p.Sleep(d)
					fire(sl.wake)
				}
			})
			sleepers = append(sleepers, sl)
		case r < 60:
			d := delay()
			k := next(d)
			s.At(d, func() {
				fire(k)
				killOne()
			})
		case r < 80:
			if len(handles) == 0 {
				continue
			}
			h := &handles[len(handles)-1-rng.Intn(min(len(handles), 24))]
			if pending[h.k] {
				if h.ev.e.idx == laneSlot {
					laneCancels++
				}
				quiet(h.k)
			}
			h.ev.Cancel()
		default:
			s.Run(s.Now() + Time(1+rng.Intn(20)))
		}
		checkHeap(t, s)
	}
	s.Run(0)

	if len(pending) != 0 || s.Pending() != 0 {
		t.Fatalf("%d events never fired (kernel: %d pending)", len(pending), s.Pending())
	}
	var want []key
	for _, k := range all {
		if !silent[k] {
			want = append(want, k)
		}
	}
	slices.SortFunc(want, keyCmp)
	if !slices.Equal(fired, want) {
		for i := range min(len(fired), len(want)) {
			if fired[i] != want[i] {
				t.Fatalf("firing %d is %v, the (t, seq) order has %v", i, fired[i], want[i])
			}
		}
		t.Fatalf("%d firings, the (t, seq) order has %d", len(fired), len(want))
	}
	t.Logf("%d records: %d fired; %d zero-delay At, %d lane cancels, kills %v", len(all), len(fired), zero, laneCancels, kills)
	if zero == 0 || laneCancels == 0 || slices.Contains(kills[:], 0) {
		t.Fatal("the lane was not exercised")
	}
}

// Close drops the lane with the heap: live and cancelled lane records,
// heap records and never-dispatched spawns all stop being pending.
func TestCloseLeavesNothingPending(t *testing.T) {
	s := New(1)
	s.At(0, func() {})
	dead := s.At(0, func() {})
	dead.Cancel()
	s.AtWeak(0, func() {})
	s.At(5, func() {})
	s.Spawn("never", func(p *Proc) {})
	if s.Pending() != 4 {
		t.Fatalf("Pending %d before Close, want 4", s.Pending())
	}
	s.Close()
	if s.Pending() != 0 || !s.Idle() {
		t.Fatalf("Pending %d after Close", s.Pending())
	}
}

// BenchmarkSchedule times one schedule-and-fire of a self-rescheduling
// callback above depth background records parked far in the future: with
// a delay, through the heap; with zero delay, through the lane.
func BenchmarkSchedule(b *testing.B) {
	for _, depth := range []int{1, 1000, 10000} {
		for _, d := range []Duration{1, 0} {
			b.Run(fmt.Sprintf("depth=%d/delay=%d", depth, d), func(b *testing.B) {
				s := New(1)
				defer s.Close()
				for i := 0; i < depth; i++ {
					s.At(Duration(1<<40+i), func() {})
				}
				n := 0
				var fn func()
				fn = func() {
					if n++; n < b.N {
						s.At(d, fn)
					}
				}
				s.At(d, fn)
				b.ReportAllocs()
				b.ResetTimer()
				s.Run(1 << 39)
			})
		}
	}
}
