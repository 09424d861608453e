package sim

import "testing"

// TestWeakFiresWhileOrdinaryWorkRemains pins the live half of the weak
// contract: a weak tick chain fires at every period covered by ordinary
// work, and the final drop does not advance the clock.
func TestWeakFiresWhileOrdinaryWorkRemains(t *testing.T) {
	s := New(1)
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		s.AtWeak(30*Millisecond, tick)
	}
	s.AtWeak(30*Millisecond, tick)
	s.At(100*Millisecond, func() {}) // ordinary work quiesces at t=100ms
	end := s.Run(0)
	if end != Time(100*Millisecond) {
		t.Fatalf("run ended at %v, want 100ms: weak tick extended quiesce", end)
	}
	want := []Time{Time(30 * Millisecond), Time(60 * Millisecond), Time(90 * Millisecond)}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i, at := range want {
		if ticks[i] != at {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], at)
		}
	}
}

// TestWeakAloneNeverFires pins the idle half: with no ordinary work at
// all, a weak event is dropped silently and the clock stays put.
func TestWeakAloneNeverFires(t *testing.T) {
	s := New(1)
	fired := false
	s.AtWeak(10*Millisecond, func() { fired = true })
	if end := s.Run(0); end != 0 {
		t.Fatalf("run ended at %v, want 0", end)
	}
	if fired {
		t.Fatal("weak event fired with no ordinary work pending")
	}
}

// TestWeakIgnoresCancelledCorpses is the case that motivated weak events:
// cancelled records (stale retransmission deadlines) must not count as
// live work, or a sampler would keep re-arming through dead air.
func TestWeakIgnoresCancelledCorpses(t *testing.T) {
	s := New(1)
	corpse := s.At(1*Second, func() { t.Fatal("cancelled event fired") })
	corpse.Cancel()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		s.AtWeak(10*Millisecond, tick)
	}
	s.AtWeak(10*Millisecond, tick)
	s.At(25*Millisecond, func() {})
	if end := s.Run(0); end != Time(25*Millisecond) {
		t.Fatalf("run ended at %v, want 25ms: corpse kept the weak chain alive", end)
	}
	if fired != 2 {
		t.Fatalf("weak tick fired %d times, want 2 (at 10ms and 20ms)", fired)
	}
}

// TestWeakCancellable: a cancelled weak event leaves like any other.
func TestWeakCancellable(t *testing.T) {
	s := New(1)
	ev := s.AtWeak(10*Millisecond, func() { t.Fatal("cancelled weak event fired") })
	ev.Cancel()
	s.At(50*Millisecond, func() {})
	if end := s.Run(0); end != Time(50*Millisecond) {
		t.Fatalf("run ended at %v, want 50ms", end)
	}
}
