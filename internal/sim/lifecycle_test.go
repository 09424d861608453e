package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// mustPanic runs fn and returns the text of the panic it must raise.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// Close must unwind a process out of every blocking primitive, run its
// deferred cleanups, and leave no goroutine behind.
func TestCloseUnwindsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	c := NewCond(s)
	q := NewQueue[int](s, 0)
	r := NewResource(s, 1)
	cleaned := map[string]bool{}
	park := func(name string, block func(p *Proc)) *Proc {
		return s.Spawn(name, func(p *Proc) {
			defer func() { cleaned[name] = true }()
			block(p)
			t.Errorf("%s resumed model code", name)
		})
	}
	procs := []*Proc{
		park("sleep", func(p *Proc) { p.Sleep(1000) }),
		park("wait", func(p *Proc) { c.Wait(p) }),
		park("wait-timeout", func(p *Proc) { c.WaitTimeout(p, 1000) }),
		park("get", func(p *Proc) { q.Get(p) }),
		park("holder", func(p *Proc) { r.Use(p, 1000) }),
		park("acquire", func(p *Proc) { r.Acquire(p) }),
	}
	started := false
	late := s.SpawnAfter(500, "never-dispatched", func(p *Proc) { started = true })
	s.Run(10)
	if got := s.NumProcs(); got != len(procs)+1 {
		t.Fatalf("NumProcs=%d before Close, want %d", got, len(procs)+1)
	}
	if r.InUse() != 1 {
		t.Fatalf("InUse=%d before Close, want the holder's slot", r.InUse())
	}

	s.Close()
	s.Close() // idempotent

	for _, p := range procs {
		if !cleaned[p.Name()] {
			t.Errorf("%s: deferred cleanup did not run", p.Name())
		}
		if !p.Done() {
			t.Errorf("%s: not done after Close", p.Name())
		}
	}
	if started || !late.Done() {
		t.Errorf("never-dispatched spawn: started=%v done=%v, want false, true", started, late.Done())
	}
	if r.InUse() != 0 {
		t.Errorf("InUse=%d after Close: Use's deferred Release did not run", r.InUse())
	}
	if s.NumProcs() != 0 {
		t.Errorf("NumProcs=%d after Close", s.NumProcs())
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("NumGoroutine=%d after Close, %d before New", got, before)
	}
}

// A cleanup that blocks again while Close unwinds it is unwound again, not
// parked, and fires no event.
func TestCloseDoesNotRunTheLoop(t *testing.T) {
	s := New(1)
	fired := false
	s.Spawn("stubborn", func(p *Proc) {
		defer func() {
			defer func() { recover() }() // the second unwind stops here
			p.Sleep(1)
			t.Error("cleanup's Sleep returned during Close")
		}()
		p.Sleep(1000)
	})
	s.At(20, func() { fired = true })
	s.Run(10)
	s.Close()
	if fired {
		t.Error("Close fired a pending event")
	}
}

func TestSpawnAndRunAfterClosePanic(t *testing.T) {
	s := New(1)
	s.Spawn("p", func(p *Proc) { p.Sleep(5) })
	s.Run(1)
	s.Close()
	if msg := mustPanic(t, func() { s.Spawn("late", func(*Proc) {}) }); !strings.Contains(msg, "Spawn after Close") {
		t.Errorf("Spawn after Close panicked with %q", msg)
	}
	if msg := mustPanic(t, func() { s.Run(0) }); !strings.Contains(msg, "Run after Close") {
		t.Errorf("Run after Close panicked with %q", msg)
	}
}

// A cleanup that panics with something other than the kill unwind must not
// vanish: Close finishes releasing the sim, then re-raises it.
func TestCloseReraisesCleanupPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	s.Spawn("bystander", func(p *Proc) { p.Sleep(1000) })
	s.Spawn("bad-cleanup", func(p *Proc) {
		defer func() { panic("boom in cleanup") }()
		p.Sleep(1000)
	})
	s.Spawn("bystander2", func(p *Proc) { p.Sleep(1000) })
	s.Run(10)
	msg := mustPanic(t, s.Close)
	if !strings.Contains(msg, "boom in cleanup") || !strings.Contains(msg, `"bad-cleanup"`) {
		t.Errorf("Close panicked with %q", msg)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("NumGoroutine=%d after the re-raise, %d before New", got, before)
	}
	s.Close() // already closed: no second raise
}

// The fuzzer recovers a cell whose Run re-raised a model panic and moves
// on; Close must still release that sim, quietly.
func TestCloseAfterFatalRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	cleaned := false
	s.Spawn("parked", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(1000)
	})
	s.Spawn("buggy", func(p *Proc) {
		p.Sleep(5)
		panic("model bug")
	})
	if msg := mustPanic(t, func() { s.Run(0) }); !strings.Contains(msg, "model bug") {
		t.Fatalf("Run panicked with %q", msg)
	}
	s.Close()
	if !cleaned {
		t.Error("parked process was not unwound")
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("NumGoroutine=%d after Close, %d before New", got, before)
	}
}

// Processes that come and go share one carrier; each still gets a handle of
// its own, and a finished handle stays finished and inert.
func TestCarrierReuse(t *testing.T) {
	s := New(1)
	defer s.Close()
	var handles []*Proc
	for i := 0; i < 50; i++ {
		handles = append(handles, s.Spawn("short", func(p *Proc) { p.Sleep(1) }))
		s.Run(0)
	}
	if n := s.Carriers(); n != 1 {
		t.Fatalf("%d carriers after 50 spawn-and-finish cycles, want 1", n)
	}
	seen := map[*Proc]bool{}
	for _, p := range handles {
		if seen[p] {
			t.Fatal("two spawns returned the same *Proc")
		}
		seen[p] = true
		if !p.Done() {
			t.Fatal("finished handle reports not done")
		}
	}

	old := handles[len(handles)-1]
	finished := false
	cur := s.Spawn("current", func(p *Proc) {
		p.Sleep(10)
		finished = true
	})
	if cur == old || cur.c != s.carriers {
		t.Fatalf("want a new handle on the one carrier: same handle %v, same carrier %v", cur == old, cur.c == s.carriers)
	}
	s.At(5, func() { s.Kill(old) }) // must not reach the carrier's new process
	s.Run(0)
	if !finished || cur.Killed() || old.Killed() || !old.Done() {
		t.Errorf("finished=%v cur.Killed=%v old.Killed=%v old.Done=%v", finished, cur.Killed(), old.Killed(), old.Done())
	}

	// Processes alive at once need a carrier each; the pool then serves
	// the same number again without growing.
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			s.Spawn("burst", func(p *Proc) { p.Sleep(1) })
		}
		s.Run(0)
	}
	if n := s.Carriers(); n != 8 {
		t.Errorf("%d carriers after bursts of 8, want 8", n)
	}
}

// mixedScenario drives every blocking primitive, a kill, spawns from a
// process and a Run in pieces, and returns the dispatch trace.
func mixedScenario() (trace []string, fired uint64, end Time) {
	s := New(7)
	defer s.Close()
	s.Trace = func(l string) { trace = append(trace, l) }
	res := NewResource(s, 1)
	q := NewQueue[int](s, 4)
	c := NewCond(s)
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2)
			q.Put(i)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Get(p)
			res.Use(p, 3)
		}
	})
	s.Spawn("user", func(p *Proc) {
		res.Use(p, 5)
		res.Use(p, 5)
	})
	s.Spawn("waiter", func(p *Proc) {
		c.WaitTimeout(p, 4)
		c.Wait(p)
	})
	s.Spawn("signaller", func(p *Proc) {
		p.Sleep(9)
		c.Signal()
	})
	victim := s.Spawn("victim", func(p *Proc) { p.Sleep(100) })
	s.At(6, func() { s.Kill(victim) })
	s.SpawnAfter(3, "spawner", func(p *Proc) {
		for i := 0; i < 2; i++ {
			s.SpawnChild(p, fmt.Sprintf("child-%d", i), func(q *Proc) { q.Sleep(1) })
			p.Sleep(2)
		}
	})
	s.Run(5)
	s.Run(10)
	end = s.Run(0)
	return trace, s.EventsFired(), end
}

// The order of dispatches, the event count and the final clock of
// mixedScenario as the channel kernel (the commit before the coroutine
// carriers) produced them: the new kernel changes who switches to whom, never
// what runs when.
const (
	pinnedFired = 30
	pinnedEnd   = 100
	pinnedTrace = `t=0 dispatch producer
t=0 dispatch consumer
t=0 dispatch user
t=0 dispatch waiter
t=0 dispatch signaller
t=0 dispatch victim
t=2 dispatch producer
t=2 dispatch consumer
t=3 dispatch spawner
t=3 dispatch child-0
t=4 dispatch waiter
t=4 dispatch producer
t=4 dispatch child-0
t=5 dispatch user
t=5 dispatch spawner
t=5 dispatch consumer
t=5 dispatch child-1
t=6 dispatch producer
t=6 dispatch child-1
t=6 dispatch victim
t=7 dispatch spawner
t=9 dispatch signaller
t=9 dispatch waiter
t=10 dispatch user
t=10 dispatch consumer
t=13 dispatch consumer
t=16 dispatch consumer
t=19 dispatch consumer`
)

func TestDispatchOrderPinned(t *testing.T) {
	trace, fired, end := mixedScenario()
	if fired != pinnedFired || end != pinnedEnd {
		t.Errorf("EventsFired=%d end=%d, want %d, %d", fired, end, pinnedFired, pinnedEnd)
	}
	if got := strings.Join(trace, "\n"); got != pinnedTrace {
		t.Errorf("dispatch trace moved:\n%s\nwant:\n%s", got, pinnedTrace)
	}
}
