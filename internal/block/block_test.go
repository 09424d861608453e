package block

import "testing"

// TestPoolRecycle: release of the last reference returns the buffer to its
// origin pool; the next Get reuses it without allocating.
func TestPoolRecycle(t *testing.T) {
	p := NewPool()
	base := Live()
	b := p.Get()
	if Live() != base+1 {
		t.Fatalf("Live = %d, want %d", Live(), base+1)
	}
	b.Data()[0] = 0xAB
	b.Release()
	if Live() != base {
		t.Fatalf("Live after release = %d, want %d", Live(), base)
	}
	if p.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d, want 1", p.FreeLen())
	}
	b2 := p.Get()
	if b2 != b {
		t.Fatal("pool did not recycle the released buffer")
	}
	b2.Release()
}

// TestCrossPoolRelease: a buffer released by a layer holding a different
// pool still returns to its origin pool.
func TestCrossPoolRelease(t *testing.T) {
	origin, other := NewPool(), NewPool()
	b := origin.Get()
	_ = other // the releasing layer's own pool is irrelevant
	b.Release()
	if origin.FreeLen() != 1 || other.FreeLen() != 0 {
		t.Fatalf("buffer landed in the wrong pool: origin=%d other=%d",
			origin.FreeLen(), other.FreeLen())
	}
}

// TestRefCounting: Ref/Release pairs keep the buffer live until the last
// reference; Unique tracks shared state for the copy-on-write discipline.
func TestRefCounting(t *testing.T) {
	p := NewPool()
	b := p.Get()
	if !b.Unique() {
		t.Fatal("fresh buffer not unique")
	}
	b.Ref()
	if b.Unique() {
		t.Fatal("shared buffer reported unique")
	}
	b.Release()
	if !b.Unique() || p.FreeLen() != 0 {
		t.Fatal("buffer freed while a reference remained")
	}
	b.Release()
	if p.FreeLen() != 1 {
		t.Fatal("buffer not freed on last release")
	}
}

// TestDoubleReleasePanics: refcount underflow is always a panic, Debug or
// not — a double release means two layers think they own the same buffer.
func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

// TestGetZero: a zeroed buffer really is zero even after a dirty tenant.
func TestGetZero(t *testing.T) {
	p := NewPool()
	b := p.Get()
	for i := range b.Data() {
		b.Data()[i] = 0xFF
	}
	b.Release()
	z := p.GetZero()
	for i, v := range z.Data() {
		if v != 0 {
			t.Fatalf("GetZero left byte %d = %#x", i, v)
		}
	}
	z.Release()
}

// TestCopyAccounting: CountCopy feeds the global copy counter the budget
// guard reads.
func TestCopyAccounting(t *testing.T) {
	before := Copies()
	src := make([]byte, 100)
	dst := make([]byte, 100)
	CountCopy(copy(dst, src))
	if Copies()-before != 100 {
		t.Fatalf("Copies delta = %d, want 100", Copies()-before)
	}
}

// TestSteadyStateZeroAlloc: a warmed pool's Get/Release cycle allocates
// nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p := NewPool()
	for i := 0; i < 8; i++ {
		p.Get().Release()
	}
	n := testing.AllocsPerRun(100, func() {
		bufs := [8]*Buf{}
		for i := range bufs {
			bufs[i] = p.Get()
		}
		for _, b := range bufs {
			b.Release()
		}
	})
	if n > 0 {
		t.Fatalf("Get/Release allocated %.1f objects per run, want 0", n)
	}
}

// TestArenaHandsBuffersOn: the bytes ledger A retires are what ledger B's
// first Get returns, under a new header, and B's counters start at zero.
func TestArenaHandsBuffersOn(t *testing.T) {
	ar := NewArena()
	a := ar.NewAccounting()
	pa := a.NewPool()
	held, freed := pa.Get(), pa.Get()
	held.Data()[0], freed.Data()[0] = 0x11, 0x22
	freed.Release() // parked in pa's free list: retired all the same
	if ar.Fresh() != 2 {
		t.Fatalf("Fresh = %d, want 2", ar.Fresh())
	}
	a.CountCopy(7)
	mem := held.Data()
	a.Retire()

	b := ar.NewAccounting()
	if b.Live() != 0 || b.TotalRefs() != 0 || b.Copies() != 0 {
		t.Fatalf("ledger B born with live=%d refs=%d copies=%d", b.Live(), b.TotalRefs(), b.Copies())
	}
	pb := b.NewPool()
	b1, b2 := pb.Get(), pb.Get()
	if b1 == held || b1 == freed || b2 == held || b2 == freed {
		t.Fatal("a retired header came back")
	}
	if &b1.Data()[0] != &mem[0] && &b2.Data()[0] != &mem[0] {
		t.Fatal("ledger B did not get ledger A's memory")
	}
	if got := b1.Data()[0] + b2.Data()[0]; got != 0x33 {
		t.Fatalf("recycled bytes read %#x, want A's 0x11 and 0x22", got)
	}
	if ar.Fresh() != 2 || b.Live() != 2 || b.TotalRefs() != 2 {
		t.Fatalf("after two recycled Gets: fresh=%d live=%d refs=%d", ar.Fresh(), b.Live(), b.TotalRefs())
	}
	pb.Get() // the arena is empty again
	if ar.Fresh() != 3 {
		t.Fatalf("Fresh = %d, want 3", ar.Fresh())
	}
}

// TestRetirePoisonsHeaders: a header held across Retire cannot reach the
// buffer's next tenant — no bytes, Ref and Release panic — and neither
// can its pool.
func TestRetirePoisonsHeaders(t *testing.T) {
	ar := NewArena()
	a := ar.NewAccounting()
	a.Debug = true
	p := a.NewPool()
	held, freed := p.Get(), p.Get()
	freed.Release()
	a.Retire()

	next := ar.NewAccounting().NewPool().Get()
	for _, v := range next.Data() {
		if v != 0xA5 {
			t.Fatalf("Debug retire left byte %#x, want the 0xA5 scribble", v)
		}
	}
	if held.Data() != nil || freed.Data() != nil {
		t.Fatal("a retired header still has bytes")
	}
	for name, f := range map[string]func(){
		"Ref":             func() { held.Ref() },
		"Release":         func() { held.Release() },
		"Release of free": func() { freed.Release() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a retired header did not panic", name)
				}
			}()
			f()
		}()
	}
	// The pool forgot the poisoned header it had parked; the ledger is a
	// plain one now.
	if p.FreeLen() != 0 {
		t.Fatalf("FreeLen after retire = %d, want 0", p.FreeLen())
	}
	if b := p.Get(); b == freed || b.Data() == nil || &b.Data()[0] == &next.Data()[0] {
		t.Fatal("Get after retire returned a retired header or the next tenant's memory")
	}
}

// TestRetireTwiceAndWithoutArena: a second Retire gives nothing twice, and
// a plain or global ledger never touches an arena.
func TestRetireTwiceAndWithoutArena(t *testing.T) {
	ar := NewArena()
	a := ar.NewAccounting()
	a.NewPool().Get()
	a.Retire()
	a.Retire()
	if len(ar.bufs.free) != 1 {
		t.Fatalf("arena holds %d buffers after a double retire, want 1", len(ar.bufs.free))
	}

	for name, l := range map[string]*Accounting{"global": Global(), "plain": NewAccounting()} {
		b := l.NewPool().Get()
		l.Retire()
		if l.issued != nil || b.Data() == nil || b.Refs() != 1 {
			t.Fatalf("%s ledger tracked or retired a buffer", name)
		}
		b.Release()
	}
	if len(ar.bufs.free) != 1 || ar.Fresh() != 1 {
		t.Fatalf("arena moved: %d free, %d fresh", len(ar.bufs.free), ar.Fresh())
	}
}

// TestArenaKeepsTheSmallestSimulation: the arena never holds more than the
// smallest ledger so far issued, whatever was idle in it or retired to it,
// so nothing sits in it through a simulation that is like the ones before.
func TestArenaKeepsTheSmallestSimulation(t *testing.T) {
	ar := NewArena()
	issue := func(n int) {
		a := ar.NewAccounting()
		p := a.NewPool()
		for i := 0; i < n; i++ {
			p.Get()
		}
		a.Retire()
	}
	for _, step := range []struct{ issue, held int }{
		{5, 5}, // the first simulation: all of it
		{8, 5}, // a larger one leaves what the smaller needed
		{2, 2}, // a smaller one: its 2, not the 3 it left idle
		{5, 2},
	} {
		issue(step.issue)
		if len(ar.bufs.free) != step.held {
			t.Fatalf("after a simulation of %d buffers the arena holds %d, want %d", step.issue, len(ar.bufs.free), step.held)
		}
	}
	if ar.Fresh() != 5+3+0+3 {
		t.Fatalf("Fresh = %d, want 11", ar.Fresh())
	}
}

// TestLendWithoutArenaMakes: a ledger with no arena — the global one, a
// plain one, none at all — gets a plain zeroed make, and tracks nothing.
func TestLendWithoutArenaMakes(t *testing.T) {
	for name, a := range map[string]*Accounting{"global": Global(), "plain": NewAccounting(), "nil": nil} {
		tbl := Lend[uint64](a, 5)
		if len(tbl) != 5 || cap(tbl) != 5 || tbl[0]|tbl[4] != 0 {
			t.Fatalf("%s ledger: Lend gave len %d cap %d %v", name, len(tbl), cap(tbl), tbl)
		}
		if a != nil && a.lent != nil {
			t.Fatalf("%s ledger tracked a lent table", name)
		}
	}
}

// TestLentTablesComeBackZeroed: the tables ledger A is lent are what ledger
// B is lent for the same shape, zeroed again: a table that holds pointers
// is cleared as Retire takes it, so the store pins nothing of A, and a
// byte table is left as it is, or under Debug scribbled, and cleared as it
// is lent.
func TestLentTablesComeBackZeroed(t *testing.T) {
	for _, debug := range []bool{false, true} {
		ar := NewArena()
		a := ar.NewAccounting()
		a.Debug = debug
		words, ptrs, bytes := Lend[uint32](a, 8), Lend[*Buf](a, 3), Lend[byte](a, 16)
		words[7], ptrs[2], bytes[15] = 9, new(Buf), 0x11
		if ar.Fresh() != 3 {
			t.Fatalf("Fresh = %d, want 3", ar.Fresh())
		}
		a.Retire()
		if words[7] != 0 || ptrs[2] != nil {
			t.Fatal("Retire left a table's contents in the store")
		}
		last, first := byte(0x11), byte(0)
		if debug {
			last, first = 0xA5, 0xA5
		}
		if bytes[15] != last || bytes[0] != first {
			t.Fatalf("debug=%v: a retired byte table reads %#x…%#x", debug, bytes[0], bytes[15])
		}

		b := ar.NewAccounting()
		w2, p2, b2 := Lend[uint32](b, 8), Lend[*Buf](b, 3), Lend[byte](b, 16)
		if &w2[0] != &words[0] || &p2[0] != &ptrs[0] || &b2[0] != &bytes[0] {
			t.Fatal("ledger B was not lent ledger A's tables")
		}
		if len(w2) != 8 || cap(w2) != 8 || len(b2) != 16 || cap(b2) != 16 || w2[7] != 0 || b2[15] != 0 || b2[0] != 0 {
			t.Fatal("a recycled table came back with the wrong length or not zeroed")
		}
		if ar.Fresh() != 3 {
			t.Fatalf("Fresh = %d after recycled lends, want 3", ar.Fresh())
		}
		// A length the store has no table of is a new shape.
		if Lend[uint32](b, 9); ar.Fresh() != 4 {
			t.Fatalf("Fresh = %d, want 4", ar.Fresh())
		}
	}
}

// TestStoreHoldsOneSimulation: after Retire the store holds no more than
// the retiring ledger took, shape by shape: a shape it did not take leaves
// the store, and one it did is kept up to the fewest any ledger took.
func TestStoreHoldsOneSimulation(t *testing.T) {
	ar := NewArena()
	run := func(lends map[int]int) {
		a := ar.NewAccounting()
		for n, k := range lends {
			for i := 0; i < k; i++ {
				Lend[int64](a, n)
			}
		}
		a.Retire()
	}
	held := func(n int) int {
		if st := ar.store[shape{elemOf[int64]{}, n}]; st != nil {
			return len(st.free)
		}
		return 0
	}
	run(map[int]int{4: 3, 6: 1})
	if held(4) != 3 || held(6) != 1 {
		t.Fatalf("after the first simulation: %d and %d held, want 3 and 1", held(4), held(6))
	}
	run(map[int]int{4: 2})
	if held(4) != 2 || held(6) != 0 {
		t.Fatalf("after the second: %d and %d held, want 2 and 0", held(4), held(6))
	}
	run(map[int]int{4: 5, 6: 1})
	if held(4) != 2 || held(6) != 1 {
		t.Fatalf("after the third: %d and %d held, want 2 and 1", held(4), held(6))
	}
	if ar.Fresh() != 3+1+0+3+1 {
		t.Fatalf("Fresh = %d, want 8", ar.Fresh())
	}
}
