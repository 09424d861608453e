package block

import (
	"math"
	"unsafe"
)

// Arena carries memory from one finished simulation to the next on the
// same goroutine, so a sweep's later cells run on its first cell's memory:
// the bytes of its 8K buffers, and every table Lend handed out. It holds
// bare memory, never a Buf header or a record: nothing a dead simulation
// still points at can reach the memory's next tenant.
//
// An arena has one free store, a stack of spare tables per shape (element
// type and length); a buffer's bytes are one more shape. It serves one
// simulation at a time: a ledger takes from the store as it runs, and its
// Retire gives back everything it took.
type Arena struct {
	store map[shape]*stack
	bufs  *stack // the store's Size-byte stack, the buffers' bytes
	fresh uint64
}

// shape is what a table is lent by: its element type and its length.
type shape struct {
	elem elem
	n    int
}

// elem is an element type as a comparable value (elemOf[T]{} for a []T
// table), able to zero a table of its type.
type elem interface {
	zero(p unsafe.Pointer, n int)
}

type elemOf[T any] struct{}

func (elemOf[T]) zero(p unsafe.Pointer, n int) { clear(unsafe.Slice((*T)(p), n)) }

// stack is the store's spare tables of one shape.
type stack struct {
	shape
	// bytes marks a byte table: it pins nothing, so Retire leaves its
	// bytes (scribbled under Debug) and Lend zeroes it instead.
	bytes bool
	free  []unsafe.Pointer // each table's first element
	keep  int              // most tables to hold: the fewest any ledger took
	took  int              // tables the live ledger took
}

// lent is one table a ledger took, as Retire hands it back.
type lent struct {
	st *stack
	p  unsafe.Pointer
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	ar := &Arena{store: make(map[shape]*stack)}
	ar.bufs = stackOf[byte](ar, Size)
	return ar
}

// NewAccounting returns an empty ledger whose pools and Lend calls draw on
// the arena.
func (ar *Arena) NewAccounting() *Accounting { return &Accounting{arena: ar} }

// Fresh counts the tables, buffers' bytes included, that were made
// because the store had none of their shape to give.
func (ar *Arena) Fresh() uint64 { return ar.fresh }

// stackOf returns the store's stack of n-element []T tables.
func stackOf[T any](ar *Arena, n int) *stack {
	s := shape{elemOf[T]{}, n}
	st := ar.store[s]
	if st == nil {
		_, bytes := any((*T)(nil)).(*byte)
		st = &stack{shape: s, bytes: bytes, keep: math.MaxInt}
		ar.store[s] = st
	}
	return st
}

// take pops a spare table off st, or reports there is none.
func (ar *Arena) take(st *stack) (unsafe.Pointer, bool) {
	st.took++
	n := len(st.free)
	if n == 0 {
		ar.fresh++
		return nil, false
	}
	p := st.free[n-1]
	st.free[n-1] = nil
	st.free = st.free[:n-1]
	return p, true
}

// Lend returns a zeroed table of n elements for the ledger's simulation.
// On a ledger born from an arena it is a spare table of the last
// simulation when the arena has one, and Retire takes it back: nothing may
// keep it, or alias it, past Retire. Any other ledger (Global,
// NewAccounting, nil) gets a plain make, which the GC owns.
func Lend[T any](a *Accounting, n int) []T {
	if a == nil || a.arena == nil {
		return make([]T, n)
	}
	st := stackOf[T](a.arena, n)
	var t []T
	if p, ok := a.arena.take(st); ok {
		t = unsafe.Slice((*T)(p), n)
		if st.bytes {
			clear(t)
		}
	} else {
		t = make([]T, n)
	}
	a.lent = append(a.lent, lent{st, unsafe.Pointer(unsafe.SliceData(t))})
	return t
}

// issue is Get once the pool's own free list is empty: the store's bytes
// under a new header, or new bytes.
func (a *Accounting) issue(p *Pool) *Buf {
	b := &Buf{pool: p, refs: 1}
	if ar := a.arena; ar != nil {
		a.issued = append(a.issued, b)
		if m, ok := ar.take(ar.bufs); ok {
			b.data = unsafe.Slice((*byte)(m), Size)
			return b
		}
	}
	b.data = make([]byte, Size)
	return b
}

// put readies a table for the store and pushes it: zeroed, so that it pins
// nothing of its simulation, or for a byte table, left as it is, or
// scribbled with 0xA5 under Debug.
func (st *stack) put(p unsafe.Pointer, debug bool) {
	switch {
	case !st.bytes:
		st.elem.zero(p, st.n)
	case debug:
		b := unsafe.Slice((*byte)(p), st.n)
		for i := range b {
			b[i] = 0xA5
		}
	}
	st.free = append(st.free, p)
}

// Retire ends the ledger's simulation. Everything it took from the arena
// goes back to the store, whatever still references it: the bytes of every
// buffer it issued, and every table it was lent. Each old buffer header is
// poisoned (Ref and Release panic, Data is nil) and dropped from its pool,
// so a holder that outlived the simulation fails loudly instead of sharing
// memory with the next one. Call it only after Sim.Close, and not for a
// simulation that panicked. A no-op without an arena, and the second time.
//
// The store then holds no more than this simulation took: a shape it did
// not take leaves the store, and one it did is kept up to the fewest
// tables of it any simulation took. An idle table is live heap and lifts
// the GC goal by twice its size, and so the store is empty once a
// simulation is as large as the smallest was.
func (a *Accounting) Retire() {
	ar := a.arena
	if ar == nil {
		return
	}
	debug := a.Debugging()
	for _, b := range a.issued {
		ar.bufs.put(unsafe.Pointer(unsafe.SliceData(b.data)), debug)
		b.data, b.refs, b.pool.free = nil, -1, nil
	}
	for _, t := range a.lent {
		t.st.put(t.p, debug)
	}
	for _, st := range ar.store {
		keep := 0
		if st.took > 0 {
			st.keep = min(st.keep, st.took)
			keep = st.keep
		}
		if len(st.free) > keep {
			clear(st.free[keep:])
			st.free = st.free[:keep]
		}
		st.took = 0
	}
	a.arena, a.issued, a.lent = nil, nil, nil
}
