// Package block provides the refcounted, pooled payload buffer the data
// path shares across layers: client write staging, netsim datagram bodies,
// the ufs buffer cache, NVRAM dirty entries and the disk platter store all
// hold references to the same fixed-size buffer instead of copying 8K
// payloads at every ownership boundary.
//
// Ownership rules (the per-layer detail lives in DESIGN.md):
//
//   - Get/GetZero return a buffer with one reference, owned by the caller.
//   - A layer that retains a buffer past the call that handed it over must
//     take its own reference with Ref and pair it with Release.
//   - A layer that mutates a buffer must hold the only reference
//     (Unique()); shared buffers are copy-on-write — replace them via a
//     fresh Get plus Copy.
//   - Release of the last reference returns the buffer to its origin pool.
//   - Nobody holds a buffer, or a table Lend gave, across its simulation's
//     end: a ledger born from an Arena gives every buffer's bytes and every
//     lent table (wire slabs, dup-cache tables, block maps) to the next
//     simulation at Retire, which runs after Sim.Close. Nothing a result
//     keeps may alias either.
//
// Accounting (live buffers, total references, payload copies) is kept per
// Accounting handle: each simulation instance owns one, so concurrently
// executing sims never perturb each other's leak audits or copy budgets.
// Pools made with plain NewPool charge the process-global handle, which
// keeps single-sim tests and direct assemblies working unchanged; counters
// are atomic so the -race smoke of the kernel and cluster suites stays
// clean even when a handle is shared.
package block

import "sync/atomic"

// Size is the payload buffer size: one NFS MaxData transfer / one ufs
// block.
const Size = 8192

// Debug enables paranoid lifecycle checking process-wide: a retired
// buffer's bytes are scribbled before the next simulation reuses them.
// Refcount underflow always panics. Per-sim debug rides Accounting.Debug
// instead.
var Debug bool

// Accounting is one simulation's buffer ledger. Every pool charges
// exactly one Accounting, fixed at pool creation; a scenario cell creates
// its own so its leak audit reads its own sim's counters exactly —
// immune to whatever other cells, goroutines or tests do to theirs.
type Accounting struct {
	// live counts buffers currently checked out of any of this ledger's
	// pools (so a leak check does not need to reach every layer's pool).
	live atomic.Int64
	// totalRefs counts outstanding references across all live buffers
	// (Get and Ref increment, Release decrements). Distinct from live:
	// one buffer shared by the ufs cache, the NVRAM dirty map and the
	// platter store is 1 live buffer carrying 3 references.
	totalRefs atomic.Int64
	// copies counts payload bytes memmoved by the data path (CountCopy
	// calls); the copy-budget guard reads it around a write burst.
	copies atomic.Int64
	// Debug enables paranoid lifecycle checking for this ledger's
	// buffers, like the package-level flag but scoped to one sim. Set it
	// before the sim runs; it is read on the data path.
	Debug bool
	// arena, when set, is where this ledger's pools and Lend calls look
	// for memory before they make any; issued is every buffer the pools
	// got that way and lent every table Lend did: what Retire hands back.
	// The global ledger, shared by tests, has none of them.
	arena  *Arena
	issued []*Buf
	lent   []lent
}

// global is the process-wide default ledger: pools made with NewPool (and
// nil Accounting handles passed to constructors) charge it, preserving
// the historical package-level counters.
var global Accounting

// Global returns the process-wide default ledger.
func Global() *Accounting { return &global }

// NewAccounting returns a fresh, empty ledger.
func NewAccounting() *Accounting { return &Accounting{} }

// Or resolves an optional handle: a, or the global ledger when a is nil.
// Constructors that take an optional *Accounting call it once.
func Or(a *Accounting) *Accounting {
	if a == nil {
		return &global
	}
	return a
}

// Live reports how many buffers are currently out of this ledger's pools.
// At quiesce this must equal the number of DISTINCT buffers retained by
// long-lived structures (caches, platter stores, NVRAM dirty maps).
func (a *Accounting) Live() int64 { return a.live.Load() }

// TotalRefs reports the outstanding references across all live buffers.
// At quiesce this must equal the total retained SLOTS across long-lived
// structures — every reference attributable, none leaked by a dead
// datagram or an unwound process.
func (a *Accounting) TotalRefs() int64 { return a.totalRefs.Load() }

// Copies reports cumulative payload bytes copied through CountCopy.
func (a *Accounting) Copies() int64 { return a.copies.Load() }

// CountCopy records n payload bytes memmoved; data-path copy sites call it
// so the copy-count budget is testable. It returns n so it can wrap copy().
func (a *Accounting) CountCopy(n int) int {
	a.copies.Add(int64(n))
	return n
}

// ChargeRefs adds n references held to memory that is refcounted outside
// this package — a wire head — to TotalRefs (n < 0 releases them), so the
// leak audit covers those holders too.
func (a *Accounting) ChargeRefs(n int) { a.totalRefs.Add(int64(n)) }

// Debugging reports whether lifecycle checking is on for this ledger: its
// own Debug flag or the package-wide one.
func (a *Accounting) Debugging() bool { return Debug || a.Debug }

// Live, TotalRefs, Copies and CountCopy are the process-global ledger's
// counters — the historical package API, used by tests and assemblies
// that run one sim at a time.
func Live() int64      { return global.Live() }
func TotalRefs() int64 { return global.TotalRefs() }
func Copies() int64    { return global.Copies() }
func CountCopy(n int) int {
	return global.CountCopy(n)
}

// Buf is one refcounted payload buffer. The zero value is not usable;
// buffers come from a Pool.
type Buf struct {
	pool *Pool
	data []byte
	refs int32
}

// Pool is a free list of buffers. Buffers return to the pool they were
// allocated from regardless of which layer releases the last reference, so
// layers may each own a pool and still exchange buffers freely. Every
// pool charges exactly one Accounting, fixed at creation.
type Pool struct {
	acct *Accounting
	free []*Buf
	gets uint64
}

// NewPool returns an empty pool charging the process-global ledger.
func NewPool() *Pool { return global.NewPool() }

// NewPool returns an empty pool charging this ledger.
func (a *Accounting) NewPool() *Pool { return &Pool{acct: a} }

// Acct returns the ledger this pool charges.
func (p *Pool) Acct() *Accounting { return p.acct }

// Get returns a buffer with one reference. Contents are unspecified (the
// recycled bytes of an earlier tenant); callers that overwrite the whole
// buffer — device reads, full-block copies, pattern fills — use it
// directly, others want GetZero.
func (p *Pool) Get() *Buf {
	p.acct.live.Add(1)
	p.acct.totalRefs.Add(1)
	p.gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		b.refs = 1
		return b
	}
	return p.acct.issue(p)
}

// GetZero is Get with the buffer cleared, for partially-filled fresh
// blocks whose remainder must read back as zeros.
func (p *Pool) GetZero() *Buf {
	b := p.Get()
	clear(b.data)
	return b
}

// Gets reports how many buffers have been taken from this pool.
func (p *Pool) Gets() uint64 { return p.gets }

// FreeLen reports how many buffers are parked in the free list.
func (p *Pool) FreeLen() int { return len(p.free) }

// Data returns the buffer's full Size-byte payload slice.
func (b *Buf) Data() []byte { return b.data }

// Refs reports the current reference count (diagnostics and tests).
func (b *Buf) Refs() int32 { return b.refs }

// Unique reports whether the caller holds the only reference, i.e. the
// buffer may be mutated in place. Shared buffers are copy-on-write.
func (b *Buf) Unique() bool { return b.refs == 1 }

// Ref takes an additional reference and returns b for chaining.
func (b *Buf) Ref() *Buf {
	if b.refs <= 0 {
		panic("block: Ref of released buffer")
	}
	b.refs++
	b.pool.acct.totalRefs.Add(1)
	return b
}

// Release drops one reference; the last one returns the buffer to its
// origin pool.
func (b *Buf) Release() {
	if b.refs <= 0 {
		panic("block: double release")
	}
	b.refs--
	b.pool.acct.totalRefs.Add(-1)
	if b.refs > 0 {
		return
	}
	b.pool.acct.live.Add(-1)
	b.pool.free = append(b.pool.free, b)
}

// Pin is a device-write snapshot: one reference to each buffer of a
// transfer, taken at issue time (the point a DMA engine would capture the
// contents — before the service-time sleep, so a copy-on-write during the
// transfer cannot change what lands). The caller defers Release; a store
// that takes over the references calls Transfer first. Centralizing the
// idiom keeps every Device implementation's kill-unwind path identical:
// an unwound transfer drops its snapshot, a completed one hands it over.
type Pin struct {
	bufs []*Buf
	done bool
}

// TakePin references every buffer in bufs and returns the pin by value
// (no allocation on the device hot path).
func TakePin(bufs []*Buf) Pin {
	for _, b := range bufs {
		b.Ref()
	}
	return Pin{bufs: bufs}
}

// Transfer marks the snapshot's references as handed over to a store;
// the deferred Release becomes a no-op.
func (p *Pin) Transfer() { p.done = true }

// Release drops the snapshot references unless Transfer ran.
func (p *Pin) Release() {
	if p.done {
		return
	}
	for _, b := range p.bufs {
		b.Release()
	}
}
