// Package disk simulates block storage devices with realistic service
// times: a moving-head disk (seek + rotation + transfer), and a stripe
// driver that spreads blocks across several disks. Devices store real
// bytes, so the filesystem above them is genuinely durable within the
// simulation — a crash test can discard all volatile state and re-read the
// platters.
package disk

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Device is synchronous block storage. Addresses are in filesystem blocks
// (BlockSize bytes); a transfer may span multiple contiguous blocks, which
// is how UFS clustering reaches 64K per transaction.
type Device interface {
	// ReadBlocks reads len(buf) bytes starting at block blk, blocking p
	// for the service time. len(buf) must be a multiple of BlockSize. A
	// non-nil error (ErrMedia, ErrFailed) means the transfer failed and
	// buf contents are undefined.
	ReadBlocks(p *sim.Proc, blk int64, buf []byte) error
	// WriteBlocks writes data starting at block blk, blocking p for the
	// service time. len(data) must be a multiple of BlockSize. This is the
	// copying path; the buffer cache uses WriteBufs.
	WriteBlocks(p *sim.Proc, blk int64, data []byte) error
	// WriteBufs writes one refcounted buffer per block starting at blk,
	// blocking p for the service time of the combined transfer. The device
	// takes its own references at entry (the point-in-time snapshot a DMA
	// would capture) and stores them instead of copying the payload; a
	// caller that mutates a buffer afterwards must follow the
	// copy-on-write discipline (block.Buf.Unique).
	WriteBufs(p *sim.Proc, blk int64, bufs []*block.Buf) error
	// BlockSize is the block size in bytes.
	BlockSize() int
	// NumBlocks is the device capacity in blocks.
	NumBlocks() int64
	// Stats returns the device's cumulative transfer statistics.
	Stats() *Stats
}

// Stats counts device transactions, matching the paper's "server disk
// (KB/sec)" and "server disk (trans/sec)" rows.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadBytes  uint64
	WriteBytes uint64
	BusyTime   sim.Duration
}

// Trans reports total transactions.
func (s *Stats) Trans() uint64 { return s.Reads + s.Writes }

// Bytes reports total bytes moved.
func (s *Stats) Bytes() uint64 { return s.ReadBytes + s.WriteBytes }

// Disk is a single moving-head disk with a FIFO request queue. The
// platter store holds references to the refcounted buffers written through
// it — a buffer written from the buffer cache is shared, not copied, until
// one side overwrites it.
type Disk struct {
	sim   *sim.Sim
	p     hw.DiskParams
	arm   *sim.Resource            // serializes the actuator
	pos   int64                    // current head position, block number
	data  *block.Table[*block.Buf] // the platter store, by block number
	pool  *block.Pool              // backs []byte writes and injections
	stats Stats
	fp    *plane // injectable fault plane; nil on a healthy disk
	// OnOp, when non-nil, observes every completed transfer (tracing);
	// svc is the service time the arm spent, so [now-svc, now] is the
	// transfer's occupancy window.
	OnOp func(write bool, blk int64, n int, svc sim.Duration)
}

// New returns a disk with the given parameters. acct is the buffer
// ledger the platter store charges (nil = the process-global one); a
// scenario cell passes its own so concurrently executing cells keep
// exact, independent accounting.
func New(s *sim.Sim, p hw.DiskParams, acct *block.Accounting) *Disk {
	if p.BlockSize != block.Size {
		panic(fmt.Sprintf("disk: block size %d, want %d", p.BlockSize, block.Size))
	}
	return &Disk{
		sim:  s,
		p:    p,
		arm:  sim.NewResource(s, 1),
		data: block.NewTable[*block.Buf](p.NumBlocks),
		pool: block.Or(acct).NewPool(),
	}
}

// StoredBufs reports how many platter blocks hold a buffer reference
// (leak-check accounting).
func (d *Disk) StoredBufs() int { return d.data.Len() }

// BlockSize implements Device.
func (d *Disk) BlockSize() int { return d.p.BlockSize }

// NumBlocks implements Device.
func (d *Disk) NumBlocks() int64 { return d.p.NumBlocks }

// Stats implements Device.
func (d *Disk) Stats() *Stats { return &d.stats }

// serviceTime computes seek + rotational latency + transfer for an access
// of n bytes at block blk given the current head position.
func (d *Disk) serviceTime(blk int64, n int) sim.Duration {
	dist := blk - d.pos
	if dist < 0 {
		dist = -dist
	}
	var seek sim.Duration
	switch {
	case dist == 0:
		seek = 0
	case dist <= 16:
		seek = d.p.TrackSeek
	default:
		// Scale toward the average seek with distance; cap at ~1.6x the
		// average for full-stroke movements.
		frac := float64(dist) / float64(d.p.NumBlocks)
		seek = d.p.TrackSeek + sim.Duration(float64(d.p.AvgSeek-d.p.TrackSeek)*(0.6+frac))
		if max := d.p.AvgSeek * 8 / 5; seek > max {
			seek = max
		}
	}
	// Rotational latency: uniform over one revolution unless the access is
	// sequential with the last one (dist == 0 means the head is already
	// there mid-track; assume minimal rotation).
	var rot sim.Duration
	if dist == 0 {
		rot = d.p.RotationTime / 16
	} else {
		rot = sim.Duration(d.sim.Rand().Int63n(int64(d.p.RotationTime)))
	}
	xfer := sim.Duration(int64(n) * int64(sim.Second) / (int64(d.p.MediaRateKBps) * 1024))
	return d.p.CtlOverhead + seek + rot + xfer
}

// check panics on malformed transfers (programming errors) and returns
// ErrFailed for I/O against a fail-stopped device.
func (d *Disk) check(blk int64, n int) error {
	if n%d.p.BlockSize != 0 {
		panic(fmt.Sprintf("disk: transfer of %d bytes not block aligned", n))
	}
	if blk < 0 || blk+int64(n/d.p.BlockSize) > d.p.NumBlocks {
		panic(fmt.Sprintf("disk: access beyond device: blk %d len %d", blk, n))
	}
	if d.fp != nil && d.fp.failStop {
		return ErrFailed
	}
	return nil
}

// service computes the transfer's service time, degraded if a fault
// window covers the current instant.
func (d *Disk) service(blk int64, n int) sim.Duration {
	st := d.serviceTime(blk, n)
	if d.fp != nil {
		st = d.fp.scale(d.sim.Now(), st)
	}
	return st
}

// ReadBlocks implements Device. A transfer overlapping an armed media-error
// rule occupies the arm for the full service time, then fails.
func (d *Disk) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	if err := d.check(blk, len(buf)); err != nil {
		return err
	}
	d.arm.Acquire(p)
	defer d.arm.Release()
	st := d.service(blk, len(buf))
	p.Sleep(st)
	d.stats.BusyTime += st
	nb := int64(len(buf) / d.p.BlockSize)
	if d.fp != nil {
		if err := d.fp.readErr(blk, nb); err != nil {
			d.pos = blk
			d.stats.Reads++
			return err
		}
	}
	for i := int64(0); i < nb; i++ {
		src, ok := d.data.Get(blk + i)
		dst := buf[i*int64(d.p.BlockSize) : (i+1)*int64(d.p.BlockSize)]
		if !ok {
			for j := range dst {
				dst[j] = 0
			}
		} else {
			copy(dst, src.Data())
		}
	}
	d.pos = blk + nb
	d.stats.Reads++
	d.stats.ReadBytes += uint64(len(buf))
	if d.OnOp != nil {
		d.OnOp(false, blk, len(buf), st)
	}
	return nil
}

// WriteBlocks implements Device. A process killed while the transfer is in
// flight (a server crash mid-I/O) unwinds out of the Sleep: the deferred
// release frees the arm, and the bytes never reach the platters — the
// conservative power-failure model.
func (d *Disk) WriteBlocks(p *sim.Proc, blk int64, data []byte) error {
	if err := d.check(blk, len(data)); err != nil {
		return err
	}
	d.arm.Acquire(p)
	defer d.arm.Release()
	st := d.service(blk, len(data))
	p.Sleep(st)
	d.stats.BusyTime += st
	d.storeBytes(blk, data)
	d.pos = blk + int64(len(data)/d.p.BlockSize)
	d.stats.Writes++
	d.stats.WriteBytes += uint64(len(data))
	if d.OnOp != nil {
		d.OnOp(true, blk, len(data), st)
	}
	return nil
}

// WriteBufs implements Device: the zero-copy write path. References are
// taken before the service-time sleep — the snapshot a DMA engine would
// capture at issue — so a buffer rewritten (copy-on-write) while the arm
// is busy does not change what lands; on a mid-transfer kill the deferred
// release drops the snapshot and nothing lands at all — unless the
// torn-write failure mode is armed, in which case a strict prefix of the
// blocks is already on the platters when the power dies.
func (d *Disk) WriteBufs(p *sim.Proc, blk int64, bufs []*block.Buf) error {
	n := len(bufs) * d.p.BlockSize
	if err := d.check(blk, n); err != nil {
		return err
	}
	pin := block.TakePin(bufs)
	defer pin.Release()
	landed := false
	if d.fp != nil && d.fp.tornArmed {
		defer func() {
			if landed {
				return
			}
			// The process was killed mid-transfer: land the prefix the
			// firmware had already committed. This runs before the pin
			// release (defers are LIFO), so the snapshot refs are still
			// held and each stored block takes a fresh reference.
			k := d.fp.intn(len(bufs))
			for i := 0; i < k; i++ {
				d.store(blk+int64(i), bufs[i].Ref())
			}
			if k > 0 {
				d.fp.torn++
			}
		}()
	}
	d.arm.Acquire(p)
	defer d.arm.Release()
	st := d.service(blk, n)
	p.Sleep(st)
	d.stats.BusyTime += st
	for i, b := range bufs {
		d.store(blk+int64(i), b) // ownership of the snapshot ref transfers here
	}
	pin.Transfer()
	landed = true
	d.pos = blk + int64(len(bufs))
	d.stats.Writes++
	d.stats.WriteBytes += uint64(n)
	if d.OnOp != nil {
		d.OnOp(true, blk, n, st)
	}
	return nil
}

// store puts b (whose reference the platters take over) at blk, releasing
// the platters' reference to what was there.
func (d *Disk) store(blk int64, b *block.Buf) {
	if old, ok := d.data.Get(blk); ok {
		old.Release()
	}
	d.data.Set(blk, b)
}

// storeBytes copies raw bytes into platter-owned buffers (the []byte write
// and injection path; the buffer-cache path shares buffers instead).
func (d *Disk) storeBytes(blk int64, data []byte) {
	nb := int64(len(data) / d.p.BlockSize)
	for i := int64(0); i < nb; i++ {
		b, ok := d.data.Get(blk + i)
		if !ok || !b.Unique() {
			// First write, or the stored buffer is shared with a cache
			// above: replace it rather than mutate history out from under
			// the sharer.
			b = d.pool.Get()
			d.store(blk+i, b)
		}
		d.pool.Acct().CountCopy(copy(b.Data(), data[i*int64(d.p.BlockSize):(i+1)*int64(d.p.BlockSize)]))
	}
}

// PeekBlock returns the stored contents of one block without simulating
// I/O time. It is the crash-recovery inspection hook: what is on the
// platters, regardless of any volatile cache above.
func (d *Disk) PeekBlock(blk int64) []byte {
	out := make([]byte, d.p.BlockSize)
	if b, ok := d.data.Get(blk); ok {
		copy(out, b.Data())
	}
	return out
}

// InjectBlock stores contents directly (test setup helper).
func (d *Disk) InjectBlock(blk int64, data []byte) { d.storeBytes(blk, data) }

// Stripe interleaves blocks across several member disks RAID-0 style.
// A transfer spanning multiple members proceeds on them in parallel,
// which is how a 3-disk stripe set triples sequential bandwidth.
type Stripe struct {
	sim        *sim.Sim
	members    []*Disk
	unitBlocks int64 // stripe unit in blocks
	stats      Stats
	free       []*fanOut // records of finished transfers
}

// NewStripe builds a stripe set over members with the given stripe unit in
// blocks (e.g. 8 blocks = 64K for 8K blocks).
func NewStripe(s *sim.Sim, members []*Disk, unitBlocks int64) *Stripe {
	if len(members) == 0 {
		panic("disk: empty stripe set")
	}
	if unitBlocks <= 0 {
		panic("disk: non-positive stripe unit")
	}
	bs := members[0].BlockSize()
	for _, m := range members {
		if m.BlockSize() != bs {
			panic("disk: mixed block sizes in stripe set")
		}
	}
	return &Stripe{sim: s, members: members, unitBlocks: unitBlocks}
}

// BlockSize implements Device.
func (st *Stripe) BlockSize() int { return st.members[0].BlockSize() }

// NumBlocks implements Device.
func (st *Stripe) NumBlocks() int64 {
	min := st.members[0].NumBlocks()
	for _, m := range st.members {
		if m.NumBlocks() < min {
			min = m.NumBlocks()
		}
	}
	return min * int64(len(st.members))
}

// Stats implements Device. The stripe set reports aggregate member
// transactions, matching the paper's "server disks" rows.
func (st *Stripe) Stats() *Stats { return &st.stats }

// map translates a logical block to (member, physical block).
func (st *Stripe) mapBlock(blk int64) (member int, phys int64) {
	stripe := blk / st.unitBlocks
	within := blk % st.unitBlocks
	member = int(stripe % int64(len(st.members)))
	row := stripe / int64(len(st.members))
	return member, row*st.unitBlocks + within
}

type segment struct {
	member int
	phys   int64
	off    int // byte offset within the caller's buffer
	n      int // byte length
}

// segments splits a logical transfer into per-member contiguous pieces,
// appended to segs.
func (st *Stripe) segments(segs []segment, blk int64, n int) []segment {
	bs := int64(st.BlockSize())
	remaining := int64(n) / bs
	cur := blk
	off := 0
	for remaining > 0 {
		m, phys := st.mapBlock(cur)
		// blocks left in this stripe unit
		unitLeft := st.unitBlocks - cur%st.unitBlocks
		take := unitLeft
		if take > remaining {
			take = remaining
		}
		// extend across contiguous units on the same member when the
		// logical range continues there (single-member stripe sets).
		segs = append(segs, segment{member: m, phys: phys, off: off, n: int(take * bs)})
		cur += take
		off += int(take * bs)
		remaining -= take
	}
	// Merge physically contiguous segments on the same member.
	merged := segs[:0]
	for _, s := range segs {
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.member == s.member && last.phys+int64(last.n/st.BlockSize()) == s.phys && last.off+last.n == s.off {
				last.n += s.n
				continue
			}
		}
		merged = append(merged, s)
	}
	return merged
}

// ReadBlocks implements Device. A member failure fails the whole logical
// transfer; unaffected members complete their segments normally.
func (st *Stripe) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	err := st.transfer(p, blk, len(buf), buf, nil, false)
	st.stats.Reads++
	st.stats.ReadBytes += uint64(len(buf))
	return err
}

// WriteBlocks implements Device.
func (st *Stripe) WriteBlocks(p *sim.Proc, blk int64, data []byte) error {
	err := st.transfer(p, blk, len(data), data, nil, true)
	st.stats.Writes++
	st.stats.WriteBytes += uint64(len(data))
	return err
}

// WriteBufs implements Device: per-member zero-copy writes. The stripe
// takes the snapshot references at entry — before the member fan-out gets
// a chance to interleave with other processes — so all members land the
// same point-in-time contents.
func (st *Stripe) WriteBufs(p *sim.Proc, blk int64, bufs []*block.Buf) error {
	pin := block.TakePin(bufs)
	defer pin.Release()
	n := len(bufs) * st.BlockSize()
	err := st.transfer(p, blk, n, nil, bufs, true)
	st.stats.Writes++
	st.stats.WriteBytes += uint64(n)
	return err
}

// fanOut is one logical transfer on its way to the members: its segments,
// the caller's bytes (buf) or buffers (bufs, for WriteBufs), and, while
// helpers run, the next segment to hand out, the helpers still running
// and the first error. Records are pooled on the Stripe, and run, the
// helpers' body, is bound once when a record is made, so a transfer
// allocates nothing.
type fanOut struct {
	st      *Stripe
	segs    []segment
	buf     []byte
	bufs    []*block.Buf
	write   bool
	next    int
	pending int
	err     error
	done    sim.Cond
	run     func(q *sim.Proc)
}

func (st *Stripe) getFanOut() *fanOut {
	if n := len(st.free); n > 0 {
		f := st.free[n-1]
		st.free = st.free[:n-1]
		return f
	}
	f := &fanOut{st: st, segs: make([]segment, 0, 8)}
	f.done.Init(st.sim)
	f.run = f.helper
	return f
}

// transfer moves n bytes at logical block blk to or from the members: in
// line when they fall on one member, otherwise a helper process per
// segment, all in parallel, while p waits for the last. Helpers are
// children, so that a crash which kills the issuing process takes the
// in-flight member transfers down with it (no posthumous writes). A
// failing member fails the logical transfer; the other members still
// complete their segments. A killed transfer's record is left to the
// collector, not pooled.
func (st *Stripe) transfer(p *sim.Proc, blk int64, n int, buf []byte, bufs []*block.Buf, write bool) error {
	if n%st.BlockSize() != 0 {
		panic("disk: stripe transfer not block aligned")
	}
	f := st.getFanOut()
	f.segs = st.segments(f.segs[:0], blk, n)
	f.buf, f.bufs, f.write = buf, bufs, write
	var err error
	if len(f.segs) == 1 {
		err = f.member(p, f.segs[0])
	} else {
		f.next, f.pending, f.err = 0, len(f.segs), nil
		for range f.segs {
			st.sim.SpawnChild(p, "stripe-io", f.run)
		}
		for f.pending > 0 {
			f.done.Wait(p)
		}
		err = f.err
	}
	f.buf, f.bufs = nil, nil
	st.free = append(st.free, f)
	return err
}

// helper is one member transfer: helpers are dispatched in spawn order,
// so each takes the next segment as it starts.
func (f *fanOut) helper(q *sim.Proc) {
	s := f.segs[f.next]
	f.next++
	if err := f.member(q, s); err != nil && f.err == nil {
		f.err = err
	}
	f.pending--
	if f.pending == 0 {
		f.done.Signal()
	}
}

// member moves segment s of the transfer to or from its member disk.
func (f *fanOut) member(p *sim.Proc, s segment) error {
	m := f.st.members[s.member]
	switch {
	case f.bufs != nil:
		bs := m.BlockSize()
		return m.WriteBufs(p, s.phys, f.bufs[s.off/bs:(s.off+s.n)/bs])
	case f.write:
		return m.WriteBlocks(p, s.phys, f.buf[s.off:s.off+s.n])
	}
	return m.ReadBlocks(p, s.phys, f.buf[s.off:s.off+s.n])
}

// InjectBlock stores contents directly on the owning members (crash
// recovery replay and test setup; no simulated time).
func (st *Stripe) InjectBlock(blk int64, data []byte) {
	bs := int64(st.BlockSize())
	nb := int64(len(data)) / bs
	for i := int64(0); i < nb; i++ {
		m, phys := st.mapBlock(blk + i)
		st.members[m].InjectBlock(phys, data[i*bs:(i+1)*bs])
	}
}
