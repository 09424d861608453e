// Package nvram models a Prestoserve-style NVRAM filesystem accelerator
// (Moran et al. 1990): a small battery-backed cache interposed in front of
// a disk. Writes that fit its acceptance rule complete at NVRAM-copy speed
// and count as stable storage; a background drainer clusters dirty ranges
// and pushes them to the underlying disk asynchronously and in parallel
// with request processing — exactly the duality the paper's server write
// layer keys on (§6.3).
package nvram

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
)

// dirtyBlock is one cached block: a reference to the refcounted buffer the
// write handed over (shared with the buffer cache above, not copied). ver
// guards against the lost-update race where a block is rewritten while a
// drain I/O for its previous contents is in flight: the drainer only
// retires the entry if the version still matches what it snapshotted.
// The dirty map holds entries by value; a block is dirty iff its entry's
// buf is non-nil.
type dirtyBlock struct {
	buf *block.Buf
	ver uint64
}

// Presto is an NVRAM write cache over a disk. It implements disk.Device so
// the filesystem can sit on either a raw disk or an accelerated one.
type Presto struct {
	sim   *sim.Sim
	p     hw.PrestoParams
	under disk.Device
	// dirty maps block number -> cached block contents not yet drained.
	dirty map[int64]dirtyBlock
	used  int // bytes of NVRAM in use
	space *sim.Cond
	work  *sim.Cond
	stats disk.Stats

	// Accepted/declined accounting: declines fall through to the disk.
	Accepted uint64
	Declined uint64

	// DrainErrors counts drain transfers the underlying device failed;
	// the covered blocks stay dirty and are retried.
	DrainErrors uint64
	// lying marks a board that acknowledges persistence but will drop its
	// dirty map at the next power event instead of replaying it — the
	// fault-injection model of stable storage that lies about sync.
	lying bool

	draining int // drain I/Os currently in flight
	stopped  bool
	flushReq bool
	clean    *sim.Cond
	sweepPos int64 // elevator position for drain sweeps
	inFlight map[int64]bool
	procs    []*sim.Proc // drain workers, for crash injection

	pool *block.Pool // backs the []byte write path
	// Drain cluster scratch pools (several workers drain concurrently, so
	// the scratch is pooled, not a single slot).
	runPool  [][]*block.Buf
	versPool [][]uint64

	// OnDrain, when non-nil, observes every completed drain transfer to
	// the platters: starting block, cluster size, and the I/O window.
	// Failed transfers are not reported (the blocks stay dirty).
	OnDrain func(blk int64, nblocks int, start, end sim.Time)
}

// New interposes a Presto board in front of under and starts its
// drainer. acct is the buffer ledger the dirty map charges (nil = the
// process-global one).
func New(s *sim.Sim, p hw.PrestoParams, under disk.Device, acct *block.Accounting) *Presto {
	pr := &Presto{
		sim:      s,
		p:        p,
		under:    under,
		dirty:    make(map[int64]dirtyBlock),
		space:    sim.NewCond(s),
		work:     sim.NewCond(s),
		clean:    sim.NewCond(s),
		inFlight: make(map[int64]bool),
		pool:     block.Or(acct).NewPool(),
	}
	workers := p.DrainWorkers
	if workers < 1 {
		workers = 1
	}
	for i := 0; i < workers; i++ {
		pr.procs = append(pr.procs, s.Spawn("presto-drain", pr.drainLoop))
	}
	return pr
}

// Procs returns the board's drain processes. On a host crash they are
// killed — the board stops moving data — while the battery preserves the
// dirty map for recovery.
func (pr *Presto) Procs() []*sim.Proc { return pr.procs }

// BlockSize implements disk.Device.
func (pr *Presto) BlockSize() int { return pr.under.BlockSize() }

// NumBlocks implements disk.Device.
func (pr *Presto) NumBlocks() int64 { return pr.under.NumBlocks() }

// Stats implements disk.Device: transactions the caller experienced at the
// Presto layer. The underlying disk keeps its own counters, which the
// paper's tables report.
func (pr *Presto) Stats() *disk.Stats { return &pr.stats }

// CacheUsed reports bytes of NVRAM currently holding undrained data.
func (pr *Presto) CacheUsed() int { return pr.used }

// CacheBytes reports the board's capacity; CacheUsed/CacheBytes is the
// dirty ratio the observability probes sample.
func (pr *Presto) CacheBytes() int { return pr.p.CacheBytes }

// WriteBlocks implements disk.Device. Writes no larger than MaxIO are
// absorbed by NVRAM (blocking only if the cache is full); larger writes are
// declined and passed through to the disk, as the small board cannot hold
// them (§6.3: "Presto may decline to accept requests above a certain
// size... resulting in performance that degrades to underlying disk
// speed").
func (pr *Presto) WriteBlocks(p *sim.Proc, blk int64, data []byte) error {
	if len(data)%pr.BlockSize() != 0 {
		panic(fmt.Sprintf("nvram: unaligned write of %d bytes", len(data)))
	}
	if len(data) > pr.p.MaxIO {
		pr.Declined++
		return pr.under.WriteBlocks(p, blk, data)
	}
	nb := int64(len(data) / pr.BlockSize())
	pr.waitSpace(p, blk, nb)
	p.Sleep(pr.p.AcceptLatency)
	for i := int64(0); i < nb; i++ {
		nbuf := pr.pool.Get()
		pr.pool.Acct().CountCopy(copy(nbuf.Data(), data[i*int64(pr.BlockSize()):(i+1)*int64(pr.BlockSize())]))
		pr.store(blk+i, nbuf)
	}
	pr.accept(len(data))
	return nil
}

// WriteBufs implements disk.Device: the zero-copy accept path. The board
// takes the snapshot references before the accept-latency sleep and stores
// them in the dirty map instead of copying the payload into NVRAM-owned
// memory; a mid-accept kill releases them on unwind.
func (pr *Presto) WriteBufs(p *sim.Proc, blk int64, bufs []*block.Buf) error {
	if len(bufs)*pr.BlockSize() > pr.p.MaxIO {
		pr.Declined++
		return pr.under.WriteBufs(p, blk, bufs)
	}
	pin := block.TakePin(bufs)
	defer pin.Release()
	pr.waitSpace(p, blk, int64(len(bufs)))
	p.Sleep(pr.p.AcceptLatency)
	for i, b := range bufs {
		pr.store(blk+int64(i), b) // entry takes over the snapshot ref
	}
	pin.Transfer()
	pr.accept(len(bufs) * pr.BlockSize())
	return nil
}

// waitSpace blocks p until the nb-block write at blk fits in NVRAM.
// Overwrites of blocks already dirty reuse their space.
func (pr *Presto) waitSpace(p *sim.Proc, blk, nb int64) {
	need := 0
	for i := int64(0); i < nb; i++ {
		if pr.dirty[blk+i].buf == nil {
			need += pr.BlockSize()
		}
	}
	for pr.used+need > pr.p.CacheBytes {
		pr.space.Wait(p)
	}
}

// store installs buf (whose reference the caller hands over) as the dirty
// contents of blk, bumping the version so an in-flight drain of the old
// contents does not retire the entry.
func (pr *Presto) store(blk int64, buf *block.Buf) {
	b := pr.dirty[blk]
	if b.buf == nil {
		pr.used += pr.BlockSize()
	} else {
		b.buf.Release()
	}
	pr.dirty[blk] = dirtyBlock{buf, b.ver + 1}
}

func (pr *Presto) accept(n int) {
	pr.Accepted++
	pr.stats.Writes++
	pr.stats.WriteBytes += uint64(n)
	pr.work.Signal()
}

// DirtyBufs reports how many dirty blocks hold a buffer reference
// (leak-check accounting).
func (pr *Presto) DirtyBufs() int { return len(pr.dirty) }

// ReadBlocks implements disk.Device, serving from NVRAM when a block is
// still dirty there.
func (pr *Presto) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	bs := int64(pr.BlockSize())
	nb := int64(len(buf)) / bs
	allCached := true
	for i := int64(0); i < nb; i++ {
		if pr.dirty[blk+i].buf == nil {
			allCached = false
			break
		}
	}
	if allCached {
		p.Sleep(pr.p.AcceptLatency)
		for i := int64(0); i < nb; i++ {
			copy(buf[i*bs:(i+1)*bs], pr.dirty[blk+i].buf.Data())
		}
		pr.stats.Reads++
		pr.stats.ReadBytes += uint64(len(buf))
		return nil
	}
	if err := pr.under.ReadBlocks(p, blk, buf); err != nil {
		pr.stats.Reads++
		return err
	}
	// Overlay any blocks that are newer in NVRAM.
	for i := int64(0); i < nb; i++ {
		if b := pr.dirty[blk+i]; b.buf != nil {
			copy(buf[i*bs:(i+1)*bs], b.buf.Data())
		}
	}
	pr.stats.Reads++
	pr.stats.ReadBytes += uint64(len(buf))
	return nil
}

// drainLoop is the background process that clusters dirty NVRAM blocks and
// writes them to disk ("Presto does its own clustering... can drive disks
// asynchronously and in parallel").
func (pr *Presto) drainLoop(p *sim.Proc) {
	for {
		for len(pr.dirty) == 0 {
			if pr.stopped {
				return
			}
			pr.work.Wait(p)
		}
		// Below the high-water mark, linger briefly: back-to-back writes
		// build contiguous runs the drain can push in one transaction.
		// A signal (new write) re-evaluates; a quiet period — or an
		// explicit flush request — drains.
		if pr.used < pr.p.HiWater && !pr.stopped && !pr.flushReq && pr.p.IdleFlush > 0 {
			if pr.work.WaitTimeout(p, pr.p.IdleFlush) {
				continue
			}
			if len(pr.dirty) == 0 {
				continue
			}
		}
		blk, run, vers := pr.nextCluster()
		if run == nil {
			// Every dirty block is already being drained by another worker.
			pr.work.WaitTimeout(p, pr.p.IdleFlush)
			continue
		}
		if err := pr.drainOne(p, blk, run, vers); err != nil {
			// The disk failed the transfer; the blocks stayed dirty. Back
			// off before retrying so a fail-stopped disk does not spin the
			// drainer in zero simulated time.
			retry := pr.p.IdleFlush
			if retry <= 0 {
				retry = 5 * sim.Millisecond
			}
			pr.work.WaitTimeout(p, retry)
		}
	}
}

// drainOne pushes one contiguous dirty cluster to the underlying device,
// zero-copy: the snapshot references in run pin the exact accepted
// contents for the duration of the disk I/O (a rewrite mid-drain replaces
// the dirty entry's buffer, it cannot mutate the snapshot). The deferred
// cleanup keeps the board consistent when a crash kills the worker
// mid-transfer.
func (pr *Presto) drainOne(p *sim.Proc, blk int64, run []*block.Buf, vers []uint64) error {
	pr.draining++
	nb := int64(len(run))
	for i := int64(0); i < nb; i++ {
		pr.inFlight[blk+i] = true
	}
	defer func() {
		for i := int64(0); i < nb; i++ {
			delete(pr.inFlight, blk+i)
		}
		pr.draining--
		pr.putRun(run, vers)
	}()
	start := p.Now()
	if err := pr.under.WriteBufs(p, blk, run); err != nil {
		// The covered blocks stay dirty (acked data must not leave stable
		// storage until the platters hold it); a later pass retries.
		pr.DrainErrors++
		return err
	}
	if pr.OnDrain != nil {
		pr.OnDrain(blk, len(run), start, p.Now())
	}
	// Only now free the NVRAM space: until the disk write completed the
	// data had to stay stable. A block rewritten during the disk I/O has
	// a newer version and must stay dirty for the next drain pass.
	for i := int64(0); i < nb; i++ {
		if b := pr.dirty[blk+i]; b.buf != nil && b.ver == vers[i] {
			b.buf.Release()
			delete(pr.dirty, blk+i)
			pr.used -= pr.BlockSize()
		}
	}
	pr.space.Broadcast()
	if len(pr.dirty) == 0 && pr.draining == 0 {
		pr.flushReq = false
		pr.clean.Broadcast()
	}
	return nil
}

// getRun takes a drain-cluster scratch pair from the pools.
func (pr *Presto) getRun() ([]*block.Buf, []uint64) {
	var run []*block.Buf
	var vers []uint64
	if n := len(pr.runPool); n > 0 {
		run = pr.runPool[n-1][:0]
		pr.runPool = pr.runPool[:n-1]
	}
	if n := len(pr.versPool); n > 0 {
		vers = pr.versPool[n-1][:0]
		pr.versPool = pr.versPool[:n-1]
	}
	return run, vers
}

// putRun releases the snapshot references and recycles the scratch.
func (pr *Presto) putRun(run []*block.Buf, vers []uint64) {
	for i, b := range run {
		b.Release()
		run[i] = nil
	}
	pr.runPool = append(pr.runPool, run[:0])
	pr.versPool = append(pr.versPool, vers[:0])
}

// nextCluster picks the next dirty block in an elevator sweep (the lowest
// dirty block at or above the last drain position, wrapping) and extends
// it through physically contiguous dirty blocks up to DrainCluster bytes,
// returning a reference snapshot of the covered buffers and each block's
// version at snapshot time — no byte assembly; the references pin the
// contents. The sweep keeps hot blocks that are rewritten continuously
// (an inode block under a write burst) coalescing in NVRAM instead of
// being re-drained on every pass.
func (pr *Presto) nextCluster() (int64, []*block.Buf, []uint64) {
	var min int64 = -1
	var ahead int64 = -1
	for b := range pr.dirty {
		if pr.inFlight[b] {
			continue
		}
		if min < 0 || b < min {
			min = b
		}
		if b >= pr.sweepPos && (ahead < 0 || b < ahead) {
			ahead = b
		}
	}
	if ahead >= 0 {
		min = ahead
	}
	if min < 0 {
		return 0, nil, nil
	}
	maxBlocks := pr.p.DrainCluster / pr.BlockSize()
	if maxBlocks < 1 {
		maxBlocks = 1
	}
	run, vers := pr.getRun()
	for i := 0; i < maxBlocks; i++ {
		b := pr.dirty[min+int64(i)]
		if b.buf == nil || pr.inFlight[min+int64(i)] {
			break
		}
		run = append(run, b.buf.Ref())
		vers = append(vers, b.ver)
	}
	if len(run) == 0 {
		pr.putRun(run, vers)
		return 0, nil, nil
	}
	pr.sweepPos = min + int64(len(run))
	return min, run, vers
}

// Flush blocks p until every dirty block has been drained to disk. Crash
// tests use it to model the post-failure NVRAM recovery flush.
func (pr *Presto) Flush(p *sim.Proc) {
	for len(pr.dirty) > 0 || pr.draining > 0 {
		pr.flushReq = true
		pr.work.Signal()
		pr.clean.Wait(p)
	}
}

// Stop terminates the drainer once the cache is clean (test teardown).
func (pr *Presto) Stop() {
	pr.stopped = true
	pr.work.Broadcast()
}

// BlockInjector accepts raw block contents outside simulated time; both
// disk.Disk and disk.Stripe implement it. It is the target of the
// battery-backed NVRAM recovery flush.
type BlockInjector interface {
	InjectBlock(blk int64, data []byte)
}

// Recover flushes every dirty block into inj (a disk or stripe set) with
// no simulated time, the reboot-time recovery replay. Blocks are distinct,
// so replay order does not affect the recovered image. The board is
// consumed: the dirty map's buffer references are released, since the
// replaced board object is discarded after recovery.
func (pr *Presto) Recover(inj BlockInjector) int {
	n := 0
	for blk, b := range pr.dirty {
		inj.InjectBlock(blk, b.buf.Data())
		b.buf.Release()
		delete(pr.dirty, blk)
		n++
	}
	pr.used = 0
	return n
}

// SetLying marks the board as lying about persistence: writes are still
// acknowledged as stable, but the next power event discards the dirty map
// instead of replaying it (see DropDirty). The flag lives on the board
// object, which carries the dirty map across a crash; a replacement board
// installed on reboot is honest again.
func (pr *Presto) SetLying() { pr.lying = true }

// Lying reports whether the board has been marked as lying about
// persistence.
func (pr *Presto) Lying() bool { return pr.lying }

// DropDirty discards every dirty block without replaying it — what a lying
// board's "battery-backed" memory turns out to hold after a power event.
// It returns the number of blocks lost.
func (pr *Presto) DropDirty() int {
	n := 0
	for blk, b := range pr.dirty {
		b.buf.Release()
		delete(pr.dirty, blk)
		n++
	}
	pr.used = 0
	return n
}
