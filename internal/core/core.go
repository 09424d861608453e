// Package core implements the paper's contribution: NFS server write
// gathering (Juszczak, USENIX Winter 1994).
//
// Several WRITE requests for the same file often arrive at a server at
// about the same time (client biods emit them back-to-back). The engine
// lets the nfsd handling each write push the *data* down immediately, then
// defer the expensive synchronous *metadata* update, leaving its reply
// pending on a per-file active write queue. The last nfsd through — after
// a bounded procrastination — becomes the metadata writer: it flushes the
// gathered data range (clustered), commits the metadata once, and sends
// every pending reply in FIFO order. No reply leaves before the metadata
// covering it is on stable storage, so NFS crash semantics are preserved
// (§6.8).
//
// The engine also embodies the paper's supporting machinery: the global
// nfsd state table (§6.2), the transport handle cache that frees an nfsd
// the moment it detaches a reply (§6.1), the socket-buffer "mbuf hunter"
// probe (§6.5), the Presto/plain-disk duality (§6.3), and orphan adoption
// for duplicate requests (§6.9).
package core

import (
	"repro/internal/block"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// Config selects gathering policy. The zero value is not useful; call
// DefaultConfig.
type Config struct {
	// Accelerated selects the Presto duality (§6.3): push data through
	// VOP_WRITE with IO_SYNC|IO_DATAONLY and skip VOP_SYNCDATA; otherwise
	// data is delayed in UFS (IO_DELAYDATA) and flushed clustered.
	Accelerated bool
	// Procrastinate is the transport-dependent gather wait (§6.6).
	Procrastinate sim.Duration
	// MaxProcrastinations bounds how many waits one nfsd will take before
	// becoming the metadata writer. The paper uses 1.
	MaxProcrastinations int
	// MbufHunter enables the socket-buffer scan. Without it, an nfsd that
	// never blocks (Presto) has no way to see queued writes (§6.5).
	MbufHunter bool
	// LIFOReplies sends gathered replies newest-first; the paper tried and
	// abandoned this (§6.7). Kept as an ablation.
	LIFOReplies bool
	// FirstWriteLatency replaces procrastination with the [SIVA93] policy:
	// use the synchronous write of the first request's data as the latency
	// device that gives later writes time to arrive (§6.6 discussion).
	FirstWriteLatency bool
}

// DefaultConfig returns the paper's configuration for a given medium wait.
func DefaultConfig(accelerated bool, procrastinate sim.Duration) Config {
	return Config{
		Accelerated:         accelerated,
		Procrastinate:       procrastinate,
		MaxProcrastinations: 1,
		MbufHunter:          true,
	}
}

// WriteDesc packages one pending write for handoff between nfsds (§6.2:
// "data structures that package up active write requests for handoff and a
// queue of these active requests").
type WriteDesc struct {
	Ino    vfs.Ino
	Offset uint32
	Length uint32
	// Body, when non-nil, is the refcounted payload buffer of a split
	// WRITE (a borrow of the datagram's reference, valid for the duration
	// of HandleWrite); the filesystem's zero-copy entry point adopts it.
	Body    *block.Buf
	Arrived sim.Time
	// Send delivers the reply; the engine calls it exactly once, after the
	// metadata covering the write is stable. ok=false reports a flush
	// failure so an error reply can be produced. The call ends the
	// engine's use of the descriptor: Send may recycle it.
	Send func(p *sim.Proc, ok bool)

	sent bool
}

// NfsdStage records where an nfsd is in write processing, visible to all
// other nfsds — the paper's global array of nfsd state.
type NfsdStage int

// Stages of the write path.
const (
	StageIdle NfsdStage = iota
	StageWriting
	StageDeciding
	StageProcrastinating
	StageFlushing
)

// NfsdState is one slot of the global nfsd state table.
type NfsdState struct {
	Stage  NfsdStage
	Ino    vfs.Ino
	Offset uint32
	Length uint32
}

// Stats are cumulative engine statistics.
type Stats struct {
	// Writes is the number of write descriptors processed.
	Writes uint64
	// Gathers is the number of metadata commits (batches).
	Gathers uint64
	// GatheredWrites is the total descriptors covered by those commits;
	// GatheredWrites/Gathers is the mean gather size.
	GatheredWrites uint64
	// MaxBatch is the largest single gather.
	MaxBatch int
	// Procrastinations counts sleeps taken.
	Procrastinations uint64
	// HunterHits counts socket-buffer probes that found a matching write.
	HunterHits uint64
	// HandoffsToActive counts descriptors left to another mid-write nfsd.
	HandoffsToActive uint64
	// Adoptions counts orphaned queues rescued via AdoptOrphan (§6.9).
	Adoptions uint64
	// HandlePeak is the most transport handles ever detached at once.
	HandlePeak int
}

// Engine is the per-server write gathering state.
type Engine struct {
	sim *sim.Sim
	fs  vfs.FileSystem
	cfg Config
	// hunter probes the socket buffer for another WRITE to the file; nil
	// disables the probe regardless of cfg.MbufHunter.
	hunter func(ino vfs.Ino) bool

	// bw is fs's zero-copy write entry point, nil when unsupported.
	bw vfs.BlockWriter

	locks  *VnodeLocks
	files  map[vfs.Ino]*fileGather
	freeFG []*fileGather // retired per-file gather records
	nfsds  []NfsdState
	stats  Stats
	inUse  int // detached transport handles currently held
	handle int // handle cache high-water mark bookkeeping

	// Distribution views of the paper's central mechanism: how many
	// writes each commit covered, and how long the commit took. Pure
	// counter updates on the commit path (no events, no sleeps), so they
	// perturb nothing.
	batchHist  stats.Histogram // writes per successful commit
	commitHist stats.Histogram // commit latency, µs

	// OnCommit, when non-nil, observes every successful metadata commit:
	// the file, the batch size, and the commit window. The observability
	// plane turns these into gather spans.
	OnCommit func(ino vfs.Ino, batch int, start, end sim.Time)
}

// fileGather is the per-file gather state: how many nfsds are inside the
// write path for this vnode, and the queue of replies owed.
type fileGather struct {
	active int
	queue  []*WriteDesc
	spare  []*WriteDesc // retired batch backing, reused by the next queue
}

// takeBatch detaches the owed-reply queue for a commit, re-arming the
// queue on separate backing (writes arriving mid-commit append to it) so
// the batch slice can be recycled afterwards via doneBatch.
func (g *fileGather) takeBatch() []*WriteDesc {
	batch := g.queue
	g.queue = g.spare[:0]
	g.spare = nil
	return batch
}

// doneBatch recycles a fully-sent batch as the next queue backing.
func (g *fileGather) doneBatch(batch []*WriteDesc) {
	for i := range batch {
		batch[i] = nil
	}
	g.spare = batch[:0]
}

// NewEngine builds an engine over fs for a server with numNfsds daemons.
// hunter may be nil when the serving stack cannot expose its socket buffer.
func NewEngine(s *sim.Sim, fs vfs.FileSystem, numNfsds int, cfg Config, hunter func(vfs.Ino) bool) *Engine {
	if cfg.MaxProcrastinations < 0 {
		cfg.MaxProcrastinations = 0
	}
	bw, _ := fs.(vfs.BlockWriter)
	return &Engine{
		sim:    s,
		fs:     fs,
		bw:     bw,
		cfg:    cfg,
		hunter: hunter,
		locks:  NewVnodeLocks(s),
		files:  make(map[vfs.Ino]*fileGather),
		nfsds:  make([]NfsdState, numNfsds),
	}
}

// Stats returns a copy of the cumulative statistics.
func (e *Engine) Stats() Stats { return e.stats }

// BatchHist reports the distribution of writes covered per commit.
func (e *Engine) BatchHist() *stats.Histogram { return &e.batchHist }

// CommitHist reports the distribution of per-batch commit latency (µs).
func (e *Engine) CommitHist() *stats.Histogram { return &e.commitHist }

// Locks exposes the vnode sleep-lock table so the rest of the server
// (standard paths, SETATTR, directory ops) can serialize against gathers.
func (e *Engine) Locks() *VnodeLocks { return e.locks }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// NfsdStates exposes the global state table (diagnostics and tests).
func (e *Engine) NfsdStates() []NfsdState { return e.nfsds }

// PendingReplies reports how many descriptors currently await a metadata
// commit across all files.
func (e *Engine) PendingReplies() int {
	n := 0
	for _, g := range e.files {
		n += len(g.queue)
	}
	return n
}

// HandlesHeld reports how many transport handles are detached: replies
// owed, queued or mid-commit. Zero at quiesce.
func (e *Engine) HandlesHeld() int { return e.inUse }

func (e *Engine) file(ino vfs.Ino) *fileGather {
	g, ok := e.files[ino]
	if !ok {
		if n := len(e.freeFG); n > 0 {
			g = e.freeFG[n-1]
			e.freeFG = e.freeFG[:n-1]
		} else {
			g = &fileGather{}
		}
		e.files[ino] = g
	}
	return g
}

func (e *Engine) release(ino vfs.Ino, g *fileGather) {
	if g.active == 0 && len(g.queue) == 0 {
		delete(e.files, ino)
		g.queue = g.queue[:0]
		e.freeFG = append(e.freeFG, g)
	}
}

// setStage publishes nfsd's slot of the state table.
func (e *Engine) setStage(nfsd int, st NfsdState) {
	if nfsd < 0 || nfsd >= len(e.nfsds) {
		return
	}
	e.nfsds[nfsd] = st
}

// at is d's state-table slot at stage st.
func (d *WriteDesc) at(st NfsdStage) NfsdState {
	return NfsdState{Stage: st, Ino: d.Ino, Offset: d.Offset, Length: d.Length}
}

// takeHandle detaches a transport handle from the handle cache (§6.1): the
// nfsd that leaves a reply pending needs a fresh handle to keep working.
func (e *Engine) takeHandle() {
	e.inUse++
	if e.inUse > e.stats.HandlePeak {
		e.stats.HandlePeak = e.inUse
	}
}

func (e *Engine) putHandle() { e.inUse-- }

// HandleWrite runs the §6.8 algorithm for one WRITE request on behalf of
// nfsd. data is the write payload. It returns with the reply either
// pending (another nfsd will send it) or already sent (this nfsd became
// the metadata writer); either way the caller's nfsd is free to take new
// work. A filesystem error is returned immediately and the descriptor's
// Send is called with ok=false.
//
// Send ends the descriptor: its owner may recycle it at once, so the
// engine reads nothing of d once d's reply has gone — not even from the
// nfsd that brought it, which may be the metadata writer sending it.
func (e *Engine) HandleWrite(p *sim.Proc, nfsd int, d *WriteDesc, data []byte) error {
	e.stats.Writes++
	ino := d.Ino
	g := e.file(ino)
	g.active++
	e.setStage(nfsd, d.at(StageWriting))

	// Hand off data to UFS via VOP_WRITE (§6.3 duality), under the vnode
	// sleep lock.
	var flags vfs.IOFlags
	if e.cfg.Accelerated {
		flags = vfs.IOSync | vfs.IODataOnly
	} else {
		flags = vfs.IODelayData
	}
	e.locks.Lock(p, ino)
	var err error
	if d.Body != nil && e.bw != nil {
		err = e.bw.WriteBuf(p, ino, d.Offset, d.Body, len(data), flags)
	} else {
		err = e.fs.Write(p, ino, d.Offset, data, flags)
	}
	// The borrow ends here: the descriptor outlives the datagram whose
	// reference backs Body (it sits on the gather queue across sleeps), so
	// clear it rather than leave a dangling pointer past its validity.
	d.Body = nil
	e.locks.Unlock(ino)
	if err != nil {
		g.active--
		e.release(ino, g)
		e.setStage(nfsd, NfsdState{Stage: StageIdle})
		d.sent = true
		d.Send(p, false)
		return err
	}

	// The reply is now owed; queue the descriptor in arrival (FIFO) order
	// and detach a transport handle so this nfsd could take other work.
	g.queue = append(g.queue, d)
	e.takeHandle()
	e.setStage(nfsd, d.at(StageDeciding))

	procrastinations := 0
	for {
		// Another nfsd mid-write on the same vnode — either inside the
		// gather path (active) or blocked on the vnode lock — will pass
		// through this decision later and can take the metadata duty.
		if g.active > 1 || e.locks.Blocked(ino) > 0 {
			g.active--
			e.stats.HandoffsToActive++
			e.setStage(nfsd, NfsdState{Stage: StageIdle})
			return nil
		}
		// Search the socket buffer for another write to this file.
		if e.cfg.MbufHunter && e.hunter != nil && e.hunter(ino) {
			g.active--
			e.stats.HunterHits++
			e.setStage(nfsd, NfsdState{Stage: StageIdle})
			return nil
		}
		if e.cfg.FirstWriteLatency && procrastinations == 0 && !e.cfg.Accelerated {
			// [SIVA93]: send the first write's data to disk and use that
			// I/O as the latency device, then re-check once.
			procrastinations++
			e.setStage(nfsd, d.at(StageFlushing))
			if err := e.fs.SyncData(p, ino, d.Offset, d.Offset+d.Length); err != nil {
				return e.failBatch(p, nfsd, g, ino, err)
			}
			e.setStage(nfsd, d.at(StageDeciding))
			continue
		}
		if procrastinations >= e.cfg.MaxProcrastinations {
			break
		}
		procrastinations++
		e.stats.Procrastinations++
		e.setStage(nfsd, d.at(StageProcrastinating))
		p.Sleep(e.cfg.Procrastinate)
		e.setStage(nfsd, d.at(StageDeciding))
	}

	// Become the metadata writer and assume responsibility for this file.
	// d is in the first batch: from its commit on, only ino is read.
	e.setStage(nfsd, d.at(StageFlushing))
	for len(g.queue) > 0 {
		batch := g.takeBatch()
		err := e.commit(p, ino, batch)
		g.doneBatch(batch)
		if err != nil {
			g.active--
			e.release(ino, g)
			e.setStage(nfsd, NfsdState{Stage: StageIdle})
			return err
		}
		// Writes that arrived during the commit were queued by nfsds that
		// saw us active; loop to cover them too — no descriptor may be
		// orphaned (§6.9).
	}
	g.active--
	e.release(ino, g)
	e.setStage(nfsd, NfsdState{Stage: StageIdle})
	return nil
}

// commit flushes data+metadata covering batch and sends its replies. The
// vnode lock is held across the flush so no new write mutates metadata
// between the data flush and the inode commit.
func (e *Engine) commit(p *sim.Proc, ino vfs.Ino, batch []*WriteDesc) error {
	start := e.sim.Now()
	e.locks.Lock(p, ino)
	defer e.locks.Unlock(ino)
	if !e.cfg.Accelerated {
		lo, hi := batch[0].Offset, batch[0].Offset+batch[0].Length
		for _, b := range batch[1:] {
			if b.Offset < lo {
				lo = b.Offset
			}
			if end := b.Offset + b.Length; end > hi {
				hi = end
			}
		}
		if err := e.fs.SyncData(p, ino, lo, hi); err != nil {
			e.sendAll(p, batch, false)
			return err
		}
	}
	if err := e.fs.Fsync(p, ino, vfs.FWrite|vfs.FWriteMetadata); err != nil {
		e.sendAll(p, batch, false)
		return err
	}
	e.stats.Gathers++
	e.stats.GatheredWrites += uint64(len(batch))
	if len(batch) > e.stats.MaxBatch {
		e.stats.MaxBatch = len(batch)
	}
	end := e.sim.Now()
	e.batchHist.Record(int64(len(batch)))
	e.commitHist.Record(int64(end.Sub(start)))
	if e.OnCommit != nil {
		e.OnCommit(ino, len(batch), start, end)
	}
	e.sendAll(p, batch, true)
	return nil
}

// failBatch aborts the gather on an I/O error mid-decision.
func (e *Engine) failBatch(p *sim.Proc, nfsd int, g *fileGather, ino vfs.Ino, err error) error {
	batch := g.takeBatch()
	e.sendAll(p, batch, false)
	g.doneBatch(batch)
	g.active--
	e.release(ino, g)
	e.setStage(nfsd, NfsdState{Stage: StageIdle})
	return err
}

// sendAll delivers replies in FIFO (or, for the ablation, LIFO) order.
func (e *Engine) sendAll(p *sim.Proc, batch []*WriteDesc, ok bool) {
	if e.cfg.LIFOReplies {
		for i := len(batch) - 1; i >= 0; i-- {
			e.sendOne(p, batch[i], ok)
		}
		return
	}
	for _, d := range batch {
		e.sendOne(p, d, ok)
	}
}

func (e *Engine) sendOne(p *sim.Proc, d *WriteDesc, ok bool) {
	if d.sent {
		panic("core: double reply for write descriptor")
	}
	d.sent = true
	e.putHandle()
	d.Send(p, ok)
}

// AdoptOrphan rescues a gather queue whose expected metadata writer never
// materialized — e.g. the socket-buffer write that a hunter hit saw turned
// out to be a duplicate that was then discarded (§6.9). If the file has
// pending descriptors and no active nfsd, the caller becomes the metadata
// writer. It reports whether anything was flushed.
func (e *Engine) AdoptOrphan(p *sim.Proc, nfsd int, ino vfs.Ino) bool {
	g, ok := e.files[ino]
	if !ok || g.active > 0 || len(g.queue) == 0 {
		return false
	}
	g.active++
	e.setStage(nfsd, NfsdState{Stage: StageFlushing, Ino: ino})
	adopted := false
	for len(g.queue) > 0 {
		batch := g.takeBatch()
		err := e.commit(p, ino, batch)
		g.doneBatch(batch)
		if err != nil {
			break
		}
		adopted = true
	}
	e.stats.Adoptions++
	g.active--
	e.release(ino, g)
	e.setStage(nfsd, NfsdState{Stage: StageIdle})
	return adopted
}

// FlushAll commits every pending gather (server shutdown / drain hook).
func (e *Engine) FlushAll(p *sim.Proc) {
	for ino, g := range e.files {
		if g.active == 0 && len(g.queue) > 0 {
			e.AdoptOrphan(p, -1, ino)
		}
	}
}
