// Package workload provides the load generators behind the paper's
// evaluation: the sequential 10MB file-copy of Tables 1-6 and a
// LADDIS-like mixed operation generator (Wittle & Keith 1993) for the
// SPEC SFS curves of Figures 2 and 3.
package workload

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FileCopy writes a size-byte file named name sequentially through cli and
// returns the client-observed elapsed time, matching the paper's
// "client write speed" measurement (first write generated to close
// completion).
func FileCopy(p *sim.Proc, cli *client.Client, root nfsproto.FH, name string, size int) (sim.Duration, error) {
	cres, err := cli.Create(p, root, name, 0644)
	if err != nil {
		return 0, fmt.Errorf("workload: create %s: %w", name, err)
	}
	if cres.Status != nfsproto.OK {
		return 0, fmt.Errorf("workload: create %s: %v", name, cres.Status)
	}
	return cli.WriteFile(p, cres.File, size)
}

// Op is one LADDIS operation type.
type Op int

// LADDIS operation classes.
const (
	OpLookup Op = iota
	OpRead
	OpWrite
	OpGetattr
	OpReaddir
	OpCreate
	OpRemove
	OpStatfs
	OpSetattr
	numOps
)

var opNames = [numOps]string{
	"lookup", "read", "write", "getattr", "readdir",
	"create", "remove", "statfs", "setattr",
}

func (o Op) String() string { return opNames[o] }

// Mix is an operation mix in percent. It should sum to 100.
type Mix [numOps]int

// LADDISMix approximates the SPEC SFS 1.0 (097.LADDIS) operation mix with
// 15% writes (§7.2). READLINK's share is folded into GETATTR because the
// served filesystem has no symlinks; both are lightweight attribute-path
// operations.
func LADDISMix() Mix {
	return Mix{
		OpLookup:  34,
		OpRead:    22,
		OpWrite:   15,
		OpGetattr: 21, // 13% getattr + 8% readlink
		OpReaddir: 3,
		OpCreate:  2,
		OpRemove:  1,
		OpStatfs:  1,
		OpSetattr: 1,
	}
}

// MetadataMix is a metadata-heavy mix — lookup/getattr/create/remove
// dominated, the shape of a build farm or home-directory server where
// attribute traffic, not data transfer, loads the CPU.
func MetadataMix() Mix {
	return Mix{
		OpLookup:  40,
		OpRead:    5,
		OpWrite:   3,
		OpGetattr: 25,
		OpReaddir: 3,
		OpCreate:  12,
		OpRemove:  10,
		OpStatfs:  1,
		OpSetattr: 1,
	}
}

// Ops reports the number of operation classes (the Mix array length).
func Ops() int { return int(numOps) }

// OpByName resolves an operation name from the opNames vocabulary
// (trace-capture records use the names); ok is false for unknown names.
func OpByName(name string) (Op, bool) {
	for i, n := range opNames {
		if n == name {
			return Op(i), true
		}
	}
	return 0, false
}

// LADDISConfig parameterizes a mixed-load run.
type LADDISConfig struct {
	// Mix is the op mix; zero value means LADDISMix.
	Mix Mix
	// Files is the working-set size (pre-created, pre-filled files).
	Files int
	// FileBlocks is each working file's size in 8K blocks.
	FileBlocks int
	// OfferedOpsPerSec is the open-loop aggregate request rate.
	OfferedOpsPerSec float64
	// Procs is the number of generator processes (paper: 4 per client).
	Procs int
	// Warmup operations are excluded from latency statistics.
	Warmup int
	// Duration bounds the measured phase.
	Duration sim.Duration
	// Seed drives op/file/offset selection.
	Seed int64
	// Roots, when set, shards the working set across several exports: each
	// file is placed under the root chosen by a hash of its name (the
	// cluster rig passes one root per server). Empty means the single root
	// given to NewLADDIS.
	Roots []nfsproto.FH
	// Histograms additionally records per-op-kind latency histograms
	// (constant memory, streaming) surfaced as LADDISResult.Hists. The
	// recording sites and sampled set are identical to the mean/P95
	// recorder, so enabling it does not change any existing figure.
	Histograms bool
}

// LADDISResult is one point on the throughput/latency curve.
type LADDISResult struct {
	AchievedOpsPerSec float64
	AvgLatencyMs      float64
	P95LatencyMs      float64
	PerOp             map[string]int
	Errors            int
	// Hists holds per-op latency histograms (µs) when
	// LADDISConfig.Histograms was set; nil otherwise. Keys are op names.
	Hists map[string]*stats.Histogram `json:",omitempty"`
}

// LADDIS drives the mixed workload through cli against the server's root
// and reports achieved throughput and latency. The caller provides the
// process; the run creates its own working set first (unmeasured).
type LADDIS struct {
	cfg   LADDISConfig
	cli   *client.Client
	root  nfsproto.FH
	roots []nfsproto.FH // shard roots; [root] when unsharded

	files   []nfsproto.FH
	names   []string // the working set's names, formatted once by Setup
	cursors []int    // per-file append cursor, in blocks
	scratch nfsproto.FH
	lat     stats.Latency
	hists   *[numOps]stats.Histogram // nil unless cfg.Histograms
	done    int
	errors  int
	perOp   map[string]int
	seq     int

	// Write worker pool: one SFS write op is a burst of concurrent 8K
	// WRITEs; bursts are dispatched to pre-spawned workers instead of a
	// goroutine per request, so dense multi-client sweeps pay no
	// spawn/teardown. The pool is sized so a burst never waits for a
	// worker (Procs generators × the largest burst), keeping the request
	// schedule identical to the spawn-per-write form.
	writeJobs  *sim.Queue[writeTask]
	freeBursts []*burstState
}

// maxBurst is the largest write burst burstLen can draw.
const maxBurst = 8

// writeTask is one 8K WRITE dispatched to a pool worker.
type writeTask struct {
	fh    nfsproto.FH
	off   uint32
	burst *burstState
}

// burstState tracks one in-flight write burst; the issuing generator waits
// on done until its workers drain the burst.
type burstState struct {
	remaining int
	done      sim.Cond
}

// getBurst takes a pooled burst record.
func (l *LADDIS) getBurst(s *sim.Sim) *burstState {
	if n := len(l.freeBursts); n > 0 {
		b := l.freeBursts[n-1]
		l.freeBursts = l.freeBursts[:n-1]
		b.done.Init(s)
		return b
	}
	b := &burstState{}
	b.done.Init(s)
	return b
}

func (l *LADDIS) putBurst(b *burstState) { l.freeBursts = append(l.freeBursts, b) }

// rootFor places a working-set name on its shard root (the cluster-wide
// placement function, client.ShardIndex).
func (l *LADDIS) rootFor(name string) nfsproto.FH {
	if len(l.roots) == 1 {
		return l.roots[0]
	}
	return l.roots[client.ShardIndex(name, len(l.roots))]
}

// NewLADDIS builds a generator bound to one client.
func NewLADDIS(cli *client.Client, root nfsproto.FH, cfg LADDISConfig) *LADDIS {
	if cfg.Mix == (Mix{}) {
		cfg.Mix = LADDISMix()
	}
	if cfg.Files == 0 {
		cfg.Files = 20
	}
	if cfg.FileBlocks == 0 {
		cfg.FileBlocks = 4
	}
	if cfg.Procs == 0 {
		cfg.Procs = 4
	}
	roots := cfg.Roots
	if len(roots) == 0 {
		roots = []nfsproto.FH{root}
	}
	l := &LADDIS{cfg: cfg, cli: cli, root: root, roots: roots, perOp: make(map[string]int)}
	if cfg.Histograms {
		l.hists = new([numOps]stats.Histogram)
	}
	return l
}

// Setup creates and fills the working set (not measured). With shard
// roots, each file lands on the export its name hashes to.
func (l *LADDIS) Setup(p *sim.Proc) error {
	sname := "scratch-" + l.cli.Name()
	mres, err := l.cli.Mkdir(p, l.rootFor(sname), sname, 0755)
	if err != nil || mres.Status != nfsproto.OK {
		return fmt.Errorf("workload: scratch mkdir: %v %v", err, mres)
	}
	l.scratch = mres.File
	for i := 0; i < l.cfg.Files; i++ {
		name := fmt.Sprintf("ws-%s-%d", l.cli.Name(), i)
		cres, err := l.cli.Create(p, l.rootFor(name), name, 0644)
		if err != nil || cres.Status != nfsproto.OK {
			return fmt.Errorf("workload: create %s: %v", name, err)
		}
		fh := cres.File // copy: cres is client scratch, dead at the next RPC
		for b := 0; b < l.cfg.FileBlocks; b++ {
			// One staging buffer per request, released on completion: the
			// pool cannot recycle it while any queued duplicate datagram
			// still references the payload.
			buf := l.cli.GetWriteBuf()
			client.FillPattern(buf.Data(), uint32(b*nfsproto.MaxData))
			if err := l.cli.WriteSyncBufRelease(p, fh, uint32(b*nfsproto.MaxData), buf, nfsproto.MaxData); err != nil {
				return fmt.Errorf("workload: fill %s: %w", name, err)
			}
		}
		l.files = append(l.files, fh)
		l.names = append(l.names, name)
		l.cursors = append(l.cursors, l.cfg.FileBlocks)
	}
	return nil
}

// burstLen draws the number of back-to-back 8K WRITE RPCs one SFS write
// operation issues. SFS 1.0 write sizes span 8K to >100K; the weights
// below give a mean near 2.5 requests.
func burstLen(r int) int {
	switch v := r % 100; {
	case v < 45:
		return 1
	case v < 75:
		return 2
	case v < 92:
		return 4
	default:
		return 8
	}
}

// pickOp selects the next operation per the mix.
func (l *LADDIS) pickOp(r int) Op {
	r = r % 100
	acc := 0
	for op := Op(0); op < numOps; op++ {
		acc += l.cfg.Mix[op]
		if r < acc {
			return op
		}
	}
	return OpLookup
}

// writeWorker is one pool worker: it performs burst writes handed to it
// for the life of the run (the pooled twin of the old goroutine-per-write
// form; the request schedule is identical). A zero task is the shutdown
// sentinel Run enqueues once the measured phase ends, so the pool's
// goroutines do not outlive their run.
func (l *LADDIS) writeWorker(w *sim.Proc) {
	for {
		task := l.writeJobs.Get(w)
		if task.burst == nil {
			return
		}
		buf := l.cli.GetWriteBuf()
		client.FillPattern(buf.Data(), task.off)
		wbegin := w.Now()
		if werr := l.cli.WriteSyncBufRelease(w, task.fh, task.off, buf, nfsproto.MaxData); werr != nil {
			l.errors++
		} else if l.done > l.cfg.Warmup {
			d := w.Now().Sub(wbegin)
			l.lat.Record(d)
			if l.hists != nil {
				l.hists[OpWrite].Record(int64(d))
			}
		}
		l.done++
		l.perOp[OpWrite.String()]++
		task.burst.remaining--
		if task.burst.remaining == 0 {
			task.burst.done.Signal()
		}
	}
}

// Run launches the generator processes and blocks p until the measured
// phase completes, returning the curve point.
func (l *LADDIS) Run(p *sim.Proc) LADDISResult {
	s := p.Sim()
	rng := s.Rand()
	start := s.Now()
	end := start.Add(l.cfg.Duration)
	interval := sim.Duration(float64(sim.Second) / l.cfg.OfferedOpsPerSec * float64(l.cfg.Procs))
	finished := 0
	cond := sim.NewCond(s)
	// The write pool: enough workers that a generator's burst never queues
	// behind another (each generator has at most one burst outstanding).
	l.writeJobs = sim.NewQueue[writeTask](s, 0)
	for w := 0; w < l.cfg.Procs*maxBurst; w++ {
		s.Spawn(fmt.Sprintf("laddis-writer-%s-%d", l.cli.Name(), w), l.writeWorker)
	}
	for g := 0; g < l.cfg.Procs; g++ {
		s.Spawn(fmt.Sprintf("laddis-%s-%d", l.cli.Name(), g), func(q *sim.Proc) {
			defer func() { finished++; cond.Broadcast() }()
			for q.Now() < end {
				// Open-loop Poisson arrivals: exponential gaps.
				gap := sim.Duration(rng.ExpFloat64() * float64(interval))
				if gap > 0 {
					q.Sleep(gap)
				}
				if q.Now() >= end {
					return
				}
				l.doOp(q, rng.Intn(1000000))
			}
		})
	}
	for finished < l.cfg.Procs {
		cond.Wait(p)
	}
	// Retire the write pool: every generator has drained its last burst,
	// so all workers are parked on the queue; one sentinel each releases
	// them. Same-instant events — the measured interval is unaffected.
	for w := 0; w < l.cfg.Procs*maxBurst; w++ {
		l.writeJobs.Put(writeTask{})
	}
	elapsed := s.Now().Sub(start)
	res := LADDISResult{
		AchievedOpsPerSec: float64(l.done) / elapsed.Seconds(),
		Errors:            l.errors,
		PerOp:             l.perOp,
	}
	if l.lat.N() > 0 {
		res.AvgLatencyMs = sim.Duration(l.lat.Mean()).Millis()
		res.P95LatencyMs = sim.Duration(l.lat.Percentile(95)).Millis()
	}
	if l.hists != nil {
		res.Hists = make(map[string]*stats.Histogram)
		for op := Op(0); op < numOps; op++ {
			if l.hists[op].N() > 0 {
				res.Hists[op.String()] = &l.hists[op]
			}
		}
	}
	return res
}

// doOp executes one operation and records its latency.
func (l *LADDIS) doOp(q *sim.Proc, r int) {
	op := l.pickOp(r)
	fh := l.files[r%len(l.files)]
	off := uint32(r/7%l.cfg.FileBlocks) * nfsproto.MaxData
	begin := q.Now()
	var err error
	switch op {
	case OpLookup:
		name := l.names[r%l.cfg.Files]
		_, err = l.cli.Lookup(q, l.rootFor(name), name)
	case OpRead:
		_, err = l.cli.Read(q, fh, off, nfsproto.MaxData)
	case OpWrite:
		// One SFS write op is a burst of sequential 8K overwrites within
		// one pre-created working file, issued concurrently the way client
		// biods would emit them — the traffic write gathering exploits.
		// Overwrites of allocated blocks are the common SFS case, so the
		// standard server usually pays one disk op per request (§4.4).
		// Each request goes to a pool worker; the generator blocks until
		// its burst drains.
		idx := r % len(l.files)
		burst := burstLen(r / 13)
		if burst > l.cfg.FileBlocks {
			burst = l.cfg.FileBlocks
		}
		if l.cursors[idx]+burst > l.cfg.FileBlocks {
			l.cursors[idx] = 0
		}
		startBlk := l.cursors[idx]
		l.cursors[idx] += burst
		fh := l.files[idx]
		bs := l.getBurst(q.Sim())
		bs.remaining = burst
		for i := 0; i < burst; i++ {
			off := uint32(startBlk+i) * nfsproto.MaxData
			l.writeJobs.Put(writeTask{fh: fh, off: off, burst: bs})
		}
		for bs.remaining > 0 {
			bs.done.Wait(q)
		}
		l.putBurst(bs)
		return
	case OpGetattr:
		_, err = l.cli.Getattr(q, fh)
	case OpReaddir:
		_, err = l.cli.Readdir(q, l.roots[r%len(l.roots)], 0, 512)
	case OpCreate:
		l.seq++
		seq := l.seq
		name := fmt.Sprintf("t%d", seq)
		var cres *nfsproto.DirOpRes
		cres, err = l.cli.Create(q, l.scratch, name, 0644)
		if err == nil && cres.Status == nfsproto.OK {
			// Keep the scratch directory bounded: remove as we go. The
			// REMOVE names the newest number issued, which is another
			// generator's when its CREATE overlapped this one; the
			// recorded results depend on that.
			if l.seq != seq {
				name = fmt.Sprintf("t%d", l.seq)
			}
			l.cli.Remove(q, l.scratch, name)
		}
	case OpRemove:
		// Remove of a nonexistent name exercises the path cheaply.
		_, err = l.cli.Remove(q, l.scratch, "absent")
	case OpStatfs:
		_, err = l.cli.Call(q, nfsproto.ProcStatfs, (&nfsproto.FHArgs{File: l.root}).Encode())
	case OpSetattr:
		sa := nfsproto.DefaultSAttr(0644)
		_, err = l.cli.Setattr(q, fh, sa)
	}
	l.done++
	l.perOp[op.String()]++
	if err != nil {
		l.errors++
		return
	}
	if l.done > l.cfg.Warmup {
		d := q.Now().Sub(begin)
		l.lat.Record(d)
		if l.hists != nil {
			l.hists[op].Record(int64(d))
		}
	}
}
