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

// Pick selects the operation for draw r: r%100 walks the mix's cumulative
// percentages, so r = 0…99 reproduces the mix exactly.
func (m Mix) Pick(r int) Op {
	r %= 100
	acc := 0
	for op := Op(0); op < numOps; op++ {
		acc += m[op]
		if r < acc {
			return op
		}
	}
	return OpLookup
}

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

// Target is what one generator issues its operations against: the
// client, the working set, the shard roots and a private scratch
// directory. The closed loop (LADDIS) and the open loop
// (openload.Gen) issue every operation through Target.Do.
type Target struct {
	Client *client.Client
	Names  []string      // working-set names, parallel to Files
	Files  []nfsproto.FH // working-set files
	Roots  []nfsproto.FH // shard roots; Roots[0] answers STATFS
	// Scratch is the directory CREATE and REMOVE work in.
	Scratch nfsproto.FH

	// Writes issues a write op's n 8K WRITEs to fh from off and returns
	// once all have completed. nil means one inline WritePattern, and a
	// Draw's Blocks must then be 1. The closed loop sets it to its writer
	// pool, so even a burst of one is issued from a pool worker in that
	// worker's wake slot. ROADMAP item 7 deletes the field with the pool.
	Writes func(q *sim.Proc, fh nfsproto.FH, off uint32, n int) error
	// RemoveNewest makes the REMOVE after a CREATE name the newest
	// sequence number issued, which is another process's when two CREATEs
	// overlap: the recorded closed-loop rule. Without it a CREATE removes
	// its own name. ROADMAP item 2(b) deletes the field and re-records.
	RemoveNewest bool

	seq int // the last CREATE's number; CREATE names are t<seq>
}

// Draw is the caller's choice of targets for one operation.
type Draw struct {
	File   int    // index into Files and Names
	Off    uint32 // byte offset of a READ or of a write op's first WRITE
	Dir    int    // index into Roots of a READDIR
	Blocks int    // 8K WRITEs in a write op
}

// RootFor places a working-set name on its shard root (the cluster-wide
// placement function, client.ShardIndex).
func RootFor(roots []nfsproto.FH, name string) nfsproto.FH {
	return roots[client.ShardIndex(name, len(roots))]
}

// Do issues one operation with draw d and returns its error. A CREATE is
// followed by a REMOVE, so the scratch directory stays bounded; a REMOVE
// op names an absent file, which exercises the path cheaply.
func (t *Target) Do(q *sim.Proc, op Op, d Draw) error {
	cli, fh := t.Client, t.Files[d.File]
	var err error
	switch op {
	case OpLookup:
		name := t.Names[d.File]
		_, err = cli.Lookup(q, RootFor(t.Roots, name), name)
	case OpRead:
		_, err = cli.Read(q, fh, d.Off, nfsproto.MaxData)
	case OpWrite:
		if t.Writes == nil {
			return cli.WritePattern(q, fh, d.Off)
		}
		return t.Writes(q, fh, d.Off, d.Blocks)
	case OpGetattr:
		_, err = cli.Getattr(q, fh)
	case OpReaddir:
		_, err = cli.Readdir(q, t.Roots[d.Dir], 0, 512)
	case OpCreate:
		t.seq++
		seq := t.seq
		name := fmt.Sprintf("t%d", seq)
		var cres *nfsproto.DirOpRes
		cres, err = cli.Create(q, t.Scratch, name, 0644)
		if err == nil && cres.Status == nfsproto.OK {
			if t.RemoveNewest && t.seq != seq {
				name = fmt.Sprintf("t%d", t.seq)
			}
			cli.Remove(q, t.Scratch, name)
		}
	case OpRemove:
		_, err = cli.Remove(q, t.Scratch, "absent")
	case OpStatfs:
		_, err = cli.Call(q, nfsproto.ProcStatfs, (&nfsproto.FHArgs{File: t.Roots[0]}).Encode())
	case OpSetattr:
		_, err = cli.Setattr(q, fh, nfsproto.DefaultSAttr(0644))
	}
	return err
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
	// Seed is read nowhere: Run draws every op, file and offset from the
	// simulation's own source (Sim.Rand), which disk rotation draws from
	// too. It stays because spec files carry it; ROADMAP item 2(f) gives
	// the closed loop a source of its own seeded from it.
	Seed int64
	// Roots, when set, shards the working set across several exports: each
	// file is placed under the root chosen by a hash of its name (the
	// cluster rig passes one root per server). Empty means the single root
	// given to NewLADDIS. Roots[0] answers STATFS.
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
	cfg     LADDISConfig
	t       Target
	cursors []int // per-file append cursor, in blocks
	lat     stats.Latency
	hists   *[numOps]stats.Histogram // nil unless cfg.Histograms
	done    int
	errors  int
	perOp   map[string]int

	// The write pool (writeBurst): pre-spawned workers, not a process per
	// WRITE, so dense multi-client sweeps pay no spawn/teardown.
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
	l := &LADDIS{cfg: cfg, t: Target{Client: cli, Roots: roots, RemoveNewest: true}, perOp: make(map[string]int)}
	l.t.Writes = l.writeBurst
	if cfg.Histograms {
		l.hists = new([numOps]stats.Histogram)
	}
	return l
}

// Setup creates and fills the working set (not measured). With shard
// roots, each file lands on the export its name hashes to.
func (l *LADDIS) Setup(p *sim.Proc) error {
	cli := l.t.Client
	sname := "scratch-" + cli.Name()
	mres, err := cli.Mkdir(p, RootFor(l.t.Roots, sname), sname, 0755)
	if err != nil || mres.Status != nfsproto.OK {
		return fmt.Errorf("workload: scratch mkdir: %v %v", err, mres)
	}
	l.t.Scratch = mres.File
	for i := 0; i < l.cfg.Files; i++ {
		name := fmt.Sprintf("ws-%s-%d", cli.Name(), i)
		cres, err := cli.Create(p, RootFor(l.t.Roots, name), name, 0644)
		if err != nil || cres.Status != nfsproto.OK {
			return fmt.Errorf("workload: create %s: %v", name, err)
		}
		fh := cres.File // copy: cres is client scratch, dead at the next RPC
		for b := 0; b < l.cfg.FileBlocks; b++ {
			if err := cli.WritePattern(p, fh, uint32(b*nfsproto.MaxData)); err != nil {
				return fmt.Errorf("workload: fill %s: %w", name, err)
			}
		}
		l.t.Files = append(l.t.Files, fh)
		l.t.Names = append(l.t.Names, name)
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

// startWriters spawns the write pool: enough workers that a burst never
// waits for one (Procs generators, each with at most one burst
// outstanding, × the largest burst), keeping the request schedule that
// of a process per WRITE.
func (l *LADDIS) startWriters(s *sim.Sim) {
	l.writeJobs = sim.NewQueue[writeTask](s, 0)
	for w := 0; w < l.cfg.Procs*maxBurst; w++ {
		s.Spawn(fmt.Sprintf("laddis-writer-%s-%d", l.t.Client.Name(), w), l.writeWorker)
	}
}

// stopWriters retires the write pool once every burst has drained, so
// all workers are parked on the queue: one zero task each releases them.
func (l *LADDIS) stopWriters() {
	for w := 0; w < l.cfg.Procs*maxBurst; w++ {
		l.writeJobs.Put(writeTask{})
	}
}

// writeBurst is the closed loop's Target.Writes: it hands the burst's n
// WRITEs to pool workers, as concurrent client biods would emit them, and
// blocks until they drain. The workers account for each WRITE.
func (l *LADDIS) writeBurst(q *sim.Proc, fh nfsproto.FH, off uint32, n int) error {
	var bs *burstState
	if k := len(l.freeBursts); k > 0 {
		bs, l.freeBursts = l.freeBursts[k-1], l.freeBursts[:k-1]
	} else {
		bs = &burstState{}
	}
	bs.done.Init(q.Sim())
	bs.remaining = n
	for i := 0; i < n; i++ {
		l.writeJobs.Put(writeTask{fh: fh, off: off + uint32(i*nfsproto.MaxData), burst: bs})
	}
	for bs.remaining > 0 {
		bs.done.Wait(q)
	}
	l.freeBursts = append(l.freeBursts, bs)
	return nil
}

// writeWorker is one pool worker: it performs burst writes handed to it
// for the life of the run (the pooled twin of the old goroutine-per-write
// form; the request schedule is identical). A zero task is the shutdown
// sentinel stopWriters enqueues once the measured phase ends, so the
// pool's goroutines do not outlive their run.
func (l *LADDIS) writeWorker(w *sim.Proc) {
	for {
		task := l.writeJobs.Get(w)
		if task.burst == nil {
			return
		}
		begin := w.Now()
		err := l.t.Client.WritePattern(w, task.fh, task.off)
		l.account(OpWrite, w.Now().Sub(begin), err, l.done > l.cfg.Warmup)
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
	l.startWriters(s)
	for g := 0; g < l.cfg.Procs; g++ {
		s.Spawn(fmt.Sprintf("laddis-%s-%d", l.t.Client.Name(), g), func(q *sim.Proc) {
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
	// Same-instant events: the measured interval is unaffected.
	l.stopWriters()
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

// doOp draws one operation from r, issues it and records its latency.
func (l *LADDIS) doOp(q *sim.Proc, r int) {
	op := l.cfg.Mix.Pick(r)
	d := Draw{
		File: r % len(l.t.Files),
		Off:  uint32(r/7%l.cfg.FileBlocks) * nfsproto.MaxData,
		Dir:  r % len(l.t.Roots),
	}
	if op == OpWrite {
		// One SFS write op is a burst of sequential 8K overwrites within
		// one pre-created working file, issued concurrently the way client
		// biods would emit them — the traffic write gathering exploits.
		// Overwrites of allocated blocks are the common SFS case, so the
		// standard server usually pays one disk op per request (§4.4).
		// The pool accounts for each WRITE.
		d.Blocks = min(burstLen(r/13), l.cfg.FileBlocks)
		if l.cursors[d.File]+d.Blocks > l.cfg.FileBlocks {
			l.cursors[d.File] = 0
		}
		d.Off = uint32(l.cursors[d.File]) * nfsproto.MaxData
		l.cursors[d.File] += d.Blocks
		l.t.Do(q, op, d)
		return
	}
	begin := q.Now()
	err := l.t.Do(q, op, d)
	l.account(op, q.Now().Sub(begin), err, l.done >= l.cfg.Warmup)
}

// account counts one finished op, or one WRITE of a write op, and records
// its latency if warm. A pool worker tests the warm-up before it counts,
// doOp as if after; the recorded results keep both.
func (l *LADDIS) account(op Op, lat sim.Duration, err error, warm bool) {
	l.done++
	l.perOp[op.String()]++
	if err != nil {
		l.errors++
	} else if warm {
		l.lat.Record(lat)
		if l.hists != nil {
			l.hists[op].Record(int64(lat))
		}
	}
}
