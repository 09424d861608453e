// Package workload provides the LADDIS-like mixed operation generator
// (Wittle & Keith 1993) behind the SPEC SFS curves of the paper's Figures
// 2 and 3, and the operation executor both load generators share. The
// sequential 10MB file copy of Tables 1-6 is a CREATE followed by
// client.WriteFile.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/client"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/stats"
)

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

// OpCounts counts operations by class, the array a generator counts into
// as each operation finishes.
type OpCounts [numOps]int

// Map returns the counts by operation name, one entry per class counted
// at least once: the form a result carries.
func (c *OpCounts) Map() map[string]int {
	n := 0
	for _, k := range c {
		if k > 0 {
			n++
		}
	}
	m := make(map[string]int, n)
	for op, k := range c {
		if k > 0 {
			m[Op(op).String()] = k
		}
	}
	return m
}

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

// Target is what one generator issues its operations against: the
// client, the working set, the shard roots and a private scratch
// directory. The closed loop (LADDIS) and the open loop (openload.Gen)
// issue every operation through a Task of their Target.
type Target struct {
	Client *client.Client
	Names  []string      // working-set names, parallel to Files
	Files  []nfsproto.FH // working-set files
	Roots  []nfsproto.FH // shard roots; Roots[0] answers STATFS
	// Scratch is the directory CREATE and REMOVE work in.
	Scratch nfsproto.FH

	// RemoveNewest makes the REMOVE after a CREATE name the newest
	// sequence number issued, which another task's is when two CREATEs
	// overlap: the recorded closed-loop rule. Without it a CREATE removes
	// its own name. The REMOVE rule under ROADMAP's "The LADDIS fixes
	// that would move figure 2" deletes the field and re-records.
	RemoveNewest bool

	seq int // the last CREATE's number; CREATE names are t<seq>
}

// Draw is the caller's choice of targets for one operation.
type Draw struct {
	File int    // index into Files and Names
	Off  uint32 // byte offset of a READ or WRITE
	Dir  int    // index into Roots of a READDIR
}

// RootFor places a working-set name on its shard root (the cluster-wide
// placement function, client.ShardIndex).
func RootFor(roots []nfsproto.FH, name string) nfsproto.FH {
	return roots[client.ShardIndex(name, len(roots))]
}

// Task is one operation at a time in flight through its Target: no
// process, but a record whose continuations are bound once (NewTask), so
// its caller reuses it op after op and issuing one allocates nothing but
// a CREATE's name.
type Task struct {
	t    *Target
	op   Op
	name string // a CREATE's name
	seq  int    // a CREATE's number, 0 once its REMOVE is issued
	done func(error)
	rpc  func(nfsproto.Status, error)
}

// NewTask makes a task of t that calls done with each operation's error.
func (t *Target) NewTask(done func(error)) *Task {
	k := &Task{t: t, done: done}
	k.rpc = k.settled
	return k
}

// Bind moves an idle task, one whose done has been called for its last
// operation, to t.
func (k *Task) Bind(t *Target) { k.t = t }

// Go issues op with draw d by callback (client.Go) and calls the task's
// done with its error where a process blocked in the op would have
// resumed. A write op is one 8K WRITE of the audit pattern. A CREATE is
// followed by a REMOVE, so the scratch directory stays bounded; a REMOVE
// op names an absent file, which exercises the path cheaply. The error is
// the RPC's, or a decode's, or a WRITE's status; a CREATE's REMOVE counts
// for nothing.
func (k *Task) Go(op Op, d Draw) {
	t := k.t
	fh := t.Files[d.File]
	k.op = op
	var r client.Req
	switch op {
	case OpLookup:
		name := t.Names[d.File]
		r = client.Req{Proc: nfsproto.ProcLookup, FH: RootFor(t.Roots, name), Name: name}
	case OpRead:
		r = client.Req{Proc: nfsproto.ProcRead, FH: fh, Off: d.Off, Count: nfsproto.MaxData}
	case OpWrite:
		r = client.Req{Proc: nfsproto.ProcWrite, FH: fh, Off: d.Off}
	case OpGetattr:
		r = client.Req{Proc: nfsproto.ProcGetattr, FH: fh}
	case OpReaddir:
		r = client.Req{Proc: nfsproto.ProcReaddir, FH: t.Roots[d.Dir], Count: 512}
	case OpCreate:
		t.seq++
		k.seq, k.name = t.seq, fmt.Sprintf("t%d", t.seq)
		r = client.Req{Proc: nfsproto.ProcCreate, FH: t.Scratch, Name: k.name, Mode: 0644}
	case OpRemove:
		r = client.Req{Proc: nfsproto.ProcRemove, FH: t.Scratch, Name: "absent"}
	case OpStatfs:
		r = client.Req{Proc: nfsproto.ProcStatfs, FH: t.Roots[0]}
	case OpSetattr:
		r = client.Req{Proc: nfsproto.ProcSetattr, FH: fh, Attr: nfsproto.DefaultSAttr(0644)}
	}
	t.Client.Go(r, k.rpc)
}

// settled takes each RPC's outcome: a made CREATE goes on to its REMOVE,
// anything else ends the op.
func (k *Task) settled(st nfsproto.Status, err error) {
	if k.op != OpCreate {
		k.done(err)
		return
	}
	if k.seq == 0 { // the REMOVE, whose outcome is not the op's
		k.done(nil)
		return
	}
	seq, name := k.seq, k.name
	k.seq, k.name = 0, ""
	if err != nil || st != nfsproto.OK {
		k.done(err)
		return
	}
	t := k.t
	if t.RemoveNewest && t.seq != seq {
		name = fmt.Sprintf("t%d", t.seq)
	}
	t.Client.Go(client.Req{Proc: nfsproto.ProcRemove, FH: t.Scratch, Name: name}, k.rpc)
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
	// Procs is the number of generators (paper: 4 load processes per
	// client).
	Procs int
	// Duration bounds the measured phase.
	Duration sim.Duration
	// Seed is read nowhere: Run draws every op, file and offset from the
	// simulation's own source (Sim.Rand), which disk rotation draws from
	// too. It stays because spec files carry it; the closed-loop seed
	// under ROADMAP's "The LADDIS fixes that would move figure 2" gives
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
	perOp   OpCounts

	// Run's clock, which its generators share.
	rng      *rand.Rand
	end      sim.Time
	interval sim.Duration
	finished int
	cond     *sim.Cond
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
	l := &LADDIS{cfg: cfg, t: Target{Client: cli, Roots: roots, RemoveNewest: true}}
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

// gen is one generator of the closed loop: a chain of At events, not a
// process. Each of its steps runs in the (time, seq) slot a generator
// process's blocking step — its Sleep, its op's RPCs, its wait for a
// burst — would resume in (DESIGN.md, "An RPC is a state machine"), so
// no recorded result depends on which form the generator takes.
type gen struct {
	l     *LADDIS
	task  *Task
	op    Op
	begin sim.Time // when the op, or the write burst, was issued

	// The write burst in flight: its draw, the WRITEs started and still
	// unsettled, and a task per WRITE.
	burstD   Draw
	started  int
	left     int
	writes   []*Task
	loopFn   func()
	arriveFn func()
	startFn  func()
}

func (l *LADDIS) newGen() *gen {
	g := &gen{l: l}
	g.task = l.t.NewTask(g.opDone)
	g.loopFn, g.arriveFn, g.startFn = g.loop, g.arrive, g.startWrite
	return g
}

// loop is the generator's loop head: the window check, then an
// exponential gap (open-loop Poisson arrivals) before the next op.
func (g *gen) loop() {
	l := g.l
	s := l.t.Client.Sim()
	if s.Now() >= l.end {
		l.finished++
		l.cond.Broadcast()
		return
	}
	if gap := sim.Duration(l.rng.ExpFloat64() * float64(l.interval)); gap > 0 {
		s.At(gap, g.arriveFn)
		return
	}
	g.arrive()
}

// arrive issues the op drawn at the end of a gap, unless the window
// closed meanwhile.
func (g *gen) arrive() {
	l := g.l
	if l.t.Client.Sim().Now() >= l.end {
		g.loop()
		return
	}
	g.doOp(l.rng.Intn(1000000))
}

// doOp draws one operation from r and issues it; its completion accounts
// for it and goes round the loop.
func (g *gen) doOp(r int) {
	l := g.l
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
		// Each WRITE is accounted for on its own.
		n := min(burstLen(r/13), l.cfg.FileBlocks)
		if l.cursors[d.File]+n > l.cfg.FileBlocks {
			l.cursors[d.File] = 0
		}
		d.Off = uint32(l.cursors[d.File]) * nfsproto.MaxData
		l.cursors[d.File] += n
		g.burst(d, n)
		return
	}
	g.op, g.begin = op, l.t.Client.Sim().Now()
	g.task.Go(op, d)
}

func (g *gen) opDone(err error) {
	l := g.l
	l.account(g.op, l.t.Client.Sim().Now().Sub(g.begin), err, true)
	g.loop()
}

// burst issues n sequential WRITEs from d.Off, each from an At(0) event:
// the slot in which a pool of writer processes parked on a queue wakes a
// worker per Put, in order (TestBurstRunsInThePoolSlots). A worker
// finishing at the same instant as a Put would take the WRITE inline
// instead, since Queue.Get pops without waiting when an item is queued;
// counted in an instrumented copy of that pool on laddis-closed, figure2,
// figure3 and every other registry scenario, that happened 0 times, so
// the At(0) starts reproduce it on every recorded run. Every WRITE starts
// at the burst's instant, so each one's latency runs from there.
func (g *gen) burst(d Draw, n int) {
	s := g.l.t.Client.Sim()
	g.begin, g.burstD, g.started, g.left = s.Now(), d, 0, n
	for len(g.writes) < n {
		g.writes = append(g.writes, g.l.t.NewTask(g.wrote))
	}
	for i := 0; i < n; i++ {
		s.At(0, g.startFn)
	}
}

// startWrite starts the burst's next WRITE.
func (g *gen) startWrite() {
	d := g.burstD
	d.Off += uint32(g.started * nfsproto.MaxData)
	g.started++
	g.writes[g.started-1].Go(OpWrite, d)
}

// wrote accounts for one WRITE of the burst. A WRITE that is the client's
// first completed operation records no latency, as every recorded run
// has. The last one goes round the generator's loop from an event of
// its own, the slot in which a generator process waiting for the burst
// would be woken by that WRITE's Signal; inline, it would run one event
// early.
func (g *gen) wrote(err error) {
	l := g.l
	s := l.t.Client.Sim()
	l.account(OpWrite, s.Now().Sub(g.begin), err, l.done > 0)
	if g.left--; g.left == 0 {
		s.At(0, g.loopFn)
	}
}

// Run starts the generators and blocks p until the measured phase
// completes, returning the curve point.
func (l *LADDIS) Run(p *sim.Proc) LADDISResult {
	s := p.Sim()
	l.rng = s.Rand()
	start := s.Now()
	l.end = start.Add(l.cfg.Duration)
	l.interval = sim.Duration(float64(sim.Second) / l.cfg.OfferedOpsPerSec * float64(l.cfg.Procs))
	l.finished = 0
	l.cond = sim.NewCond(s)
	for i := 0; i < l.cfg.Procs; i++ {
		s.At(0, l.newGen().loopFn)
	}
	for l.finished < l.cfg.Procs {
		l.cond.Wait(p)
	}
	elapsed := s.Now().Sub(start)
	res := LADDISResult{
		AchievedOpsPerSec: float64(l.done) / elapsed.Seconds(),
		Errors:            l.errors,
		PerOp:             l.perOp.Map(),
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

// account counts one finished op, or one WRITE of a write op, and records
// its latency if timed. Every op is timed but a burst's WRITE that is the
// client's first completed op (wrote); the recorded results keep that.
func (l *LADDIS) account(op Op, lat sim.Duration, err error, timed bool) {
	l.done++
	l.perOp[op]++
	if err != nil {
		l.errors++
	} else if timed {
		l.lat.Record(lat)
		if l.hists != nil {
			l.hists[op].Record(int64(lat))
		}
	}
}
