// Package openload is the open-loop load-generation subsystem: arrival
// processes emit operations at a target offered rate regardless of
// completions, so a server can be driven past saturation and the
// overload regime measured honestly — queue growth, shed and expired
// arrivals, timeout-driven retransmission storms — instead of the
// closed-loop generators' silent self-throttling.
//
// Three pieces compose a generator:
//
//   - an Arrival process (fixed-rate, Poisson, or bursty on/off
//     MMPP-style), seed-driven and deterministic;
//   - a Population — the per-cell file set, built once (Populate) and
//     shared by every client, with flat or Zipf-skewed target selection;
//   - an admission path: an arrival dispatches while fewer than Window
//     operations are in flight, never blocking the arrival clock; when
//     the window is full the arrival waits in a bounded backlog queue,
//     and when the backlog is full it is shed. Dequeued arrivals older than a deadline expire
//     unissued. Latency is measured from the arrival instant, so queue
//     wait is part of every reported percentile.
//
// Nothing here is a process: the arrival clock is a chain of events
// (Gen.Start), and an admitted operation is a pooled record its RPCs'
// callbacks drive (workload.Task).
package openload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/client"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/ufs"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Arrival kinds (the spec-level vocabulary; "" means fixed).
const (
	// ArrivalFixed emits operations on a strict fixed-rate clock.
	ArrivalFixed = "fixed"
	// ArrivalPoisson draws exponential inter-arrival gaps (seed-driven,
	// deterministic) with mean 1/rate.
	ArrivalPoisson = "poisson"
	// ArrivalBursty is an on/off MMPP-style process: exponential on/off
	// dwell times; during "on" periods arrivals run hot enough that the
	// long-run average still meets the target rate.
	ArrivalBursty = "bursty"
)

// Arrival generates deterministic inter-arrival gaps.
type Arrival interface {
	// First returns the wait before the first arrival (fixed-rate
	// processes use a seeded uniform phase so sub-1-op populations of
	// many clients still offer the aggregate rate).
	First(rng *rand.Rand) sim.Duration
	// Gap returns the wait between consecutive arrivals.
	Gap(rng *rand.Rand) sim.Duration
}

type fixedArrival struct{ gap float64 }

func (a fixedArrival) First(rng *rand.Rand) sim.Duration { return sim.Duration(rng.Float64() * a.gap) }
func (a fixedArrival) Gap(*rand.Rand) sim.Duration       { return sim.Duration(a.gap) }

type poissonArrival struct{ mean float64 }

func (a poissonArrival) First(rng *rand.Rand) sim.Duration { return a.Gap(rng) }
func (a poissonArrival) Gap(rng *rand.Rand) sim.Duration {
	return sim.Duration(rng.ExpFloat64() * a.mean)
}

// burstyArrival is an on/off MMPP-style process: exponential on and off
// dwell times; while "on", arrivals are Poisson at a hot rate scaled so
// the long-run average still meets the target.
type burstyArrival struct {
	hotMean float64 // mean inter-arrival gap while on, ns
	onMean  float64 // mean on dwell, ns
	offMean float64 // mean off dwell, ns
	onLeft  float64 // remaining budget of the current on period, ns
}

func (a *burstyArrival) First(rng *rand.Rand) sim.Duration { return a.Gap(rng) }

func (a *burstyArrival) Gap(rng *rand.Rand) sim.Duration {
	pause := 0.0
	for {
		if a.onLeft <= 0 {
			pause += rng.ExpFloat64() * a.offMean
			a.onLeft = rng.ExpFloat64() * a.onMean
		}
		g := rng.ExpFloat64() * a.hotMean
		if g <= a.onLeft {
			a.onLeft -= g
			return sim.Duration(pause + g)
		}
		pause += a.onLeft
		a.onLeft = 0
	}
}

// NewArrival builds the named process for a per-client rate in ops/s.
// burstOn/burstOff parameterize "bursty" (mean dwell times).
func NewArrival(kind string, rate float64, burstOn, burstOff sim.Duration) (Arrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("openload: arrival rate must be > 0, got %g", rate)
	}
	gap := float64(sim.Second) / rate
	switch kind {
	case ArrivalFixed, "":
		return fixedArrival{gap: gap}, nil
	case ArrivalPoisson:
		return poissonArrival{mean: gap}, nil
	case ArrivalBursty:
		on, off := float64(burstOn), float64(burstOff)
		if on <= 0 {
			on = 200 * float64(sim.Millisecond)
		}
		if off <= 0 {
			off = 200 * float64(sim.Millisecond)
		}
		// Hot-rate scaling: arrivals only flow for on/(on+off) of the
		// time, so the on-period rate is raised to keep the average.
		return &burstyArrival{hotMean: gap * on / (on + off), onMean: on, offMean: off}, nil
	default:
		return nil, fmt.Errorf("openload: unknown arrival kind %q", kind)
	}
}

// Population kinds ("" means flat).
const (
	// PopFlat picks operation targets uniformly over the shared file set.
	PopFlat = "flat"
	// PopZipf skews picks toward a hot set with Zipf exponent s.
	PopZipf = "zipf"
)

// Population is the shared per-cell file set: built once (Populate) and
// used by every generator, with a pick distribution over the files.
// Names and placement are deterministic, so every cell with the same
// spec sees the same population.
type Population struct {
	Names  []string
	Files  []nfsproto.FH
	Roots  []nfsproto.FH // shard roots; placement by client.ShardIndex
	Blocks int           // file size in 8K blocks
	cdf    []float64     // cumulative pick weights; nil = flat
	chunks chunks        // the generators' spare backlog storage
	ops    *op           // the generators' op records not in flight
}

// NewPopulation describes a population of n files of blocks 8K blocks
// each, skewed by kind ("flat" or "zipf" with exponent s; s <= 0 means
// 1.1). Populate must run before any Pick target is used.
func NewPopulation(n, blocks int, kind string, s float64, roots []nfsproto.FH) (*Population, error) {
	if n <= 0 {
		n = 64
	}
	if blocks <= 0 {
		blocks = 4
	}
	p := &Population{
		Names:  make([]string, n),
		Files:  make([]nfsproto.FH, n),
		Roots:  roots,
		Blocks: blocks,
	}
	for i := range p.Names {
		p.Names[i] = fmt.Sprintf("ol-%d", i)
	}
	switch kind {
	case PopFlat, "":
	case PopZipf:
		if s <= 0 {
			s = 1.1
		}
		p.cdf = make([]float64, n)
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += 1 / math.Pow(float64(i+1), s)
			p.cdf[i] = acc
		}
		for i := range p.cdf {
			p.cdf[i] /= acc
		}
	default:
		return nil, fmt.Errorf("openload: unknown population kind %q", kind)
	}
	return p, nil
}

// Populate builds the cell's starting image by calling the filesystems
// directly: every population file created and filled in index order,
// then one scratch directory per generator in gens order, each on the
// shard workload.RootFor picks (fsOf resolves a shard's mounted
// filesystem; nil means nobody serves it). These are the ufs calls, in
// the order, that the servers make when one client Builds the population
// over the wire and the generators then Setup one after another, so
// inode numbers, block layout and handles are that export's
// (TestImageEqualsWire) — but no RPC is issued, no datagram sent, and
// every write is synchronous, so the image is on the platters when
// Populate returns.
//
// Each fill block is the first generator's client's pattern page for its
// offset (Client.PatternBuf), the payload Build sends through its caller,
// and the buffer caches and platter stores keep a reference to it. The
// pages are the cell's, shared by every client, so the image costs no
// buffer of its own and a measured WRITE that replaces a block only drops
// a reference.
func (p *Population) Populate(q *sim.Proc, fsOf func(fsid uint32) *ufs.FS, gens []*Gen) error {
	if len(gens) == 0 {
		return fmt.Errorf("openload: populate: no generators")
	}
	stage := gens[0].t.Client
	for i, name := range p.Names {
		fs, fh, err := p.place(q, fsOf, name, false)
		if err != nil {
			return err
		}
		for b := 0; b < p.Blocks; b++ {
			off := uint32(b * nfsproto.MaxData)
			buf := stage.PatternBuf(off, nfsproto.MaxData)
			err := fs.WriteBuf(q, vfs.Ino(fh.Ino()), off, buf, nfsproto.MaxData, vfs.IOSync)
			buf.Release()
			if err != nil {
				return fmt.Errorf("openload: populate: fill %s: %w", name, err)
			}
		}
		p.Files[i] = fh
	}
	for _, g := range gens {
		_, fh, err := p.place(q, fsOf, g.scratchName(), true)
		if err != nil {
			return err
		}
		g.t.Scratch = fh
	}
	return nil
}

// place makes one file (0644) or directory (0755) in its shard's root and
// returns the filesystem it landed on and the handle a CREATE or MKDIR
// reply would have carried.
func (p *Population) place(q *sim.Proc, fsOf func(fsid uint32) *ufs.FS, name string, dir bool) (*ufs.FS, nfsproto.FH, error) {
	root := workload.RootFor(p.Roots, name)
	fs := fsOf(root.FSID())
	if fs == nil {
		return nil, nfsproto.FH{}, fmt.Errorf("openload: populate: %s: nobody serves export %d", name, root.FSID())
	}
	var ino vfs.Ino
	var err error
	if dir {
		ino, err = fs.Mkdir(q, vfs.Ino(root.Ino()), name, 0755)
	} else {
		ino, err = fs.Create(q, vfs.Ino(root.Ino()), name, 0644)
	}
	var a vfs.Attr
	if err == nil {
		a, err = fs.GetAttr(q, ino)
	}
	if err != nil {
		return nil, nfsproto.FH{}, fmt.Errorf("openload: populate: %s: %w", name, err)
	}
	return fs, nfsproto.NewFH(root.FSID(), uint64(ino), a.Gen), nil
}

// Build is Populate's file half done over the wire through cli. The
// engine no longer calls it: it stays exported, unchanged, only because
// bench/drivers_stack.go compiles against it (ROADMAP, "bench/ catches
// up", moves that driver onto Populate and deletes this), and as the
// reference the image-equals-wire test holds Populate to.
func (p *Population) Build(q *sim.Proc, cli *client.Client) error {
	for i, name := range p.Names {
		cres, err := cli.Create(q, workload.RootFor(p.Roots, name), name, 0644)
		if err != nil || cres.Status != nfsproto.OK {
			return fmt.Errorf("openload: create %s: %v %v", name, err, cres)
		}
		fh := cres.File // copy: cres is client scratch, dead at the next RPC
		for b := 0; b < p.Blocks; b++ {
			if err := cli.WritePattern(q, fh, uint32(b*nfsproto.MaxData)); err != nil {
				return fmt.Errorf("openload: fill %s: %w", name, err)
			}
		}
		p.Files[i] = fh
	}
	return nil
}

// Pick selects a file index per the distribution.
func (p *Population) Pick(rng *rand.Rand) int {
	if p.cdf == nil {
		return rng.IntN(len(p.Files))
	}
	u := rng.Float64()
	return sort.SearchFloat64s(p.cdf, u)
}

// Config parameterizes one client's open-loop generator.
type Config struct {
	// Arrival is the process kind; Rate the per-client offered ops/s.
	Arrival string
	Rate    float64
	// BurstOn/BurstOff are the bursty process's mean dwell times.
	BurstOn  sim.Duration
	BurstOff sim.Duration
	// Mix is the op mix (zero value means the LADDIS mix).
	Mix workload.Mix
	// Window is the admission window (max ops in flight; default 8).
	Window int
	// QueueCap bounds the backlog (default 4x Window).
	QueueCap int
	// Deadline expires backlogged arrivals at dequeue (0 = never).
	Deadline sim.Duration
	// Measure bounds the arrival phase.
	Measure sim.Duration
	// Seed drives this generator's op/file/gap draws.
	Seed int64
}

// Result is one generator's honest accounting of an open-loop run.
type Result struct {
	// Offered counts arrivals emitted (admitted, backlogged or shed).
	Offered uint64
	// Completed counts operations actually issued and finished
	// (successfully or with an RPC error).
	Completed uint64
	// Errors counts completed operations that returned an error.
	Errors int
	// Shed counts arrivals dropped because the backlog was full.
	Shed uint64
	// Expired counts backlogged arrivals dequeued past the deadline and
	// never issued.
	Expired uint64
	// PeakQueue is the backlog high-water mark; PeakInFlight the
	// admission window's.
	PeakQueue    int
	PeakInFlight int
	// Lat streams arrival-to-completion latency (queue wait + service)
	// for successful ops into constant memory (mean/max/percentiles).
	Lat stats.Latency
	// PerOp counts completed operations by name, filled in when the
	// generator settles; nil if none completed.
	PerOp map[string]int
}

// task is one admitted arrival.
type task struct {
	at   sim.Time
	op   workload.Op
	file int
	off  uint32
}

// Gen is one client's open-loop generator.
type Gen struct {
	cfg     Config
	t       workload.Target // the client and pop's files
	pop     *Population
	backlog backlog
	rng     *rand.Rand
	res     Result
	perOp   workload.OpCounts // Result.PerOp until the generator settles

	// The arrival clock (Start): tick is synthetic, bound once and
	// re-armed with At until the window closes; due is the next arrival.
	sim    *sim.Sim
	tick   func()
	arr    Arrival
	due    sim.Time
	end    sim.Time
	closed bool
	// active counts the operations in flight: each holds an op record,
	// and admission dispatches only while it is below Window.
	active int
	finish func(*Result)
}

// NewGen builds a generator bound to one client over the shared
// population.
func NewGen(cli *client.Client, pop *Population, cfg Config) *Gen {
	if cfg.Mix == (workload.Mix{}) {
		cfg.Mix = workload.LADDISMix()
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.Window
	}
	t := workload.Target{Client: cli, Names: pop.Names, Files: pop.Files, Roots: pop.Roots}
	return &Gen{cfg: cfg, t: t, pop: pop}
}

// scratchName names the generator's private scratch directory (create
// and remove ops need a namespace that does not collide across clients).
func (g *Gen) scratchName() string { return "olscratch-" + g.t.Client.Name() }

// Setup creates the scratch directory with a MKDIR over the wire; the
// shared population must already be built. Populate does this for every
// generator without an RPC, and the engine no longer calls Setup: it
// stays exported, unchanged, for bench/drivers_stack.go (ROADMAP,
// "bench/ catches up", removes it with Build) and for the scenario tests
// that keep a concurrent mount storm as a bug-finder.
func (g *Gen) Setup(p *sim.Proc) error {
	sname := g.scratchName()
	mres, err := g.t.Client.Mkdir(p, workload.RootFor(g.pop.Roots, sname), sname, 0755)
	if err != nil || mres.Status != nfsproto.OK {
		return fmt.Errorf("openload: scratch mkdir: %v %v", err, mres)
	}
	g.t.Scratch = mres.File
	return nil
}

// CheckScratch GETATTRs the scratch directory over the wire and reports a
// handle the server does not honour as a directory. An RPC that gets no
// answer is not an error here: a cell's faults may have cut the path.
func (g *Gen) CheckScratch(p *sim.Proc) error {
	res, err := g.t.Client.Getattr(p, g.t.Scratch)
	if err != nil {
		return nil
	}
	if res.Status != nfsproto.OK || res.Attr.Type != nfsproto.TypeDir {
		return fmt.Errorf("openload: %s: server answered %v, type %v", g.scratchName(), res.Status, res.Attr.Type)
	}
	return nil
}

// Start opens the window on s now. A chain of events emits arrivals until
// Measure elapses; once in-flight and backlogged work has drained too,
// finish receives the accounting. It is the generator's own record,
// handed over by pointer, not a copy: its latency histogram is the one
// the operations recorded into.
func (g *Gen) Start(s *sim.Sim, finish func(*Result)) error {
	g.sim, g.finish = s, finish
	g.rng = newRand(g.cfg.Seed)
	g.backlog = backlog{pool: &g.pop.chunks, cap: g.cfg.QueueCap}
	arr, err := NewArrival(g.cfg.Arrival, g.cfg.Rate, g.cfg.BurstOn, g.cfg.BurstOff)
	if err != nil {
		return err
	}
	start := s.Now()
	g.arr, g.tick = arr, g.synthetic
	g.due, g.end = start.Add(arr.First(g.rng)), start.Add(g.cfg.Measure)
	g.tick()
	return nil
}

// newRand is a generator's arrival stream: a PCG (16 bytes of state,
// seeded in O(1)) with both halves from the seed, so consecutive client
// seeds differ in both. A client draws a handful of numbers in a short
// window; math/rand's lagged-Fibonacci source would cost 5,376 heap bytes
// and 1,841 serial seeding steps for them.
func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(seed)))
}

// Run is Start on p's simulation plus a wait: p blocks until the window
// has closed and the last operation has drained, and gets the accounting.
// The latency histogram is handed over with it: the generator keeps its
// counters but no longer holds the buckets.
func (g *Gen) Run(p *sim.Proc) (Result, error) {
	wake := p.Park()
	if err := g.Start(p.Sim(), func(*Result) { wake() }); err != nil {
		return Result{}, err
	}
	p.Block()
	res := g.res
	g.res.Lat = stats.Latency{}
	return res, nil
}

// QueueLen reports the current backlog depth (zero before Start).
func (g *Gen) QueueLen() int { return g.backlog.Len() }

// Counters reports (offered, shed) so far, for probes.
func (g *Gen) Counters() (offered, shed uint64) { return g.res.Offered, g.res.Shed }

// synthetic admits the mix-driven arrivals due by now and arms the clock
// for the next one. An arrival that would fall past the window instead
// advances the clock to the boundary, so the cell's quiesce stays tight,
// and closes the window there.
func (g *Gen) synthetic() {
	for {
		now := g.sim.Now()
		if at := min(g.due, g.end); at > now {
			g.sim.At(at.Sub(now), g.tick)
			return
		}
		if g.due >= g.end {
			g.closed = true
			g.settle()
			return
		}
		g.admit(g.nextTask(now))
		g.due = now.Add(g.arr.Gap(g.rng))
	}
}

// settle hands the accounting to Start's caller, once, when the window
// has closed and the last operation has ended: every backlogged arrival
// is executed or expired by the op records before they leave the window.
func (g *Gen) settle() {
	if g.closed && g.active == 0 && g.finish != nil {
		g.res.PeakQueue = g.backlog.peak
		if g.res.Completed > 0 {
			g.res.PerOp = g.perOp.Map()
		}
		finish := g.finish
		g.finish = nil
		finish(&g.res)
	}
}

// nextTask draws one synthetic arrival: op from the mix, file from the
// population, offset within the file.
func (g *Gen) nextTask(now sim.Time) task {
	r := g.rng.IntN(1 << 20)
	return task{
		at:   now,
		op:   g.cfg.Mix.Pick(r),
		file: g.pop.Pick(g.rng),
		off:  uint32((r/100)%g.pop.Blocks) * nfsproto.MaxData,
	}
}

// admit is the open-loop admission decision at one arrival instant:
// dispatch while the window has room, else backlog, else shed. It never
// delays the arrival clock.
func (g *Gen) admit(t task) {
	g.res.Offered++
	if g.active < g.cfg.Window {
		g.dispatch(t)
	} else if !g.backlog.Put(t) {
		g.res.Shed++
	}
}

// dispatch starts one admitted task on an op record from the population's
// pool (at most Window are live per generator), at the current instant
// after the work already scheduled for it, the slot a process spawned for
// the task would have started in.
func (g *Gen) dispatch(t task) {
	g.active++
	g.res.PeakInFlight = max(g.res.PeakInFlight, g.active)
	o := g.pop.ops
	if o != nil {
		g.pop.ops = o.next
		o.k.Bind(&g.t)
	} else {
		o = new(op)
		o.k = g.t.NewTask(o.done)
		o.startFn = o.start
	}
	o.g, o.t = g, t
	g.sim.At(0, o.startFn)
}

// op is one admitted operation in flight: no process, but a record whose
// continuations are bound once, pooled by the population that all of a
// cell's generators share, so a cell makes as many as it has operations
// in flight at once. After completing its task it keeps its place in its
// generator's window and chains through the backlog until the backlog is
// empty, then leaves it.
type op struct {
	g       *Gen
	t       task
	k       *workload.Task
	startFn func()
	next    *op // the population's free list
}

func (o *op) start() {
	g, t := o.g, o.t
	o.k.Go(t.op, workload.Draw{File: t.file, Off: t.off, Dir: t.file % len(g.t.Roots)})
}

// done records one operation's arrival-to-completion latency and takes
// the next live backlogged arrival, if any.
func (o *op) done(err error) {
	g := o.g
	now := g.sim.Now()
	g.res.Completed++
	g.perOp[o.t.op]++
	if err != nil {
		g.res.Errors++
	} else {
		g.res.Lat.Record(now.Sub(o.t.at))
	}
	if nt, ok := g.nextLive(now); ok {
		o.t = nt
		o.start()
		return
	}
	o.next, g.pop.ops = g.pop.ops, o
	g.active--
	g.settle()
}

// nextLive pulls backlogged arrivals, expiring the stale ones.
func (g *Gen) nextLive(now sim.Time) (task, bool) {
	for {
		t, ok := g.backlog.TryGet()
		if !ok {
			return task{}, false
		}
		if g.cfg.Deadline > 0 && now.Sub(t.at) > g.cfg.Deadline {
			g.res.Expired++
			continue
		}
		return t, true
	}
}
