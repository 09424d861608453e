package scenario

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/openload"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Run validates the spec and executes every cell of its sweep, each on a
// fresh deterministic simulation of a cluster (one node with the paper
// boot for rig-assembly cells), returning the uniform result.
//
// Cells run on GOMAXPROCS workers (Ordered); every cell is an independent
// simulation with its own buffer ledger, and results are gathered in cell
// order, so the result — Render bytes included — is byte-identical at any
// worker count.
func Run(spec Spec) (*Result, error) {
	return runEngine(spec, runtime.GOMAXPROCS(0), nil)
}

// RunWorkers is Run with an explicit worker count (1 = in-line on the
// calling goroutine).
func RunWorkers(spec Spec, workers int) (*Result, error) {
	return runEngine(spec, workers, nil)
}

// runEngine resolves every cell up front (deterministic label/seed
// derivation, validation errors before any simulation runs), executes the
// cells, and gathers results in cell order. capture, when non-nil,
// receives each cell's live observer as its hooks are installed (the
// fuzzer's panic-survivable artifact path).
//
// Buffers outlive the cell, not the run: each worker owns a block.Arena,
// garbage when runEngine returns. A worker whose cell panicked is handed
// no further cell, so no cell runs on an arena a panicked cell forfeited
// buffers to.
//
// A cell may find a spec error only a run can find (runOpenload's
// fault-before-the-window check); that stops the sweep like a panic, and
// the lowest such cell's error comes back in place of the result, like
// the static ones.
func runEngine(spec Spec, workers int, capture obsCaptureFn) (*Result, error) {
	res := &Result{Name: spec.Name, Spec: spec}
	var rcs []*resolved
	for i, cell := range spec.cells() {
		rc, err := spec.resolve(cell, i)
		if err != nil {
			return nil, err
		}
		rcs = append(rcs, rc)
	}
	crs := make([]CellResult, len(rcs))
	ars := make([]*block.Arena, max(workers, 1))
	if k := Ordered(len(rcs), workers, func(w, i int) bool {
		if ars[w] == nil {
			ars[w] = block.NewArena()
		}
		crs[i] = runCellTimed(rcs[i], ars[w], capture)
		return crs[i].err != nil
	}); k < len(rcs) {
		return nil, crs[k].err
	}
	for i := range crs {
		crs[i].Label = rcs[i].label
		crs[i].Seed = rcs[i].cfg.Seed
	}
	res.Cells = crs
	return res, nil
}

// runCellTimed runs one cell on its own buffer ledger, born from the
// worker's arena (concurrent cells never perturb each other's
// accounting), and stamps the cell's real (host) execution time — harness
// observability for the parallel engine, never part of rendered or
// serialized output.
//
// The ledger retires when runCell returns, early (cr.err) or not. By then
// runCell's deferred Sim.Close has run, and that order is the rule: Close
// first, because the processes it unwinds still release references;
// retire second, never the reverse. A cell that panics never gets here and
// forfeits its buffers: a sim unwound by a panic may have a live holder.
func runCellTimed(rc *resolved, ar *block.Arena, capture obsCaptureFn) CellResult {
	t0 := time.Now()
	acct := ar.NewAccounting()
	cr := runCell(rc, acct, capture)
	acct.Retire()
	cr.Wall = time.Since(t0)
	return cr
}

// MustRun is Run for specs known valid (the registry, its edited copies).
func MustRun(spec Spec) *Result {
	res, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return res
}

// offered returns the per-client and aggregate LADDIS request rates.
func (r *resolved) offered(nclients int) (perClient, total float64) {
	if r.laddis.OfferedIsPerClient {
		return r.laddis.OfferedOpsPerSec, r.laddis.OfferedOpsPerSec * float64(nclients)
	}
	return r.laddis.OfferedOpsPerSec / float64(nclients), r.laddis.OfferedOpsPerSec
}

// laddisBarrier is the common measurement-start barrier: setup runs
// before it, every generator starts at it (the recorded figure and
// scale runs used the same 20 s instant).
const laddisBarrier = sim.Time(20 * sim.Second)

// aggregateLADDIS folds per-client points into the cell columns:
// throughput-weighted mean latency, worst-client p95.
func aggregateLADDIS(cr *CellResult, results []workload.LADDISResult) {
	var latSum, n float64
	var p95 float64
	for _, res := range results {
		cr.AchievedOpsPerSec += res.AchievedOpsPerSec
		latSum += res.AvgLatencyMs * res.AchievedOpsPerSec
		n += res.AchievedOpsPerSec
		if res.P95LatencyMs > p95 {
			p95 = res.P95LatencyMs
		}
		cr.Errors += res.Errors
	}
	if n > 0 {
		cr.AvgLatencyMs = latSum / n
	}
	cr.P95LatencyMs = p95
	cr.ClientResults = results
}

// runCell executes one cell on its own cluster, every pool of which
// charges acct: the cell's ledger, started at zero and charged by nothing
// else, so the leak audit below reads this sim's counters exactly. A
// rig-assembly cell is a one-node cluster with the paper boot.
func runCell(rc *resolved, acct *block.Accounting, capture obsCaptureFn) CellResult {
	ob := newCellObs(rc, capture)
	cfg := rc.cfg
	cfg.Acct = acct
	// Server-side hooks must follow the server object across reboots and
	// adoptions: the cluster re-announces every (re)built server.
	cfg.OnServerUp = ob.hookServer
	c := cluster.New(cfg)
	// Runs once cr has been copied out for the caller: what the unwinding
	// processes still touch is the cluster's, never the result's.
	defer c.Sim.Close()
	ob.install(c)
	var cr CellResult

	// Durability journal first, then the fault schedule, then the
	// workload: hook order fixes same-instant event order, and recorded
	// crash runs hooked in this order.
	var j *fault.Journal
	if rc.faults.CheckDurability {
		j = fault.NewJournal()
		for _, cli := range c.Clients {
			j.Attach(cli)
		}
	}
	var in *fault.Injector
	if len(rc.faults.Events) > 0 {
		in = fault.NewInjector(c)
		in.Journal = j
		for _, ev := range rc.faults.Events {
			in.Add(ev.Fault())
		}
		in.ScheduleAll()
	}

	switch rc.kind {
	case KindCopy:
		runCopy(rc, c, &cr)
	case KindLADDIS:
		runLADDIS(rc, c, &cr)
	case KindTrace:
		runTrace(rc, c, &cr)
	case KindStream:
		runStream(rc, c, &cr)
	case KindOpenload:
		runOpenload(rc, c, &cr, ob)
		if cr.err != nil {
			return cr // stopped mid-run: nothing to audit or report
		}
	}

	// A scheduled recovery that failed (remount error, adoption error)
	// means the run is not the experiment the spec declared; surfacing it
	// loudly beats reporting plausible-looking metrics from the wrong
	// scenario. Under scheduled storage faults a failed recovery is a
	// legitimate outcome (a persistent media error can defeat the mount
	// retries), so it is reported in the durability record instead.
	var recoveryFailures []string
	if in != nil && len(in.Failures) > 0 {
		if !rc.storageFaults {
			panic(fmt.Sprintf("scenario: fault recovery failed: %v", in.Failures))
		}
		for _, e := range in.Failures {
			recoveryFailures = append(recoveryFailures, e.Error())
		}
		if j != nil {
			// The unrecovered export's acked bytes are unreadable; the
			// scheduled storage fault makes that loss expected, and the
			// audit still counts every byte of it.
			j.NoteLossExpected("scheduled recovery failed under storage faults")
		}
	}

	// The audit phase runs after all workload and reboot activity; it
	// consumes simulated device time but is excluded from the measured
	// interval above. Injection rules the workload never consumed are
	// disarmed first — the audit must read what the platters hold, not
	// trip over a leftover rule.
	var check fault.CheckResult
	if in != nil {
		in.HealAll()
	}
	if j != nil {
		c.Sim.Spawn("verify", func(p *sim.Proc) { check = j.Verify(p, c) })
		c.Sim.Run(0)
	}
	if rc.kind != KindTrace { // a trace cell stops at its bound, mid-copy
		assertRPCLedger(c.Clients)
		assertWriteLedger(c.Nodes)
		assertDatagramLedger(c)
		assertBridgeLedger(c)
		assertHeadLedger(c)
	}
	assertPagesIntact(c.Pages)
	// Leak audit: after the quiesce above, the cell's outstanding block
	// references must all be attributable to long-lived stores. The
	// cell's ledger started at zero and nothing else charges it, so the
	// audit is exact — no baseline subtraction. A cell with a durability
	// record reports it there (the fuzzer's leak oracle reads it); any
	// other quiesced cell panics with the numbers.
	unaccounted := acct.TotalRefs() - c.AccountedRefs()
	if unaccounted != 0 && rc.kind != KindTrace && in == nil && j == nil {
		panic(fmt.Sprintf("scenario: block-reference ledger does not balance: %d references outstanding, %d accounted to long-lived stores",
			acct.TotalRefs(), c.AccountedRefs()))
	}

	for _, cli := range c.Clients {
		cr.Retransmissions += cli.Retransmissions
		cr.RebootsSeen += cli.RebootsSeen
	}
	if in != nil || j != nil {
		d := &Durability{
			Checked:              j != nil,
			AckedWrites:          check.AckedWrites,
			AckedBytes:           check.AckedBytes,
			LostBytes:            check.LostBytes,
			FirstLoss:            check.FirstLoss,
			BufferedWrites:       check.BufferedWrites,
			DroppedBuffered:      check.DroppedBuffered,
			DroppedBufferedBytes: check.DroppedBufferedBytes,
			UnackedBuffered:      check.UnackedBuffered,
			LossExpected:         check.ExpectedLoss,
			RecoveryFailures:     recoveryFailures,
		}
		if in != nil {
			d.Crashes = in.Crashes
			d.Reboots = in.Reboots
			d.ClientReboots = in.ClientReboots
			d.BiodsLost = in.BiodsLost
			d.Failovers = in.Failovers
			d.LinkOutages = in.LinkOutages
			d.StorageFaults = in.StorageFaults
			d.EventsFired = in.EventsFired
			if len(in.RecoveryTimes) > 0 {
				var sum sim.Duration
				for _, rt := range in.RecoveryTimes {
					sum += rt
				}
				d.MeanRecoveryMs = (sum / sim.Duration(len(in.RecoveryTimes))).Millis()
			}
		}
		for _, n := range c.Nodes {
			d.RecoveredNVRAMBlocks += n.RecoveredBlocks
			d.DroppedNVRAMBlocks += n.DroppedNVRAMBlocks
		}
		d.UnaccountedRefs = unaccounted
		cr.Durability = d
		cr.Crashes = d.Crashes
		cr.LostBytes = d.LostBytes
	}
	// Gather distributions: merge the current boot's engines (an engine
	// dies with its server on crash, so earlier boots are not included).
	var batch, commit stats.Histogram
	for _, n := range c.Nodes {
		if n.Server == nil {
			continue
		}
		if eng := n.Server.Engine(); eng != nil {
			batch.Merge(eng.BatchHist())
			commit.Merge(eng.CommitHist())
		}
	}
	cr.GatherBatch = summarize(&batch, 1)
	cr.GatherCommitMs = summarize(&commit, 1e-3)
	for _, n := range c.Nodes {
		for _, ex := range n.Exports {
			if ex.Server == nil {
				continue
			}
			cr.socketDrops += ex.Server.Endpoint().Drops()
			if eng := ex.Server.Engine(); eng != nil {
				st := eng.Stats()
				cr.hunterHits += st.HunterHits
				cr.adoptions += st.Adoptions
			}
		}
	}
	if cfg.PaperBoot {
		// The paper's server also reports its engine counters and endpoint
		// drops. Cluster cells never did, and their recorded bytes (the
		// fanin-5k sim_digest among them) pin that they still do not.
		srv := c.Nodes[0].Server
		if eng := srv.Engine(); eng != nil {
			cr.Gather = eng.Stats()
		}
		cr.Drops = srv.Endpoint().Drops()
	}
	if rc.bridged() {
		collectFabric(&cr, c.Fabric)
	}
	cr.SimTime = sim.Duration(c.Sim.Now())
	cr.Events, cr.Switches, cr.Carriers = c.Sim.EventsFired(), c.Sim.Switches(), c.Sim.Carriers()
	ob.finish(&cr)
	return cr
}

// intervalStats fills the cell's server columns from the interval the
// workload runner marked.
func intervalStats(c *cluster.Cluster, cr *CellResult) {
	st := c.IntervalStats()
	cr.CPUPercent, cr.CPUMaxPercent = st.CPUMeanPercent, st.CPUMaxPercent
	cr.DiskKBps, cr.DiskTps = st.DiskKBps, st.DiskTps
}

// collectFabric rolls the bridged fabric's wire and bridge counters into
// the cell: per-segment utilization and traffic in declaration order,
// per-bridge forward/drop/queue totals (ports summed), and the two
// aggregate columns. runCell calls it for bridged cells only, so a
// one-segment cell's fields stay zero and omitted.
func collectFabric(cr *CellResult, f *netsim.Fabric) {
	for _, name := range f.Names() {
		n := f.Segment(name)
		util := 100 * n.Utilization()
		cr.Segments = append(cr.Segments, SegmentStat{
			Name:          name,
			UtilPct:       util,
			Datagrams:     n.SentDatagrams,
			KBytes:        n.SentBytes / 1024,
			DropsLinkDown: n.DropsLinkDown,
			DropsNoDest:   n.DropsNoDest,
		})
		if util > cr.NetMaxUtilPct {
			cr.NetMaxUtilPct = util
		}
	}
	for _, br := range f.Bridges() {
		bs := BridgeStat{Name: br.Name}
		for _, bp := range br.Ports {
			bs.Forwarded += bp.Forwarded
			bs.DropsQueueFull += bp.DropsQueueFull()
			bs.DropsLinkDown += bp.DropsLinkDown()
			bs.DropsNoRoute += bp.DropsNoRoute
			if q := bp.PeakQueueLen(); q > bs.PeakQueue {
				bs.PeakQueue = q
			}
		}
		cr.BridgeDrops += bs.DropsQueueFull + bs.DropsLinkDown + bs.DropsNoRoute
		cr.Bridges = append(cr.Bridges, bs)
	}
}

// runCopy is the paper's case study: client 1 copies one file to shard 1,
// and the transfer is the measured interval.
func runCopy(rc *resolved, c *cluster.Cluster, cr *CellResult) {
	roots := c.Roots()
	size := rc.copyW.FileMB * 1024 * 1024
	c.Sim.Spawn("copy", func(p *sim.Proc) {
		// Create outside the measured interval, as the paper measures the
		// transfer.
		cres, err := c.Clients[0].Create(p, roots[0], "copy.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			panic(fmt.Sprintf("scenario: copy create: %v %v", err, cres))
		}
		c.MarkInterval()
		start := p.Now()
		if _, err := c.Clients[0].WriteFile(p, cres.File, size); err != nil {
			panic("scenario: copy: " + err.Error())
		}
		cr.Elapsed = p.Now().Sub(start)
	})
	c.Sim.Run(0)

	cr.ElapsedSec = cr.Elapsed.Seconds()
	cr.ClientKBps = float64(size) / 1024 / cr.Elapsed.Seconds()
	intervalStats(c, cr)
}

// runLADDIS drives one closed-loop LADDIS generator per client, its
// working set spread across the shards' roots.
func runLADDIS(rc *resolved, c *cluster.Cluster, cr *CellResult) {
	roots := c.Roots()
	nclients := len(c.Clients)
	perClient, total := rc.offered(nclients)

	gens := make([]*workload.LADDIS, nclients)
	results := make([]workload.LADDISResult, nclients)
	finished := 0
	for i, cli := range c.Clients {
		i, cli := i, cli
		gens[i] = workload.NewLADDIS(cli, roots[0], workload.LADDISConfig{
			Files:            rc.laddis.Files,
			FileBlocks:       rc.laddis.FileBlocks,
			OfferedOpsPerSec: perClient,
			Procs:            rc.laddis.Procs,
			Duration:         rc.laddis.Measure,
			Seed:             rc.laddis.Seed + int64(i),
			Roots:            roots,
			Histograms:       rc.histograms(),
		})
		c.Sim.Spawn(fmt.Sprintf("laddis-driver-%d", i), func(p *sim.Proc) {
			if err := gens[i].Setup(p); err != nil {
				panic("scenario: laddis setup: " + err.Error())
			}
			// Barrier: measurement starts together, well past setup. A
			// setup that overruns the barrier would silently skew the
			// interval stats (clients starting staggered, MarkInterval
			// mid-load), so it is a hard error: grow the barrier with the
			// working set, don't ignore it.
			wait := laddisBarrier.Sub(p.Now())
			if wait < 0 {
				panic(fmt.Sprintf("scenario: laddis setup for client %d ran %v past the %v barrier; working set too large for the barrier",
					i, -wait, sim.Duration(laddisBarrier)))
			}
			p.Sleep(wait)
			if i == 0 {
				c.MarkInterval()
			}
			results[i] = gens[i].Run(p)
			finished++
		})
	}
	c.Sim.Run(0)
	if finished != nclients {
		panic("scenario: laddis drivers did not finish")
	}

	cr.OfferedOpsPerSec = total
	aggregateLADDIS(cr, results)
	if rc.histograms() {
		fillQuantiles(cr, results)
	}
	cr.Elapsed = rc.laddis.Measure
	cr.ElapsedSec = cr.Elapsed.Seconds()
	intervalStats(c, cr)
}

// runTrace is Figure 1: client 1 streams a file to shard 1 while its
// write sends and replies, shard 1's platter transfers and its gather
// commits are logged, and the cell renders the log's window past the
// spec's offset.
func runTrace(rc *resolved, c *cluster.Cluster, cr *CellResult) {
	log := &trace.Log{}
	cli := c.Clients[0]
	node := c.Nodes[0]
	cli.OnWriteEvent = func(ev string, off uint32, n int) {
		switch ev {
		case "send":
			log.Add(c.Sim.Now(), "client", "8K Write off=%dK ->", off/1024)
		case "reply":
			log.Add(c.Sim.Now(), "client", "<- Write Reply off=%dK", off/1024)
		}
	}
	for i, d := range node.Disks {
		i, d := i, d
		// The observe plane may already own the hook; chain it so a traced
		// run can carry both the Figure 1 timeline and the span trace.
		prev := d.OnOp
		d.OnOp = func(write bool, blk int64, n int, svc sim.Duration) {
			if prev != nil {
				prev(write, blk, n, svc)
			}
			kind := "read"
			if write {
				kind = "write"
			}
			what := "data"
			if blk < 20 { // inode region of this filesystem
				what = "metadata"
			}
			log.Add(c.Sim.Now(), "disk", "%dK %s to disk (%s) [d%d]", n/1024, kind, what, i)
		}
	}

	// Mark gather commits via the engine's stats transitions: poll cheaply
	// from a watcher process.
	bound := sim.Time(rc.trace.Bound)
	if eng := node.Server.Engine(); eng != nil {
		c.Sim.Spawn("gather-watch", func(p *sim.Proc) {
			last := eng.Stats().Gathers
			for {
				p.Sleep(500 * sim.Microsecond)
				st := eng.Stats()
				if st.Gathers != last {
					log.Add(p.Now(), "server", "Gather commit #%d (batch so far %d writes)",
						st.Gathers, st.GatheredWrites)
					last = st.Gathers
				}
				if p.Now() > bound {
					return
				}
			}
		})
	}

	windowAfter := uint32(rc.trace.WindowAfterKB) * 1024
	var windowStart sim.Time
	root := c.Roots()[0]
	c.Sim.Spawn("copy", func(p *sim.Proc) {
		cres, err := cli.Create(p, root, "figure1.dat", 0644)
		if err != nil {
			panic("scenario: trace create: " + err.Error())
		}
		// Track when the transfer passes the window offset.
		inner := cli.OnWriteEvent
		cli.OnWriteEvent = func(ev string, off uint32, n int) {
			if windowStart == 0 && ev == "send" && off >= windowAfter {
				windowStart = p.Sim().Now()
			}
			inner(ev, off, n)
		}
		if _, err := cli.WriteFile(p, cres.File, rc.trace.FileKB*1024); err != nil {
			panic("scenario: trace copy: " + err.Error())
		}
	})
	c.Sim.Run(bound)

	mode := "Standard Server"
	if rc.cfg.Gathering {
		mode = "Gathering Server"
	}
	title := fmt.Sprintf("Figure 1 (%s): client with %d biods, sequential writer, >%dK into file",
		mode, rc.cfg.ClientGroups[0].Biods, rc.trace.WindowAfterKB)
	cr.TraceText = log.Render(title, windowStart, windowStart.Add(rc.trace.Window))
	cr.TraceLog = log
	cr.Elapsed = sim.Duration(c.Sim.Now())
	cr.ElapsedSec = cr.Elapsed.Seconds()
}

// runStream gives every client one sequential write stream, to shard 1 or
// (Shard) to shard i mod servers, measured end to end including outages.
func runStream(rc *resolved, c *cluster.Cluster, cr *CellResult) {
	roots := c.Roots()
	size := rc.stream.FileMB << 20
	done := 0
	failed := 0
	var bytesWritten int64
	for i, cli := range c.Clients {
		i, cli := i, cli
		root := roots[0]
		if rc.stream.Shard {
			root = roots[i%len(roots)]
		}
		pr := c.Sim.Spawn(fmt.Sprintf("stream-%d", i), func(p *sim.Proc) {
			name := fmt.Sprintf("stream-%d.dat", i)
			cres, err := cli.Create(p, root, name, 0644)
			if err != nil || cres.Status != nfsproto.OK {
				// Under scheduled storage faults an I/O-error reply (or
				// retry exhaustion against an unrecoverable shard) is a
				// legitimate outcome; the stream ends and is counted.
				if rc.storageFaults {
					cr.Errors++
					failed++
					return
				}
				panic(fmt.Sprintf("scenario: stream create: %v %v", err, cres))
			}
			if _, err := cli.WriteFile(p, cres.File, size); err != nil {
				if rc.storageFaults {
					cr.Errors++
					failed++
					return
				}
				panic("scenario: stream: " + err.Error())
			}
			bytesWritten += int64(size)
			done++
		})
		// The stream is part of its client host: a client-reboot fault
		// kills it with the workstation, and it does not restart.
		cli.AdoptApp(pr)
	}
	// elapsed covers the stream phase only: the durability audit also
	// consumes simulated device time and must not dilute the stream rate.
	elapsed := c.Sim.Run(0)
	killed := 0
	for _, cli := range c.Clients {
		killed += cli.AppsKilled()
	}
	if done+failed+killed != len(c.Clients) {
		panic("scenario: streams did not finish")
	}
	cr.Elapsed = sim.Duration(elapsed)
	cr.ElapsedSec = cr.Elapsed.Seconds()
	if cr.ElapsedSec > 0 {
		cr.ClientKBps = float64(bytesWritten) / 1024 / cr.ElapsedSec
	}
}

// assertSilentSetup is the open-loop runner's audit at the instant the
// window opens: set-up is an image built through ufs, so no client has
// issued or retransmitted an RPC, no segment or bridge of the fabric has
// carried or dropped a datagram, no
// running server's gathering engine has seen a write, and no filesystem
// holds a dirty block. Every counter the cell reports therefore covers the
// measured window and its drain, nothing before (and, of the lifetime
// ones, the closing check's one RPC after). A violation is a harness bug,
// so it panics, like the reference-leak audit.
func assertSilentSetup(c *cluster.Cluster) {
	bad := func(format string, args ...any) {
		panic("scenario: open-loop set-up was not silent: " + fmt.Sprintf(format, args...))
	}
	for _, cli := range c.Clients {
		if cli.Calls != 0 || cli.Retransmissions != 0 {
			bad("%s issued %d RPCs and retransmitted %d before the window opened",
				cli.Name(), cli.Calls, cli.Retransmissions)
		}
	}
	for _, br := range c.Fabric.Bridges() {
		for _, bp := range br.Ports {
			if drops := bp.DropsQueueFull() + bp.DropsLinkDown() + bp.DropsNoRoute; bp.Forwarded != 0 || drops != 0 {
				bad("bridge %s forwarded %d datagrams and dropped %d before the window opened",
					br.Name, bp.Forwarded, drops)
			}
		}
	}
	eachSegment(c, func(name string, n *netsim.Network) {
		if n.SentDatagrams != 0 || n.DropsNoDest != 0 || n.DropsLinkDown != 0 {
			bad("segment %s carried %d datagrams and dropped %d before the window opened",
				name, n.SentDatagrams, n.DropsNoDest+n.DropsLinkDown)
		}
	})
	for _, n := range c.Nodes {
		if n.Down { // a crash may land on the very instant the window opens
			continue
		}
		srv := n.Server
		if eng := srv.Engine(); eng != nil && eng.Stats().Writes != 0 {
			bad("%s's gathering engine saw %d writes before the window opened", srv.Name(), eng.Stats().Writes)
		}
		if d := srv.FS().DirtyBlocks(); d != 0 {
			bad("%s's image has %d dirty blocks at the instant the window opened", srv.Name(), d)
		}
	}
}

// assertOpenloadLedger is the open-loop identity at quiesce: every arrival
// a generator offered was completed, shed at a full backlog or expired in
// it — none is left in flight or lost. A violation is a harness bug, so it
// panics with the numbers.
func assertOpenloadLedger(clients []OpenloadClient) {
	for i, oc := range clients {
		if oc.Offered != oc.Completed+oc.Shed+oc.Expired {
			panic(fmt.Sprintf("scenario: open-loop ledger does not balance: client %d offered %d != completed %d + shed %d + expired %d",
				i, oc.Offered, oc.Completed, oc.Shed, oc.Expired))
		}
	}
}

// assertRPCLedger is the client identity at quiesce: every RPC a client
// issued was answered, timed out, or abandoned by a caller a kill unwound,
// and none is still registered. A call the books lose — a caller parked for
// good, an unwind that skipped the blocking driver's cleanup, a callback
// call whose continuation never fired — is a harness bug, so it panics
// with the numbers.
func assertRPCLedger(clients []*client.Client) {
	for _, cli := range clients {
		if n := cli.PendingRPCs(); cli.Calls != cli.Replied+cli.Timeouts+cli.Abandoned || n != 0 {
			panic(fmt.Sprintf("scenario: RPC ledger does not balance: %s issued %d != replied %d + timed out %d + abandoned %d, %d pending",
				cli.Name(), cli.Calls, cli.Replied, cli.Timeouts, cli.Abandoned, n))
		}
	}
}

// assertWriteLedger is the server identity at quiesce: every live server —
// each node's own and each export it adopted — owes no gathered WRITE
// reply, holds no detached transport handle, and has every parse record
// it made back in its pool (server.CheckWriteLedger). A crashed server's
// records die with it and are not audited. A violation is a server bug,
// so it panics with the numbers.
func assertWriteLedger(nodes []*cluster.Node) {
	for _, n := range nodes {
		if n.Down {
			continue
		}
		for _, ex := range n.Exports {
			if err := ex.Server.CheckWriteLedger(); err != nil {
				panic(fmt.Sprintf("scenario: write-descriptor ledger does not balance: %v", err))
			}
		}
	}
}

// assertDatagramLedger is the network identity at quiesce: on every
// segment, each datagram sent was delivered into a socket buffer or
// dropped for a counted cause (netsim.Network.CheckDatagrams). A datagram
// that vanished uncounted is a network bug, so it panics with the numbers
// and the segment's name.
func assertDatagramLedger(c *cluster.Cluster) {
	eachSegment(c, func(name string, n *netsim.Network) {
		if err := n.CheckDatagrams(); err != nil {
			panic(fmt.Sprintf("scenario: datagram ledger does not balance on segment %s: %v", name, err))
		}
	})
}

// assertBridgeLedger is the fabric's identity at quiesce: on every bridge
// port, each datagram received was forwarded, dropped for a counted cause
// (no route, queue full, link down) or is still queued
// (netsim.Bridge.CheckDatagrams). A violation panics naming the bridge and
// the port.
func assertBridgeLedger(c *cluster.Cluster) {
	for _, br := range c.Fabric.Bridges() {
		if err := br.CheckDatagrams(); err != nil {
			panic("scenario: bridge ledger does not balance: " + err.Error())
		}
	}
}

// assertHeadLedger is the wire-head identity at quiesce: the references
// held to heads carved on the cell's segments are exactly those the dup
// caches and the clients' kept replies hold (cluster.HeldHeads). A surplus
// is a head some path forgot to release, and a deficit a double release
// the slab did not catch; either panics with the numbers.
func assertHeadLedger(c *cluster.Cluster) {
	var wire int64
	eachSegment(c, func(_ string, n *netsim.Network) { wire += n.HeadRefs() })
	if held := c.HeldHeads(); wire != held {
		panic(fmt.Sprintf("scenario: head ledger does not balance: %d references to carved heads, %d held by dup caches and clients", wire, held))
	}
}

// assertPagesIntact is the payload identity: every pattern page the cell
// built still holds its pattern and the table's reference
// (client.Pages.Check), so no receiver wrote into a shared payload — not
// the buffer cache, NVRAM, a torn disk write or a lying NVRAM board. A
// violation panics naming the page.
func assertPagesIntact(t *client.Pages) {
	if err := t.Check(); err != nil {
		panic("scenario: " + err.Error())
	}
}

// eachSegment calls fn for every segment of the cell's fabric, in
// declaration order.
func eachSegment(c *cluster.Cluster, fn func(name string, n *netsim.Network)) {
	for _, name := range c.Fabric.Names() {
		fn(name, c.Fabric.Segment(name))
	}
}

// runOpenload drives the open-loop generators. Set-up is an image, not
// traffic: one process builds the shared population and every generator's
// scratch directory by calling ufs directly, the window opens at a shared
// barrier after it returns, and the cell aggregates the honest overload
// accounting — achieved vs offered throughput, shed/expired arrivals,
// peak backlog — plus full latency quantiles from the merged
// arrival-to-completion histograms. The interval statistics span the
// window's opening and the last generator's drain, and every generator's
// ledger must balance at quiesce (assertOpenloadLedger).
//
// The cell then closes with one RPC of its own: the last generator
// GETATTRs its scratch directory, the last object the image got, and the
// server must call the handle Populate minted a directory. Nothing else
// proves that over the wire in a cell whose window saw no arrival
// (bench/'s 1 ms set-up twins are such cells, and read model.p99_ms off
// their RPC spans). It follows the interval statistics, so no rate or
// utilisation the cell reports covers it. A cell whose faults take a
// server or its storage away skips it.
func runOpenload(rc *resolved, c *cluster.Cluster, cr *CellResult, ob *cellObs) {
	s := c.Sim
	w := rc.open
	nclients := len(c.Clients)

	pop, err := openload.NewPopulation(w.Files, w.FileBlocks, w.Population, w.ZipfS, c.Roots())
	if err != nil {
		panic("scenario: openload population: " + err.Error())
	}

	var mix workload.Mix
	if w.Mix == MixMetadata {
		mix = workload.MetadataMix()
	} else {
		mix = workload.LADDISMix()
	}

	gens := make([]*openload.Gen, nclients)
	results := make([]*openload.Result, nclients)
	for i, cli := range c.Clients {
		gens[i] = openload.NewGen(cli, pop, openload.Config{
			Arrival:  w.Arrival,
			Rate:     w.TargetOps / float64(nclients),
			BurstOn:  w.BurstOn,
			BurstOff: w.BurstOff,
			Mix:      mix,
			Window:   w.Window,
			QueueCap: w.QueueCap,
			Deadline: w.Deadline,
			Measure:  w.Measure,
			Seed:     w.Seed + int64(i),
		})
	}
	finished := 0
	ev, field, imageFault := rc.firstImageFault()
	// The window opens at a shared barrier, like the closed-loop runners':
	// the first whole second at or after both the 20s mark and the instant
	// the image is built (serial synchronous directory updates take 425
	// simulated seconds for bridgedsat's 5000 scratch directories). The
	// instant is a function of the cell's own deterministic history, so
	// reruns and any -j agree on it. The generators start there, in client
	// order, as events: an arrival clock is no process.
	barrier := sim.Time(0)
	s.Spawn("openload-populate", func(p *sim.Proc) {
		if err := pop.Populate(p, c.FSByFSID, gens); err != nil {
			panic("scenario: openload set-up: " + err.Error())
		}
		barrier = laddisBarrier
		if late := p.Now().Sub(barrier); late > 0 {
			barrier = barrier.Add((late + sim.Second - 1) / sim.Second * sim.Second)
		}
		for i := range gens {
			s.At(barrier.Sub(p.Now()), func() {
				if i == 0 {
					cr.setupEvents = s.EventsFired()
					assertSilentSetup(c)
					c.MarkInterval()
				}
				err := gens[i].Start(s, func(res *openload.Result) {
					results[i] = res
					finished++
				})
				if err != nil {
					panic("scenario: openload run: " + err.Error())
				}
			})
		}
	})
	ob.setOpenload(gens)
	// A fault that takes a server or its storage away must find the image
	// built and the window open: stop short of the first one and look. It
	// is the one spec error only a run can find (a large population pushes
	// the window past an instant validation accepted); the cell stops here
	// and runEngine returns the error.
	if imageFault {
		at := sim.Time(ev.Fault().Start())
		s.Run(at - 1)
		switch {
		case barrier == 0:
			cr.err = imageFaultError(field, ev, "the image was still half-built then")
			return
		case at < barrier:
			cr.err = imageFaultError(field, ev, fmt.Sprintf("it opened at %v", sim.Duration(barrier)))
			return
		}
	}
	s.Run(0)
	if finished != nclients {
		panic("scenario: openload generators did not finish")
	}
	intervalStats(c, cr)
	if !imageFault {
		s.Spawn("openload-close", func(p *sim.Proc) {
			if err := gens[nclients-1].CheckScratch(p); err != nil {
				panic("scenario: openload closing check: " + err.Error())
			}
		})
		s.Run(0)
	}

	var all stats.Histogram
	var completed uint64
	var latSumUs float64
	var latN int
	cr.OpenloadClients = make([]OpenloadClient, 0, nclients)
	for _, res := range results {
		completed += res.Completed
		cr.Errors += res.Errors
		cr.ShedArrivals += res.Shed
		cr.ExpiredOps += res.Expired
		if res.PeakQueue > cr.PeakQueue {
			cr.PeakQueue = res.PeakQueue
		}
		latSumUs += float64(res.Lat.Mean()) * float64(res.Lat.N())
		latN += res.Lat.N()
		all.Merge(res.Lat.Hist())
		cr.OpenloadClients = append(cr.OpenloadClients, OpenloadClient{
			Offered:      res.Offered,
			Completed:    res.Completed,
			Errors:       res.Errors,
			Shed:         res.Shed,
			Expired:      res.Expired,
			PeakQueue:    res.PeakQueue,
			PeakInFlight: res.PeakInFlight,
			PerOp:        res.PerOp,
		})
	}
	assertOpenloadLedger(cr.OpenloadClients)
	cr.Elapsed, cr.ElapsedSec = w.Measure, w.Measure.Seconds()
	cr.OfferedOpsPerSec = w.TargetOps
	cr.AchievedOpsPerSec = float64(completed) / cr.ElapsedSec
	// The latency histogram stores sim.Duration ticks (microseconds).
	const usPerMs = 1000.0
	if latN > 0 {
		cr.AvgLatencyMs = latSumUs / float64(latN) / usPerMs
	}
	if all.N() > 0 {
		cr.P50LatencyMs = all.Quantile(0.50) / usPerMs
		cr.P90LatencyMs = all.Quantile(0.90) / usPerMs
		cr.P95LatencyMs = all.Quantile(0.95) / usPerMs
		cr.P99LatencyMs = all.Quantile(0.99) / usPerMs
		cr.P999LatencyMs = all.Quantile(0.999) / usPerMs
	}
}
