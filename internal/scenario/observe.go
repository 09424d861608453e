// The scenario layer owns all observability wiring: the emission points
// (client, server, core, nvram, disk) carry nil-by-default hook fields
// and never import internal/obs; this file installs closures into those
// hooks when — and only when — the spec's Observe section asks for them.
// With Observe absent no hook is set, no sampler event is scheduled, and
// every recorded metric column stays byte-identical.
package scenario

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/nvram"
	"repro/internal/obs"
	"repro/internal/openload"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// probeColumns is the time-series probe catalog, in column order.
//
//	nfsd_queue        datagrams waiting in server inboxes (all shards)
//	cache_bufs        buffer-cache blocks resident (all shards)
//	nvram_dirty_pct   NVRAM write-cache fill, percent of capacity
//	disk_util_pct     spindle busy time over the sample window, percent
//	rpcs_outstanding  client RPCs issued and not yet answered
var probeColumns = []string{
	"nfsd_queue", "cache_bufs", "nvram_dirty_pct", "disk_util_pct", "rpcs_outstanding",
}

// probeCols is the cell's probe catalog: the fixed columns, plus — for
// bridged multi-segment topologies only — one windowed utilization
// column per segment and one queue-depth column per uplink bridge, in
// declaration order. Single-medium cells keep exactly the historical
// header, so recorded probe CSVs never change shape.
//
//	seg_<name>_util_pct   segment medium busy over the sample window, percent
//	bridge_<name>_queue   datagrams parked in the uplink bridge's output FIFOs
//
// Open-loop cells additionally get the overload-honesty gauges — the
// knee is visible live as ol_queue climbing while ol_shed starts
// counting:
//
//	ol_offered   arrivals emitted so far (admitted, backlogged or shed)
//	ol_shed      arrivals dropped at a full backlog so far
//	ol_queue     arrivals currently waiting in client backlogs
func probeCols(rc *resolved) []string {
	if len(rc.segments) == 0 && rc.kind != KindOpenload {
		return probeColumns
	}
	cols := append([]string(nil), probeColumns...)
	for _, sg := range rc.segments {
		cols = append(cols, "seg_"+sg.Name+"_util_pct")
	}
	for _, sg := range rc.segments {
		if sg.Uplink != "" {
			cols = append(cols, "bridge_"+sg.Name+"_queue")
		}
	}
	if rc.kind == KindOpenload {
		cols = append(cols, "ol_offered", "ol_shed", "ol_queue")
	}
	return cols
}

// cellObs is one cell's live observability plane: the trace buffer and
// probe series its hook closures feed. A nil *cellObs (Observe absent or
// empty) is valid and inert — every method guards it.
type cellObs struct {
	cfg    Observe
	trace  *obs.Trace
	series *obs.TimeSeries
	// openload marks the cell's probe header as carrying the ol_*
	// columns; gens are the live generators feeding them (set by the
	// runner before the sim starts; gauges read zero until then).
	openload bool
	gens     []*openload.Gen
}

// obsCaptureFn, when threaded into a run, receives every cell's live
// observer the moment its hooks are installed — before the workload runs
// — so a run that dies mid-cell still leaves its partial trace
// reachable. The fuzzer uses it to attach observability artifacts to
// panic-class repros; Run passes nil and is otherwise pure. It is a
// per-run parameter, not a package hook, so concurrent runs (the
// parallel engine, parallel fuzz workers) never see each other's cells.
type obsCaptureFn func(label string, ob *cellObs)

// newCellObs builds the cell's observer, or nil when the resolved spec
// enables no instrument.
func newCellObs(rc *resolved, capture obsCaptureFn) *cellObs {
	o := rc.observe
	if o == nil || (!o.Trace && !o.Probes && !o.Histograms) {
		return nil
	}
	ob := &cellObs{cfg: *o, openload: rc.kind == KindOpenload}
	if o.Trace {
		ob.trace = obs.NewTrace(rc.label, o.TraceMaxEvents)
	}
	if o.Probes {
		ob.series = obs.NewTimeSeries(rc.label, probeCols(rc)...)
	}
	if capture != nil {
		capture(rc.label, ob)
	}
	return ob
}

// histograms reports whether LADDIS generators should stream per-op
// latency histograms for this cell.
func (rc *resolved) histograms() bool {
	return rc.observe != nil && rc.observe.Histograms
}

// hookClient wires one client's RPC-completion hook: a span from issue
// to completion on the client's "rpc" track, with retransmission count
// and outcome. Calls unwound by a host crash never report (the client
// invokes the hook only on reply or final timeout).
func (ob *cellObs) hookClient(s *sim.Sim, idx int, cli *client.Client) {
	if ob == nil || ob.trace == nil {
		return
	}
	proc := fmt.Sprintf("client:c%d", idx)
	cli.OnRPC = func(op nfsproto.Proc, xid uint32, issued sim.Time, attempts int, ok bool) {
		var okv int64
		if ok {
			okv = 1
		}
		ob.trace.Span(proc, "rpc", op.String(), "rpc", issued, s.Now(),
			obs.Arg{Key: "xid", Val: int64(xid)},
			obs.Arg{Key: "attempts", Val: int64(attempts)},
			obs.Arg{Key: "ok", Val: okv})
	}
}

// hookServer wires one server build's spans: per-nfsd service spans with
// queueing delay, gather-batch commit spans, and NVRAM drain spans. The
// cluster re-invokes this on every reboot and adoption (the server and
// board objects are rebuilt per boot).
func (ob *cellObs) hookServer(srv *server.Server, pr *nvram.Presto) {
	if ob == nil || ob.trace == nil {
		return
	}
	proc := "server:" + srv.Name()
	srv.OnServe = func(nfsd int, op nfsproto.Proc, xid uint32, queued, start, end sim.Time) {
		ob.trace.Span(proc, fmt.Sprintf("nfsd%d", nfsd), op.String(), "nfs", start, end,
			obs.Arg{Key: "xid", Val: int64(xid)},
			obs.Arg{Key: "queue_us", Val: int64(start.Sub(queued))})
	}
	if eng := srv.Engine(); eng != nil {
		eng.OnCommit = func(ino vfs.Ino, batch int, start, end sim.Time) {
			ob.trace.Span(proc, "gather", "commit", "gather", start, end,
				obs.Arg{Key: "ino", Val: int64(ino)},
				obs.Arg{Key: "batch", Val: int64(batch)})
		}
	}
	if pr != nil {
		pr.OnDrain = func(blk int64, nblocks int, start, end sim.Time) {
			ob.trace.Span(proc, "nvram-drain", "drain", "nvram", start, end,
				obs.Arg{Key: "blk", Val: blk},
				obs.Arg{Key: "nblocks", Val: int64(nblocks)})
		}
	}
}

// hookDisk wires one spindle's transfer spans. The disk reports its
// service time with each completed op, so the span covers exactly the
// platter busy window.
func (ob *cellObs) hookDisk(s *sim.Sim, proc string, idx int, d *disk.Disk) {
	if ob == nil || ob.trace == nil {
		return
	}
	thread := fmt.Sprintf("disk%d", idx)
	d.OnOp = func(write bool, blk int64, n int, svc sim.Duration) {
		name := "read"
		if write {
			name = "write"
		}
		now := s.Now()
		ob.trace.Span(proc, thread, name, "disk", now.Add(-svc), now,
			obs.Arg{Key: "blk", Val: blk},
			obs.Arg{Key: "bytes", Val: int64(n)})
	}
}

// startProbes arms the periodic sampler: a self-rescheduling weak event
// that samples the probe catalog every SampleEvery. Weak events fire only
// while live ordinary work remains and are otherwise dropped without
// advancing the clock, so the chain ends by itself at the workload's
// natural quiesce — the run's final sim time is identical with and
// without the sampler. The sampler draws no randomness and acquires no
// resources, so enabling it never changes any other event's order.
// Servers, filesystems and boards are read off the nodes per sample (the
// cluster rebuilds them across reboots); spindles and clients are stable
// objects. A bridged fabric appends its columns (see probeCols).
func (ob *cellObs) startProbes(c *cluster.Cluster) {
	if ob == nil || ob.series == nil {
		return
	}
	s := c.Sim
	var disks []*disk.Disk
	for _, n := range c.Nodes {
		disks = append(disks, n.Disks...)
	}
	var lastBusy sim.Duration
	var lastT sim.Time
	var segNames []string
	var bridges []*netsim.Bridge
	var lastSegBusy []sim.Duration
	if c.Fabric != nil {
		segNames = c.Fabric.Names()
		bridges = c.Fabric.Bridges()
		lastSegBusy = make([]sim.Duration, len(segNames))
	}
	var tick func()
	tick = func() {
		now := s.Now()
		var queue, cache, outst int
		var used, capacity int
		for _, n := range c.Nodes {
			if !n.Down {
				queue += n.Server.Endpoint().Inbox.Len()
			}
			if n.FS != nil {
				cache += n.FS.CachedBufs()
			}
			if n.Presto != nil {
				used += n.Presto.CacheUsed()
				capacity += n.Presto.CacheBytes()
			}
		}
		var busy sim.Duration
		for _, d := range disks {
			busy += d.Stats().BusyTime
		}
		for _, cli := range c.Clients {
			outst += cli.PendingRPCs()
		}
		dirtyPct := 0.0
		if capacity > 0 {
			dirtyPct = 100 * float64(used) / float64(capacity)
		}
		utilPct := 0.0
		if window := now.Sub(lastT); window > 0 && len(disks) > 0 {
			utilPct = 100 * float64(busy-lastBusy) / float64(int64(window)*int64(len(disks)))
		}
		window := now.Sub(lastT)
		lastBusy, lastT = busy, now
		vals := []float64{float64(queue), float64(cache), dirtyPct, utilPct, float64(outst)}
		for i, name := range segNames {
			segBusy := c.Fabric.Segment(name).MediumBusy()
			segUtil := 0.0
			if window > 0 {
				segUtil = 100 * float64(segBusy-lastSegBusy[i]) / float64(window)
			}
			lastSegBusy[i] = segBusy
			vals = append(vals, segUtil)
		}
		for _, br := range bridges {
			depth := 0
			for _, bp := range br.Ports {
				depth += bp.QueueLen()
			}
			vals = append(vals, float64(depth))
		}
		if ob.openload {
			var off, shed uint64
			qlen := 0
			for _, g := range ob.gens {
				o, sh := g.Counters()
				off += o
				shed += sh
				qlen += g.QueueLen()
			}
			vals = append(vals, float64(off), float64(shed), float64(qlen))
		}
		ob.series.Sample(now, vals...)
		if ob.trace != nil {
			cols := ob.series.Cols
			for i, v := range vals {
				ob.trace.Counter("probes", cols[i], now, int64(v))
			}
		}
		s.AtWeak(ob.cfg.SampleEvery, tick)
	}
	s.AtWeak(ob.cfg.SampleEvery, tick)
}

// install wires clients, spindles and the sampler onto the cell's
// cluster. Server-side hooks ride cluster.Config.OnServerUp instead
// (runCell sets it to hookServer): the server and NVRAM objects are
// rebuilt on every reboot and adoption, and the hook re-fires for each
// new build.
func (ob *cellObs) install(c *cluster.Cluster) {
	if ob == nil {
		return
	}
	for i, cli := range c.Clients {
		ob.hookClient(c.Sim, i, cli)
	}
	for _, n := range c.Nodes {
		for i, d := range n.Disks {
			ob.hookDisk(c.Sim, "server:"+n.Name, i, d)
		}
	}
	ob.startProbes(c)
}

// setOpenload hands the sampler the cell's live generators. Nil-safe,
// like every cellObs method; before the generators' Run starts their
// gauges read zero, so early samples stay well-formed.
func (ob *cellObs) setOpenload(gens []*openload.Gen) {
	if ob == nil || ob.series == nil {
		return
	}
	ob.gens = gens
}

// finish hands the cell its collected artifacts.
func (ob *cellObs) finish(cr *CellResult) {
	if ob == nil {
		return
	}
	cr.Trace = ob.trace
	cr.Series = ob.series
}
