package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The paper's qualitative claims, checked on the registry's own specs.

// copyTable runs the named registry table at 4 MB (a smaller file, the
// same steady-state rates) and returns its halves in biod order.
func copyTable(t *testing.T, name string) (wo, wi []*CellResult) {
	t.Helper()
	table, _ := Find(name)
	spec := table.Build()
	spec.Workload.Copy.FileMB = 4
	res := MustRun(spec)
	t.Log("\n" + table.Render(res))
	_, halves := res.Families()
	return halves["std"], halves["wg"]
}

// copyCell runs one cell of the named registry table.
func copyCell(name string, fileMB, biods int, gathering bool) CellResult {
	spec, _ := Lookup(name)
	spec.Workload.Copy.FileMB = fileMB
	spec.Cells = []Cell{CopyCell(biods, gathering)}
	return MustRun(spec).Cells[0]
}

// TestCalibrationTable1Shape checks the qualitative shape of Table 1
// against the paper: without gathering throughput is flat and
// spindle-bound (~165-205 KB/s band); with gathering it scales with biods
// and the 15-biod case is several times faster; disk transactions per
// second drop sharply; 0 biods loses modestly.
func TestCalibrationTable1Shape(t *testing.T) {
	wo, wi := copyTable(t, "table1")
	last := len(wo) - 1
	// Flat without gathering: 15-biod within 35% of 0-biod.
	if wo[last].ClientKBps > wo[0].ClientKBps*1.35 {
		t.Errorf("no-gather curve not flat: %v vs %v", wo[0].ClientKBps, wo[last].ClientKBps)
	}
	// Gathering at 15 biods at least 2x the standard server.
	if wi[last].ClientKBps < 2*wo[last].ClientKBps {
		t.Errorf("gathering gain too small: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	// Zero-biod penalty: gathering slower but not catastrophically.
	if wi[0].ClientKBps >= wo[0].ClientKBps {
		t.Errorf("0-biod gathering should lose: %v vs %v", wi[0].ClientKBps, wo[0].ClientKBps)
	}
	// Disk transaction rate collapses with gathering at high biods.
	if wi[last].DiskTps > 0.6*wo[last].DiskTps {
		t.Errorf("disk trans/s did not drop: %v vs %v", wi[last].DiskTps, wo[last].DiskTps)
	}
}

func TestCalibrationTable2Shape(t *testing.T) {
	wo, wi := copyTable(t, "table2")
	last := len(wo) - 1
	// Presto without gathering is much faster than plain disk (compare
	// against the known plain-disk band, ~200 KB/s).
	if wo[last].ClientKBps < 500 {
		t.Errorf("Presto no-gather too slow: %v", wo[last].ClientKBps)
	}
	// With gathering: lower CPU per unit of work at modest throughput cost.
	cpuPerKB := func(c *CellResult) float64 { return c.CPUPercent / c.ClientKBps }
	if cpuPerKB(wi[2]) >= cpuPerKB(wo[2]) {
		t.Errorf("gathering did not improve CPU efficiency under Presto: %v vs %v",
			cpuPerKB(wi[2]), cpuPerKB(wo[2]))
	}
	if wi[last].ClientKBps > wo[last].ClientKBps {
		t.Logf("note: gathering beat standard under Presto (paper shows a modest loss)")
	}
}

// TestCalibrationTable3Shape: FDDI, plain disk. Paper: without gathering
// the curve is utterly flat (~207-209 KB/s, spindle-bound); with gathering
// it scales to ~1085 KB/s at 15 biods (5x), with low CPU throughout.
func TestCalibrationTable3Shape(t *testing.T) {
	wo, wi := copyTable(t, "table3")
	last := len(wo) - 1
	if wo[last].ClientKBps > wo[0].ClientKBps*1.25 {
		t.Errorf("FDDI no-gather curve not flat: %v -> %v", wo[0].ClientKBps, wo[last].ClientKBps)
	}
	if wi[last].ClientKBps < 3*wo[last].ClientKBps {
		t.Errorf("FDDI gathering gain < 3x: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	if wi[0].ClientKBps >= wo[0].ClientKBps {
		t.Errorf("0-biod gathering should lose: %v vs %v", wi[0].ClientKBps, wo[0].ClientKBps)
	}
}

// TestCalibrationTable4Shape: FDDI + Presto. Paper: without gathering the
// client runs at near raw-device speed (~1.9 MB/s) flat; gathering matches
// it at >=3 biods while halving CPU; at 0 biods gathering halves speed.
func TestCalibrationTable4Shape(t *testing.T) {
	wo, wi := copyTable(t, "table4")
	last := len(wo) - 1
	// Much faster than plain-disk FDDI (~210).
	if wo[last].ClientKBps < 800 {
		t.Errorf("Presto FDDI no-gather too slow: %v", wo[last].ClientKBps)
	}
	// Gathering catches up at high biod counts (within 25%).
	if wi[last].ClientKBps < 0.75*wo[last].ClientKBps {
		t.Errorf("gathering at 15 biods too slow: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	// And saves CPU.
	if wi[last].CPUPercent >= wo[last].CPUPercent {
		t.Errorf("gathering did not save CPU: %v vs %v", wi[last].CPUPercent, wo[last].CPUPercent)
	}
}

// TestCalibrationTable5Shape: FDDI + 3-disk stripe. Paper: without
// gathering ~200-313 KB/s; with gathering it keeps scaling with biods
// (1618 KB/s at 23 biods, 5x) because striping lifts the spindle ceiling.
func TestCalibrationTable5Shape(t *testing.T) {
	wo, wi := copyTable(t, "table5")
	last := len(wo) - 1
	if wi[last].ClientKBps < 3*wo[last].ClientKBps {
		t.Errorf("stripe gathering gain < 3x: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	// The stripe must beat the single-disk gathering ceiling (Table 3 tops
	// out near the single spindle's sequential bandwidth).
	single := copyCell("table3", 10, 23, true)
	if wi[last].ClientKBps <= single.ClientKBps {
		t.Errorf("stripe (%v) did not beat single disk (%v)", wi[last].ClientKBps, single.ClientKBps)
	}
	// More biods keep helping with gathering.
	if wi[last].ClientKBps <= wi[2].ClientKBps {
		t.Errorf("gathering stopped scaling: %v -> %v", wi[2].ClientKBps, wi[last].ClientKBps)
	}
}

// TestCalibrationTable6Shape: FDDI + Presto + stripe. Paper: standard hits
// ~3.4-3.5 MB/s; gathering reaches ~3 MB/s (-10-20%) with ~40% less CPU.
func TestCalibrationTable6Shape(t *testing.T) {
	wo, wi := copyTable(t, "table6")
	last := len(wo) - 1
	if wo[last].ClientKBps < 1.5*copyCell("table4", 10, 15, false).ClientKBps {
		t.Logf("note: stripe+Presto standard not much faster than single+Presto")
	}
	if wi[last].CPUPercent >= wo[last].CPUPercent {
		t.Errorf("gathering did not save CPU: %v vs %v", wi[last].CPUPercent, wo[last].CPUPercent)
	}
	if wi[last].ClientKBps < 0.6*wo[last].ClientKBps {
		t.Errorf("gathering throughput collapse: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
}

func TestRunCopySmall(t *testing.T) {
	c := copyCell("table1", 1, 3, true)
	if c.ClientKBps <= 0 || c.Elapsed <= 0 {
		t.Fatalf("result = %+v", c.Metrics)
	}
	if c.Gather.Writes != 128 {
		t.Fatalf("gather writes = %d, want 128 (1MB/8K)", c.Gather.Writes)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := copyCell("table3", 1, 7, true)
	b := copyCell("table3", 1, 7, true)
	if a.ClientKBps != b.ClientKBps || a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic experiment: %v vs %v", a.Metrics, b.Metrics)
	}
}

// figure1Small runs the registry's Figure 1 on a 160 KB file (seed 3) and
// returns the standard and gathering cells.
func figure1Small() (std, wg CellResult) {
	spec, _ := Lookup("figure1")
	spec.Seed = 3
	spec.Workload.Trace.FileKB = 160
	res := MustRun(spec)
	return res.Cells[0], res.Cells[1]
}

func diskOps(log *trace.Log) int {
	n := 0
	for k, v := range log.Summary(0, 1<<62) {
		if strings.HasPrefix(k, "disk:") {
			n += v
		}
	}
	return n
}

func TestFigure1ProducesTimeline(t *testing.T) {
	_, wg := figure1Small()
	if !strings.Contains(wg.TraceText, "Gathering Server") {
		t.Fatalf("title missing:\n%.200s", wg.TraceText)
	}
	if wg.TraceLog.Summary(0, 1<<62)["client:8K"] == 0 {
		t.Fatal("no client writes in trace")
	}
	if diskOps(wg.TraceLog) == 0 {
		t.Fatal("no disk ops in trace")
	}
}

func TestFigure1GatheringReducesDiskOps(t *testing.T) {
	std, wg := figure1Small()
	sOps, gOps := diskOps(std.TraceLog), diskOps(wg.TraceLog)
	if gOps >= sOps {
		t.Fatalf("gathering disk ops %d not below standard %d", gOps, sOps)
	}
	// Figure 1's point: roughly 3N -> N.
	if float64(sOps) < 2*float64(gOps) {
		t.Fatalf("reduction below 2x: %d vs %d", sOps, gOps)
	}
}

// TestFigure1OnTheCluster runs the trace workload on the cluster boot,
// which it could not before there was one assembly. The transfer still
// traces end to end and gathering still cuts the disk ops; the log also
// holds the boot's image flush, which the paper boot never writes.
func TestFigure1OnTheCluster(t *testing.T) {
	spec, _ := Lookup("figure1")
	spec.Seed = 3
	spec.Workload.Trace.FileKB = 160
	spec.Topology.Assembly = AssemblyCluster
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	std, wg := res.Cells[0], res.Cells[1]
	if !strings.Contains(wg.TraceText, "Gathering Server") || wg.TraceLog.Summary(0, 1<<62)["client:8K"] == 0 {
		t.Fatalf("no traced transfer:\n%.300s", wg.TraceText)
	}
	if sOps, gOps := diskOps(std.TraceLog), diskOps(wg.TraceLog); gOps >= sOps {
		t.Errorf("gathering disk ops %d not below standard %d", gOps, sOps)
	}
	paperStd, _ := figure1Small()
	if got, paper := diskOps(std.TraceLog), diskOps(paperStd.TraceLog); got <= paper {
		t.Errorf("the cluster boot logged %d disk ops, the paper boot %d; the image flush is missing", got, paper)
	}
}

// TestLADDISCurveCapacity pins the Figures 2-3 capacity line: per build,
// the highest achieved rate among the points at or under 50 ms.
func TestLADDISCurveCapacity(t *testing.T) {
	res := &Result{}
	for _, p := range []struct{ offered, achieved, ms float64 }{
		{100, 100, 10}, {200, 200, 40}, {300, 250, 90},
	} {
		for _, gathering := range []bool{false, true} {
			c := CellResult{Label: LADDISCell(0, p.offered, gathering).Label}
			c.OfferedOpsPerSec, c.AchievedOpsPerSec, c.AvgLatencyMs = p.offered, p.achieved, p.ms
			if gathering {
				c.AchievedOpsPerSec *= 2
			}
			res.Cells = append(res.Cells, c)
		}
	}
	want := "capacity @50ms: without=200 ops/s (40.0 ms)  with=400 ops/s (40.0 ms)  delta=+100.0%\n"
	if out := renderFigure(res); !strings.HasSuffix(out, want) {
		t.Fatalf("capacity line:\n%s\nwant suffix %q", out, want)
	}
}

// TestScaleSweepSmoke runs one grid cell end to end: two clients sharded
// across two servers with gathering on must move load on every shard
// without errors.
func TestScaleSweepSmoke(t *testing.T) {
	spec, _ := Lookup("scale")
	spec.Workload.LADDIS.Measure = 1 * sim.Second
	spec.Cells = []Cell{ScaleCell(spec.Seed, 2, 2, true)}
	cell := MustRun(spec).Cells[0]
	if cell.AchievedOpsPerSec <= 0 {
		t.Fatalf("cell achieved no throughput: %+v", cell.Metrics)
	}
	if cell.Errors != 0 {
		t.Fatalf("cell had %d op errors", cell.Errors)
	}
	if cell.AvgLatencyMs <= 0 {
		t.Fatalf("cell recorded no latency: %+v", cell.Metrics)
	}
	t.Logf("%s: %.1f ops/s, %.2f ms avg, cpu %.1f%%/%.1f%%",
		cell.Label, cell.AchievedOpsPerSec, cell.AvgLatencyMs, cell.CPUPercent, cell.CPUMaxPercent)
}

// TestCrashRecoveryDurability is the acceptance gate: zero acked-write
// loss with gathering on, with and without Presto.
func TestCrashRecoveryDurability(t *testing.T) {
	crash, _ := Find("crash")
	spec := crash.Build()
	if testing.Short() {
		spec.Faults.Events[0].ServerCrash.Count = 1
		spec.Workload.Stream.FileMB = 1
	}
	res := MustRun(spec)
	for _, c := range res.Cells {
		d := c.Durability
		if d.LostBytes != 0 {
			t.Fatalf("%s: %d acked bytes lost (%s)", c.Label, d.LostBytes, d.FirstLoss)
		}
		if d.Crashes == 0 || d.Reboots != d.Crashes {
			t.Fatalf("%s: crashes=%d reboots=%d", c.Label, d.Crashes, d.Reboots)
		}
		if d.AckedWrites == 0 {
			t.Fatalf("%s: empty journal", c.Label)
		}
		if c.RebootsSeen == 0 {
			t.Errorf("%s: clients never detected the reboot", c.Label)
		}
	}
	t.Logf("\n%s", crash.Render(res))
}

// TestAblations probes the design choices the paper discusses, each as a
// 2 MB FDDI copy with 7 biods (seed 313) under one engine policy:
//
//   - reply order (§6.7): FIFO vs the abandoned LIFO;
//   - the procrastination interval (§6.6): the paper derived 8 ms/5 ms
//     empirically and admits "I wish I could say I know how to calculate
//     the right number";
//   - the [SIVA93] first-write-as-latency-device policy (§6.6);
//   - the mbuf hunter (§6.5), at 8 nfsds and at one;
//   - reply order again under Presto, where it engages;
//   - gathering with a single nfsd (§6.1's claim that the architecture
//     achieves optimal gathering with as few as one daemon).
//
// It logs every row (go test -run Ablation -v ./internal/scenario) with
// the engine's counters, and asserts what the rows share: every gathering
// policy gathers (batch mean >= 2, the single nfsd included) and beats the
// standard server — all but a lone nfsd without the hunter, which has no
// second daemon to hand a write to and no probe to find one. It also
// pins where the hunter and reply order engage. The hunter probes the
// socket buffer only when no other nfsd is mid-write on the file, and at
// 8 nfsds an idle one has always taken the queued write first: the
// 8-nfsd hunter rows never fire it and are equal. At one nfsd every
// queued write waits for the lone daemon, the hunter fires, and it is
// what gathers ("1 nfsd beats 8" is the hunter at work). Reply order
// moves nothing on plain disk and moves the Presto copy.
//
// The procrastination rows run with the trace on, and pin why 8 nfsds
// gather a batch mean of 4 below 8 ms: a burst's 8 WRITEs reach the server
// as a train one FDDI datagram time (757 µs) apart, 5.30 ms from first to
// last, and the commit takes the writes that arrived within the sleep, 1 +
// ⌊P / 757 µs⌋ of them; the rest make a second commit. The mean of the
// pair is 4 at 0, 1, 2 and 5 ms (1+7, 2+6, 3+5, 7+1), not two halves.
func TestAblations(t *testing.T) {
	type row struct {
		label  string
		policy *core.Config // nil: the standard server
		presto bool
		nfsds  int
	}
	procrastinate := hw.FDDI().Procrastinate
	policy := func(presto bool, wait sim.Duration, edit func(*core.Config)) *core.Config {
		cfg := core.DefaultConfig(presto, wait)
		if edit != nil {
			edit(&cfg)
		}
		return &cfg
	}
	paper := policy(false, procrastinate, nil)
	hunterPlain, hunterPresto := "mbuf hunter, plain disk (§6.5)", "mbuf hunter, Presto (§6.5)"
	lonePlain, lonePresto := "mbuf hunter, 1 nfsd, plain disk (§6.5)", "mbuf hunter, 1 nfsd, Presto (§6.5)"
	replyPresto := "Reply order, Presto (§6.7)"
	groups := []struct {
		title string
		rows  []row
	}{
		{"Reply order (§6.7)", []row{
			{"FIFO replies (paper)", paper, false, 8},
			{"LIFO replies (abandoned)", policy(false, procrastinate, func(c *core.Config) { c.LIFOReplies = true }), false, 8},
		}},
		{"Procrastination interval (§6.6)", nil},
		{"Latency device policy (§6.6 / SIVA93)", []row{
			{"procrastinate (paper)", paper, false, 8},
			{"first-write latency [SIVA93]", policy(false, procrastinate, func(c *core.Config) { c.FirstWriteLatency = true }), false, 8},
			{"standard server", nil, false, 8},
		}},
		{hunterPlain, []row{
			{"mbuf hunter on (paper)", paper, false, 8},
			{"mbuf hunter off", policy(false, procrastinate, func(c *core.Config) { c.MbufHunter = false }), false, 8},
		}},
		{hunterPresto, []row{
			{"mbuf hunter on (paper)", policy(true, procrastinate, nil), true, 8},
			{"mbuf hunter off", policy(true, procrastinate, func(c *core.Config) { c.MbufHunter = false }), true, 8},
		}},
		{lonePlain, []row{
			{"mbuf hunter on (paper)", paper, false, 1},
			{"mbuf hunter off", policy(false, procrastinate, func(c *core.Config) { c.MbufHunter = false }), false, 1},
		}},
		{lonePresto, []row{
			{"mbuf hunter on (paper)", policy(true, procrastinate, nil), true, 1},
			{"mbuf hunter off", policy(true, procrastinate, func(c *core.Config) { c.MbufHunter = false }), true, 1},
		}},
		{replyPresto, []row{
			{"FIFO replies (paper)", policy(true, procrastinate, nil), true, 8},
			{"LIFO replies (abandoned)", policy(true, procrastinate, func(c *core.Config) { c.LIFOReplies = true }), true, 8},
		}},
		{"nfsd pool size (§6.1)", []row{
			{"8 nfsds", paper, false, 8},
			{"1 nfsd", paper, false, 1},
		}},
	}
	// The interval rows, in ms, go in groups[procrastination].
	const procrastination = 1
	procrastinations := []int{0, 1, 2, 5, 8, 12, 20}
	for _, ms := range procrastinations {
		groups[procrastination].rows = append(groups[procrastination].rows, row{
			fmt.Sprintf("procrastinate %dms", ms),
			policy(false, sim.Duration(ms)*sim.Millisecond, func(c *core.Config) {
				if ms == 0 {
					c.MaxProcrastinations = 0
				}
			}), false, 8,
		})
	}

	// run runs one row; traced, it also returns the cell's trace.
	run := func(r row, traced bool) (c CellResult, batch float64, tr *obs.Trace) {
		spec := Copy("ablation", "", "fddi", r.presto, 1, 1.8, 2, r.policy)
		spec.Topology.Servers.Nfsds = r.nfsds
		cell, seed := CopyCell(7, r.policy != nil), int64(313)
		cell.Seed = &seed
		spec.Cells = []Cell{cell}
		var capture obsCaptureFn
		if traced {
			spec.Observe = &Observe{Trace: true}
			capture = func(_ string, ob *cellObs) { tr = ob.trace }
		}
		res, err := runEngine(spec, 1, capture)
		if err != nil {
			t.Fatal(err)
		}
		c = res.Cells[0]
		if c.Gather.Gathers > 0 {
			batch = float64(c.Gather.GatheredWrites) / float64(c.Gather.Gathers)
		}
		return c, batch, tr
	}
	standard, _, _ := run(row{nfsds: 8}, false)
	got := map[string][]CellResult{} // group title -> its rows' cells
	for gi, g := range groups {
		out := fmt.Sprintf("%s\n  %-32s %8s %6s %8s %6s %4s %6s %8s %6s\n", g.title, "",
			"KB/s", "cpu %", "disk t/s", "batch", "max", "hits", "handoffs", "sleeps")
		for ri, r := range g.rows {
			c, batch, tr := run(r, gi == procrastination)
			if tr != nil {
				checkWriteTrain(t, r.label, procrastinations[ri], tr)
			}
			gs := c.Gather
			out += fmt.Sprintf("  %-32s %8.0f %6.1f %8.0f %6.2f %4d %6d %8d %6d\n", r.label, c.ClientKBps, c.CPUPercent, c.DiskTps, batch,
				gs.MaxBatch, gs.HunterHits, gs.HandoffsToActive, gs.Procrastinations)
			got[g.title] = append(got[g.title], c)
			if r.policy == nil || r.nfsds == 1 && !r.policy.MbufHunter {
				continue
			}
			if batch < 2 {
				t.Errorf("%s / %s: batch mean %.2f, want >= 2", g.title, r.label, batch)
			}
			if c.ClientKBps <= standard.ClientKBps {
				t.Errorf("%s / %s: %.0f KB/s does not beat the standard server's %.0f",
					g.title, r.label, c.ClientKBps, standard.ClientKBps)
			}
		}
		t.Logf("\n%s", out)
	}
	for _, title := range []string{hunterPlain, hunterPresto} {
		for i, c := range got[title] {
			if c.Gather.HunterHits != 0 {
				t.Errorf("%s / %s: the hunter fired %d times at 8 nfsds, want 0",
					title, [...]string{"on", "off"}[i], c.Gather.HunterHits)
			}
		}
	}
	for _, title := range []string{lonePlain, lonePresto} {
		on, off := got[title][0], got[title][1]
		if on.Gather.HunterHits == 0 || on.ClientKBps <= off.ClientKBps {
			t.Errorf("%s: hunter on %.0f KB/s with %d hits, off %.0f KB/s; want on faster, with hits",
				title, on.ClientKBps, on.Gather.HunterHits, off.ClientKBps)
		}
	}
	if fifo, lifo := got[replyPresto][0], got[replyPresto][1]; fifo.ClientKBps == lifo.ClientKBps {
		t.Errorf("%s: FIFO and LIFO both %.0f KB/s; reply order does not engage", replyPresto, fifo.ClientKBps)
	}
}

// writeTrainGap is how far apart a burst's WRITEs reach the server in
// TestAblations' copy: one FDDI datagram time for an 8K WRITE call — 8,398
// wire bytes in two fragments at 11,600 KB/s (707 µs) plus 25 µs per
// fragment. The biods issue one every 600 µs, and each reaches an idle
// nfsd one link latency (80 µs) after it leaves the wire, with nothing
// queued ahead of it, and holds the CPU 504 µs: the medium, not the biods,
// the socket buffer or the CPU, spaces the train.
const writeTrainGap = 757 * sim.Microsecond

// checkWriteTrain holds one traced 8-nfsd plain-disk row at ms of
// procrastination to the train mechanism: every burst's 8 WRITEs arrive
// writeTrainGap apart, the first commit takes the 1 + ⌊ms / gap⌋ that
// arrived within the sleep (all 8 once the sleep outlasts the 5.30 ms
// train), and the rest make the next commit.
func checkWriteTrain(t *testing.T, label string, ms int, tr *obs.Trace) {
	t.Helper()
	if tr.Dropped > 0 {
		t.Fatalf("%s: %d trace events dropped", label, tr.Dropped)
	}
	arg := func(e obs.Event, key string) int64 {
		for _, a := range e.Args {
			if a.Key == key {
				return a.Val
			}
		}
		t.Fatalf("%s: %s span has no %s", label, e.Name, key)
		return 0
	}
	var arrivals []sim.Time // when each WRITE finished serializing
	var batches []int
	for _, e := range tr.Events {
		switch {
		case e.Cat == "nfs" && e.Name == "WRITE":
			q := arg(e, "queue_us")
			if q != 80 {
				t.Fatalf("%s: a WRITE waited %d µs from the wire to an nfsd, want the 80 µs link latency", label, q)
			}
			arrivals = append(arrivals, e.TS.Add(-sim.Duration(q)))
		case e.Cat == "gather":
			batches = append(batches, int(arg(e, "batch")))
		}
	}
	slices.Sort(arrivals)
	const burst = 8 // 7 biods and the copy's own write
	if len(arrivals) != 256 {
		t.Fatalf("%s: %d WRITEs traced, want 256", label, len(arrivals))
	}
	for i := 0; i < len(arrivals); i += burst {
		train := arrivals[i : i+burst]
		for k := 1; k < burst; k++ {
			if gap := train[k].Sub(train[k-1]); gap != writeTrainGap {
				t.Fatalf("%s: burst %d: WRITE %d arrived %v after the one before, want %v",
					label, i/burst, k, gap, writeTrainGap)
			}
		}
		if ms == 5 && i == 0 {
			t.Logf("%s: a burst's WRITEs arrive %v apart, the last %v after the first",
				label, writeTrainGap, train[burst-1].Sub(train[0]))
		}
	}
	first := min(burst, 1+int(sim.Duration(ms)*sim.Millisecond/writeTrainGap))
	want := []int{first}
	if first < burst {
		want = append(want, burst-first)
	}
	for i, b := range batches {
		if b != want[i%len(want)] {
			t.Fatalf("%s: commit %d gathered %d writes; want the commits to alternate %v", label, i, b, want)
		}
	}
	if len(batches) != len(arrivals)/burst*len(want) {
		t.Fatalf("%s: %d commits for %d bursts, want %d each", label, len(batches), len(arrivals)/burst, len(want))
	}
}

// TestPlainDiskCopyClaimOverSeeds is the plain-disk copy claim (§7,
// Tables 1, 3 and 5) at five seeds, not only the recorded one: with every
// cell seed moved by k × 7919 for k = 0…4, at every biod column of 7 or
// more the gathering server moves more client KB/s and issues fewer disk
// transactions per second than the standard one. The predicate and the
// seed set are fixed; a seed that failed would be kept and its status
// pinned, not dropped.
func TestPlainDiskCopyClaimOverSeeds(t *testing.T) {
	const seeds = 5
	for _, name := range []string{"table1", "table3", "table5"} {
		holds := 0
		for k := int64(0); k < seeds; k++ {
			spec, _ := Lookup(name)
			spec.Seed += k * 7919
			for i := range spec.Cells {
				s := *spec.Cells[i].Seed + k*7919
				spec.Cells[i].Seed = &s
			}
			_, halves := MustRun(spec).Families()
			std, wg := halves["std"], halves["wg"]
			ok, columns := true, 0
			for i := range std {
				// CopySweep lays out the std cells, then the wg cells, in
				// one biod order.
				if *spec.Cells[i].Biods < 7 {
					continue
				}
				columns++
				if wg[i].ClientKBps <= std[i].ClientKBps || wg[i].DiskTps >= std[i].DiskTps {
					ok = false
					t.Logf("%s seed +%d×7919, %s: wg %.0f KB/s %.1f t/s, std %.0f KB/s %.1f t/s",
						name, k, std[i].Label, wg[i].ClientKBps, wg[i].DiskTps, std[i].ClientKBps, std[i].DiskTps)
				}
			}
			if columns == 0 {
				t.Fatalf("%s has no biod column of 7 or more", name)
			}
			if ok {
				holds++
			}
		}
		t.Logf("%s: the claim holds at %d of %d seeds", name, holds, seeds)
		if holds != seeds {
			t.Errorf("%s: the plain-disk copy claim holds at %d of %d seeds, want all", name, holds, seeds)
		}
	}
}
