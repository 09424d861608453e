package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// A finished scenario.Run stays reachable (parked process goroutines pin
// their whole simulation), an idle second P makes the event kernel's
// channel handoffs cross threads, and back-to-back runs in one process
// drift. So every number is taken in a fresh child of this binary, which
// does one thing once and reports it as JSON on its standard output.

// childReq is what the parent writes to a child's standard input.
type childReq struct {
	// Spec, when set, is run once through scenario.RunWorkers.
	Spec     *scenario.Spec `json:"spec,omitempty"`
	Workers  int            `json:"workers,omitempty"`
	Headline string         `json:"headline,omitempty"`
	// Profile samples the CPU across the run and attributes the samples.
	Profile bool `json:"profile,omitempty"`

	// Drivers, when set, names the layer-driver family to loop instead.
	Drivers     string  `json:"drivers,omitempty"`
	LoopSeconds float64 `json:"loop_seconds,omitempty"`
	Loops       int     `json:"loops,omitempty"`
}

// childRes is one child's report.
type childRes struct {
	WallS      float64 `json:"wall_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	RetainedMB float64 `json:"retained_mb"`
	MallocsK   float64 `json:"mallocs_k"`
	AllocMB    float64 `json:"alloc_mb"`
	Goroutines int     `json:"goroutines"`

	Digest string `json:"digest"`
	// Columns is the headline cell's uniform metric columns, compared
	// between the plain and the observed run.
	Columns       string  `json:"columns,omitempty"`
	HeadlineWallS float64 `json:"headline_wall_s,omitempty"`
	// CellWallS is each cell's own host time, in sweep order.
	CellWallS    []float64 `json:"cell_wall_s,omitempty"`
	OpsAttempted int64     `json:"ops_attempted"`
	OpsFailed    int64     `json:"ops_failed"`
	Violations   []string  `json:"violations,omitempty"`

	// Layer holds every per-layer number this child produced: model.*
	// from a plain run, share.*/rt.*/prof.* from a profiled one,
	// simtime.*/probe.*/trace.* from an observed one, or a driver
	// family's metrics.
	Layer map[string]float64 `json:"layer,omitempty"`
	// P99Samples is the sample count behind model.p99_ms.
	P99Samples int `json:"p99_samples,omitempty"`
}

const mb = 1 << 20

// profileHz is the CPU sampling rate of the traced run. pprof's own 100 Hz
// gives ~250 samples per rep, too few to tell a 5 % share from a 3 % one.
const profileHz = 500

func childMain(in io.Reader, out io.Writer) error {
	var req childReq
	if err := json.NewDecoder(in).Decode(&req); err != nil {
		return fmt.Errorf("child: decode request: %w", err)
	}
	res, err := serveRequest(req)
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(res)
}

func serveRequest(req childReq) (res childRes, err error) {
	switch {
	case req.Drivers != "":
		res.Layer, err = runDrivers(req.Drivers, req.LoopSeconds, req.Loops)
	case req.Spec != nil:
		res, err = runSpec(req)
	default:
		err = fmt.Errorf("child: empty request")
	}
	return res, err
}

// runSpec executes the spec once and measures the process around it.
func runSpec(req childReq) (out childRes, err error) {
	spec := *req.Spec
	if err := spec.Validate(); err != nil {
		return out, err
	}
	defer func() {
		// Model code panics on a failed operation; report it as this
		// child's error instead of a Go crash dump.
		if r := recover(); r != nil {
			err = fmt.Errorf("child: run %s panicked: %v", spec.Name, r)
		}
	}()
	var prof bytes.Buffer
	if req.Profile {
		// StartCPUProfile insists on 100 Hz; a rate set beforehand wins
		// (the runtime refuses the second call and says so on stderr).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := scenario.RunWorkers(spec, req.Workers)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if req.Profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return out, err
	}
	out.WallS = wall.Seconds()
	out.PeakRSSMB = peakRSSMB()
	out.Goroutines = runtime.NumGoroutine()
	out.MallocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	out.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / mb
	out.Layer = map[string]float64{}

	if err := summarize(res, req.Headline, &out); err != nil {
		return out, err
	}
	if req.Profile {
		if err := attribute(prof.Bytes(), out.Layer); err != nil {
			return out, err
		}
	}

	// What a sweep, `-run all` or a fuzz campaign accumulates per run:
	// everything still reachable once the result itself is gone.
	res = nil
	runtime.GC()
	runtime.GC()
	var retained runtime.MemStats
	runtime.ReadMemStats(&retained)
	out.RetainedMB = float64(retained.HeapAlloc+retained.StackInuse) / mb
	return out, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// summarize reduces a result to its digest, its operation counts, the
// deterministic model.* numbers, the output checks, and — when the spec
// observed — the simulated-time attribution.
func summarize(res *scenario.Result, headline string, out *childRes) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(blob)
	out.Digest = hex.EncodeToString(sum[:])

	var ops, failed int64
	var simS, cpuSum, diskTrans, retrans float64
	var gatherWrites, gatherBatches float64
	var wgRate, stdRate float64
	var peakQueue int
	var netUtil float64
	var bridgeDrops uint64
	rates := map[string]float64{}
	bad := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		var cellOps, cellFailed int64
		rate := c.AchievedOpsPerSec
		switch {
		case len(c.OpenloadClients) > 0:
			for j, oc := range c.OpenloadClients {
				if oc.Offered != oc.Completed+oc.Shed+oc.Expired {
					bad("%s client %d: offered %d != completed %d + shed %d + expired %d",
						c.Label, j, oc.Offered, oc.Completed, oc.Shed, oc.Expired)
				}
				cellOps += int64(oc.Offered)
				cellFailed += int64(oc.Shed + oc.Expired)
			}
			if c.ShedArrivals != 0 || c.ExpiredOps != 0 {
				bad("%s: %d arrivals shed, %d expired; the backlog is sized so that none are",
					c.Label, c.ShedArrivals, c.ExpiredOps)
			}
		case len(c.ClientResults) > 0:
			for _, cr := range c.ClientResults {
				for _, n := range cr.PerOp {
					cellOps += int64(n)
				}
			}
		case res.Spec.Workload.Copy != nil: // one 8K WRITE per block
			cellOps = int64(res.Spec.Workload.Copy.FileMB) * mb / 8192
			rate = c.ClientKBps
		default:
			return fmt.Errorf("child: cell %s: no operation count for workload kind %q", c.Label, res.Spec.Workload.Kind)
		}
		cellFailed += int64(c.Errors)
		if c.Errors != 0 {
			bad("%s: %d client operations failed", c.Label, c.Errors)
		}
		if d := c.Durability; d != nil && (d.UnaccountedRefs != 0 || d.LostBytes != 0) {
			bad("%s: unaccounted_refs=%d lost_bytes=%d", c.Label, d.UnaccountedRefs, d.LostBytes)
		}
		ops += cellOps
		failed += cellFailed
		simS += c.SimTime.Seconds()
		cpuSum += c.CPUPercent
		diskTrans += c.DiskTps * c.ElapsedSec
		retrans += float64(c.Retransmissions)
		if g := c.GatherBatch; g != nil {
			gatherWrites += g.Mean * float64(g.Count)
			gatherBatches += float64(g.Count)
		}
		rates[c.Label] = rate
		switch {
		case strings.HasPrefix(c.Label, "wg-"):
			wgRate += rate
		case strings.HasPrefix(c.Label, "std-"):
			stdRate += rate
		}
		if c.PeakQueue > peakQueue {
			peakQueue = c.PeakQueue
		}
		netUtil = math.Max(netUtil, c.NetMaxUtilPct)
		bridgeDrops += c.BridgeDrops
		if c.Label == headline {
			out.Columns = headlineColumns(c)
			out.HeadlineWallS = c.Wall.Seconds()
		}
	}
	for _, stack := range []string{"plain", "presto"} {
		wg, okW := rates["wg-"+stack+"-b23"]
		std, okS := rates["std-"+stack+"-b23"]
		if okW && okS && wg < std {
			bad("%s at 23 biods: gathering %.0f KB/s below standard %.0f KB/s", stack, wg, std)
		}
	}
	if headline != "" && out.Columns == "" {
		return fmt.Errorf("child: result has no headline cell %q", headline)
	}
	out.OpsAttempted, out.OpsFailed = ops, failed

	m := out.Layer
	n := float64(len(res.Cells))
	m["model.ops_done"] = float64(ops - failed)
	m["model.sim_s"] = simS
	m["model.wg_speedup_x"] = ratio(wgRate, stdRate) // 0 where the workload has no std/wg pair
	m["model.cpu_util_pct"] = cpuSum / n
	m["model.disk_trans_per_op"] = ratio(diskTrans, float64(ops))
	m["model.gather_batch_mean"] = ratio(gatherWrites, gatherBatches)
	m["model.retrans_per_kop"] = 1e3 * ratio(retrans, float64(ops))
	m["model.peak_queue"] = float64(peakQueue)
	m["model.net_util_max_pct"] = netUtil
	m["model.bridge_drops"] = float64(bridgeDrops)

	if res.Spec.Observe != nil {
		if len(res.Cells) != 1 || res.Cells[0].Trace == nil || res.Cells[0].Series == nil {
			return fmt.Errorf("child: observed run wants exactly the headline cell, traced and probed")
		}
		// The one-cell run's own model.* would shadow the whole sweep's.
		out.Layer = map[string]float64{}
		out.P99Samples = reduceTrace(res.Cells[0].Trace, res.Cells[0].Series, out.Layer)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// headlineColumns renders the uniform metric columns every renderer
// shares; observation must not move any of them.
func headlineColumns(c *scenario.CellResult) string {
	var b strings.Builder
	cols := append(scenario.MetricColumns(), scenario.OpenloadColumns()...)
	cols = append(cols, scenario.SegmentColumns()...)
	for _, name := range cols {
		v, _ := c.Column(name)
		fmt.Fprintf(&b, "%s=%v ", name, v)
	}
	return b.String()
}
