package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef is one metric's entry in the catalogue BENCHMARK.json repeats.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is BENCHMARK.json's: the share of the parent's median by which
	// the metric may worsen between two sets of runs over ten different
	// seeds.
	Bound float64 `json:"bound,omitempty"`
	// SameSeed is the bound -compare applies to two reports of one seed,
	// where the counts repeat to 0.01 %.
	SameSeed float64 `json:"-"`
	// Floor, in the metric's unit, is the least worsening -compare counts:
	// the allowance is max(SameSeed x median, Floor).
	Floor float64 `json:"-"`
}

// endToEnd are the metrics a user of the simulator sees, each with the
// bounds by which it may worsen before a change counts as a regression.
//
// SameSeed is the issue's bound (10/10/10/2/1/1 %) wherever one seed's
// reps allow it. The two times do not: twelve reps of one seed spread
// 10-24 % between their quartiles on the sandbox this was written on (the
// same rep ran 2.7 s and 4.5 s within the hour), and a bound below the
// spread resolves nothing. The copy-seq and openload-knee twins run 40-50
// ms, where a few milliseconds of process start-up are a third of the
// median; hence setup_s's floor.
//
// Bound has to hold over ten *different* seeds, which move the counts by up
// to 2.7 %: it is three times the widest spread between the quartiles seen
// that way, capped at the contract's 0.25 (README, "End-to-end metrics").
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.25, Floor: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, SameSeed: 0.10},
	{Name: "retained_mb", Unit: "MB", Better: "lower", Bound: 0.06, SameSeed: 0.02},
	{Name: "mallocs_k", Unit: "k", Better: "lower", Bound: 0.09, SameSeed: 0.01},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05, SameSeed: 0.01},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.001, SameSeed: 0.001},
}

// allowance is how far, in the metric's unit, a median of the given size
// may worsen — or its quartiles lie apart — under the same-seed bound.
func (d metricDef) allowance(median float64) float64 {
	return max(d.SameSeed*median, d.Floor)
}

// boundText renders the same-seed bound for the tables.
func (d metricDef) boundText() string {
	if d.Floor > 0 {
		return fmt.Sprintf("%.1f%%|%g%s", 100*d.SameSeed, d.Floor, d.Unit)
	}
	return fmt.Sprintf("%.1f%%", 100*d.SameSeed)
}

// e2eValue reads one end-to-end metric off a plain rep. (setup_s is the
// wall of the twin reps, ok_share the workload's verdict.)
func e2eValue(name string, r childRes) float64 {
	switch name {
	case "wall_s":
		return r.WallS
	case "peak_rss_mb":
		return r.PeakRSSMB
	case "retained_mb":
		return r.RetainedMB
	case "mallocs_k":
		return r.MallocsK
	case "alloc_mb":
		return r.AllocMB
	}
	panic("no end-to-end metric " + name)
}

// workloadLayer are the per-layer metrics taken per workload, beside the
// drivers' (which do not depend on the workload).
var workloadLayer = []metricDef{
	{Name: "sim.goroutines_left", Unit: "count", Better: "lower"},
	{Name: "host.build_s", Unit: "s", Better: "lower"},
	{Name: "host.sim_s_per_wall_s", Unit: "ratio", Better: "higher"},
	{Name: "host.us_per_op", Unit: "us", Better: "lower"},
	{Name: "host.mallocs_per_op", Unit: "count", Better: "lower"},

	{Name: "share.rt_background", Unit: "%", Better: "lower"},
	{Name: "share.other", Unit: "%", Better: "lower"},
	{Name: "rt.gc_pct", Unit: "%", Better: "lower"},
	{Name: "rt.alloc_pct", Unit: "%", Better: "lower"},
	{Name: "rt.sched_pct", Unit: "%", Better: "lower"},
	{Name: "rt.memmove_pct", Unit: "%", Better: "lower"},
	{Name: "rt.stack_pct", Unit: "%", Better: "lower"},
	{Name: "prof.samples", Unit: "count", Better: "higher"},
	{Name: "prof.overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "sim.idle_p_penalty_x", Unit: "ratio", Better: "lower"},
	{Name: "scenario.parallel_speedup_x", Unit: "ratio", Better: "higher"},

	{Name: "simtime.rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "simtime.nfsd_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "simtime.nfsd_service_ms", Unit: "ms", Better: "lower"},
	{Name: "simtime.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "simtime.gather_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "simtime.nvram_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "simtime.disk_xfer_ms", Unit: "ms", Better: "lower"},
	{Name: "probe.nfsd_queue_mean", Unit: "count", Better: "lower"},
	{Name: "probe.cache_bufs_mean", Unit: "count", Better: "lower"},
	{Name: "probe.nvram_dirty_pct_mean", Unit: "%", Better: "lower"},
	{Name: "probe.disk_util_pct_mean", Unit: "%", Better: "lower"},
	{Name: "probe.rpcs_outstanding_mean", Unit: "count", Better: "lower"},
	{Name: "probe.ol_queue_mean", Unit: "count", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_x", Unit: "ratio", Better: "lower"},

	{Name: "model.ops_done", Unit: "count", Better: "higher"},
	{Name: "model.sim_s", Unit: "s", Better: "lower"},
	{Name: "model.wg_speedup_x", Unit: "ratio", Better: "higher"},
	{Name: "model.cpu_util_pct", Unit: "%", Better: "lower"},
	{Name: "model.disk_trans_per_op", Unit: "ratio", Better: "lower"},
	{Name: "model.gather_batch_mean", Unit: "count", Better: "higher"},
	{Name: "model.retrans_per_kop", Unit: "ratio", Better: "lower"},
	{Name: "model.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "model.peak_queue", Unit: "count", Better: "lower"},
	{Name: "model.net_util_max_pct", Unit: "%", Better: "lower"},
	{Name: "model.bridge_drops", Unit: "count", Better: "lower"},
}

// perLayer is the whole per-layer catalogue: the drivers' metrics, one
// share.<pkg> per layer, and the per-workload ones.
func perLayer() []metricDef {
	var defs []metricDef
	for _, d := range drivers {
		for _, m := range d.metrics {
			defs = append(defs, metricDef{Name: m.name, Unit: unitOf(m.name), Better: "lower"})
		}
	}
	for _, pkg := range sharePackages {
		defs = append(defs, metricDef{Name: "share." + pkg, Unit: "%", Better: "lower"})
	}
	return append(defs, workloadLayer...)
}

// unitOf reads a driver metric's unit off its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_alloc_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	}
	return "count" // _allocs, _events
}

// dist summarizes the reps of one metric. A dozen samples support no
// percentile beyond the quartiles, so none is reported.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// Samples are the reps in the order they ran: every run made.
	Samples []float64 `json:"samples,omitempty"`
}

func distOf(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return dist{}
	}
	return dist{Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3), Min: s[0], Max: s[n-1], N: n, Samples: v}
}

// quantile is the k-th quartile of sorted s by the rule of Python's
// statistics.quantiles(s, n=4), which the driver applies to our output.
func quantile(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	j := min(max(k*(n+1)/4, 1), n-1)
	delta := k*(n+1) - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// spread is the distance between the quartiles as a share of the median.
func (d dist) spread() float64 { return ratio(d.Q3-d.Q1, d.Median) }
