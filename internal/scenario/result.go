package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Metrics is the uniform column set every cell reports — the 15 metric
// columns all experiment entry points share. Columns that a workload
// does not produce are zero (and can be dropped from output via
// Spec.Metrics).
type Metrics struct {
	// ElapsedSec is the measured phase (copy/stream: the transfer
	// including outages; laddis: the measured window).
	ElapsedSec float64 `json:"elapsed_sec"`
	// ClientKBps is the client-observed sequential transfer rate.
	ClientKBps float64 `json:"client_kb_per_sec"`
	// CPUPercent is server CPU utilization over the measured interval
	// (the across-shard mean on a cluster); CPUMaxPercent the busiest
	// shard (equal to CPUPercent on a single server).
	CPUPercent    float64 `json:"cpu_percent"`
	CPUMaxPercent float64 `json:"cpu_max_percent"`
	// DiskKBps and DiskTps are spindle-level aggregate rates.
	DiskKBps float64 `json:"disk_kb_per_sec"`
	DiskTps  float64 `json:"disk_trans_per_sec"`
	// OfferedOpsPerSec / AchievedOpsPerSec / latency quantiles are the
	// LADDIS curve coordinates.
	OfferedOpsPerSec  float64 `json:"offered_ops_per_sec"`
	AchievedOpsPerSec float64 `json:"achieved_ops_per_sec"`
	AvgLatencyMs      float64 `json:"avg_latency_ms"`
	P95LatencyMs      float64 `json:"p95_latency_ms"`
	// Errors counts failed client operations.
	Errors int `json:"errors"`
	// Retransmissions and RebootsSeen are the client-side view of
	// outages; Crashes the number of server crashes performed.
	Retransmissions uint64 `json:"retransmissions"`
	RebootsSeen     uint64 `json:"reboots_seen"`
	Crashes         int    `json:"crashes"`
	// LostBytes is the durability checker's verdict: client-acked bytes
	// that did not survive recovery (the NFS contract demands 0).
	LostBytes int64 `json:"lost_bytes"`

	// NetMaxUtilPct is the busiest segment's medium utilization over the
	// cell's run and BridgeDrops the datagrams its bridges dropped (queue
	// overflow, severed uplinks, unknown destinations). Both exist only on
	// bridged multi-segment topologies; single-medium cells — including
	// every recorded baseline — never report them.
	NetMaxUtilPct float64 `json:"net_max_util_pct,omitempty"`
	BridgeDrops   uint64  `json:"bridge_drops,omitempty"`

	// P50..P999LatencyMs are streaming-histogram latency quantiles across
	// all measured LADDIS operations. They exist only when the spec's
	// Observe section enables histograms, are omitted from the default
	// column set, and recorded baselines (which never set Observe) are
	// unaffected.
	P50LatencyMs  float64 `json:"p50_latency_ms,omitempty"`
	P90LatencyMs  float64 `json:"p90_latency_ms,omitempty"`
	P99LatencyMs  float64 `json:"p99_latency_ms,omitempty"`
	P999LatencyMs float64 `json:"p999_latency_ms,omitempty"`

	// ShedArrivals, ExpiredOps and PeakQueue are the open-loop honesty
	// columns (openload cells only): arrivals dropped at a full backlog,
	// backlogged arrivals that aged out before issue, and the deepest
	// per-client backlog seen. Closed-loop workloads never report them.
	ShedArrivals uint64 `json:"shed_arrivals,omitempty"`
	ExpiredOps   uint64 `json:"expired_ops,omitempty"`
	PeakQueue    int    `json:"peak_queue,omitempty"`
}

// QuantileColumns lists the histogram-backed latency columns appended to
// renders when Observe.Histograms is set.
func QuantileColumns() []string {
	return []string{"p50_latency_ms", "p90_latency_ms", "p99_latency_ms", "p999_latency_ms"}
}

// SegmentColumns lists the bridged-topology columns appended to renders
// when the topology declares more than one media segment.
func SegmentColumns() []string {
	return []string{"net_max_util_pct", "bridge_drops"}
}

// OpenloadColumns lists the open-loop accounting columns appended to
// renders for openload cells (with the quantile columns, which openload
// always fills from its streaming latency histograms).
func OpenloadColumns() []string {
	return []string{"shed_arrivals", "expired_ops", "peak_queue"}
}

// MetricColumns lists the uniform column names in canonical order.
func MetricColumns() []string {
	return []string{
		"elapsed_sec", "client_kb_per_sec", "cpu_percent", "cpu_max_percent",
		"disk_kb_per_sec", "disk_trans_per_sec",
		"offered_ops_per_sec", "achieved_ops_per_sec", "avg_latency_ms", "p95_latency_ms",
		"errors", "retransmissions", "reboots_seen", "crashes", "lost_bytes",
	}
}

// Column returns one column's value by name.
func (m Metrics) Column(name string) (float64, bool) {
	switch name {
	case "elapsed_sec":
		return m.ElapsedSec, true
	case "client_kb_per_sec":
		return m.ClientKBps, true
	case "cpu_percent":
		return m.CPUPercent, true
	case "cpu_max_percent":
		return m.CPUMaxPercent, true
	case "disk_kb_per_sec":
		return m.DiskKBps, true
	case "disk_trans_per_sec":
		return m.DiskTps, true
	case "offered_ops_per_sec":
		return m.OfferedOpsPerSec, true
	case "achieved_ops_per_sec":
		return m.AchievedOpsPerSec, true
	case "avg_latency_ms":
		return m.AvgLatencyMs, true
	case "p95_latency_ms":
		return m.P95LatencyMs, true
	case "errors":
		return float64(m.Errors), true
	case "retransmissions":
		return float64(m.Retransmissions), true
	case "reboots_seen":
		return float64(m.RebootsSeen), true
	case "crashes":
		return float64(m.Crashes), true
	case "lost_bytes":
		return float64(m.LostBytes), true
	case "net_max_util_pct":
		return m.NetMaxUtilPct, true
	case "bridge_drops":
		return float64(m.BridgeDrops), true
	case "p50_latency_ms":
		return m.P50LatencyMs, true
	case "p90_latency_ms":
		return m.P90LatencyMs, true
	case "p99_latency_ms":
		return m.P99LatencyMs, true
	case "p999_latency_ms":
		return m.P999LatencyMs, true
	case "shed_arrivals":
		return float64(m.ShedArrivals), true
	case "expired_ops":
		return float64(m.ExpiredOps), true
	case "peak_queue":
		return float64(m.PeakQueue), true
	}
	return 0, false
}

// Durability is the crash/recovery audit attached to cells that ran with
// faults or the durability checker.
type Durability struct {
	// Checked is true when the acked-write journal was attached and
	// verified; without it the Acked*/Lost* fields are vacuously zero
	// (crash counters are still real) and renderers omit the verdict.
	Checked              bool    `json:"checked"`
	AckedWrites          int     `json:"acked_writes"`
	AckedBytes           int64   `json:"acked_bytes"`
	LostBytes            int64   `json:"lost_bytes"`
	FirstLoss            string  `json:"first_loss,omitempty"`
	Crashes              int     `json:"crashes"`
	Reboots              int     `json:"reboots"`
	MeanRecoveryMs       float64 `json:"mean_recovery_ms"`
	RecoveredNVRAMBlocks int     `json:"recovered_nvram_blocks"`
	// ClientReboots, BiodsLost, Failovers and LinkOutages count the
	// completed injections of the other fault kinds; StorageFaults the
	// storage-plane injections (media errors, degraded windows, torn
	// writes, lying boards) that fired.
	ClientReboots int `json:"client_reboots,omitempty"`
	BiodsLost     int `json:"biods_lost,omitempty"`
	Failovers     int `json:"failovers,omitempty"`
	LinkOutages   int `json:"link_outages,omitempty"`
	StorageFaults int `json:"storage_faults,omitempty"`
	// DroppedNVRAMBlocks counts dirty blocks lying boards discarded at
	// power events instead of replaying (the acked data they lost).
	DroppedNVRAMBlocks int `json:"dropped_nvram_blocks,omitempty"`
	// LossExpected is true when a scheduled fault declared acked-byte
	// loss permissible (a lying board, an unrecoverable media failure):
	// LostBytes > 0 with LossExpected false is a durability bug.
	LossExpected bool `json:"loss_expected,omitempty"`
	// RecoveryFailures lists scheduled recoveries that failed under
	// storage faults (without them a failed recovery panics the run).
	RecoveryFailures []string `json:"recovery_failures,omitempty"`
	// UnaccountedRefs is the per-cell block-reference leak audit: the
	// cell's outstanding references minus those attributable to the
	// cluster's long-lived stores after full quiesce. Must be 0.
	UnaccountedRefs int64 `json:"unaccounted_refs,omitempty"`
	// BufferedWrites counts write-behind acceptances; DroppedBuffered the
	// subset a crash-exposed client never got acked — permitted loss,
	// excluded from LostBytes. UnackedBuffered counts unacked buffered
	// writes on untargeted clients (also excluded; no ack, no obligation).
	BufferedWrites       int   `json:"buffered_writes,omitempty"`
	DroppedBuffered      int   `json:"dropped_buffered,omitempty"`
	DroppedBufferedBytes int64 `json:"dropped_buffered_bytes,omitempty"`
	UnackedBuffered      int   `json:"unacked_buffered,omitempty"`
	// EventsFired is the injector's timestamped fault transition log — a
	// pure function of spec and seed (the determinism contract).
	EventsFired []string `json:"events_fired,omitempty"`
}

// CellResult is one sweep point's outcome: the uniform metric columns
// plus the workload-specific detail the paper's layouts print.
type CellResult struct {
	Label string `json:"label"`
	Seed  int64  `json:"seed"`
	Metrics

	// Elapsed is the exact simulated duration of the measured phase.
	Elapsed sim.Duration `json:"elapsed_ns"`
	// Wall is the real (host) time the cell took to execute. It is
	// harness observability — nondeterministic by nature — so it is
	// excluded from serialization and from Render, keeping every
	// recorded output byte-identical across worker counts and machines.
	Wall time.Duration `json:"-"`
	// setupEvents is the simulator's event count at the instant an
	// open-loop cell's window opened: what set-up cost the harness, in a
	// unit that does not depend on the host (0 for other workload kinds).
	// TestOpenloadSetupBudget bounds it.
	setupEvents uint64
	// Events, Switches and Carriers are the harness's self-report, from
	// the cell's simulation when it quiesced: events fired, coroutine
	// resumptions, and coroutines started, which is the peak number of
	// processes alive at once (TestProcessesDoNotScaleWithClients). They
	// are the kernel's cost of the model, not the model, so like Wall they
	// stay out of serialization and Render.
	Events   uint64 `json:"-"`
	Switches uint64 `json:"-"`
	Carriers int    `json:"-"`
	// err is a spec error only running the cell could find (runOpenload's
	// fault-before-the-window check). The cell stopped there and carries
	// nothing else; runEngine returns it in place of the result.
	err error
	// Gather is the gathering engine's counters (zero without gathering;
	// single-server cells only).
	Gather core.Stats `json:"gather,omitempty"`
	// ClientResults are the per-client LADDIS points (laddis cells).
	ClientResults []workload.LADDISResult `json:"client_results,omitempty"`
	// OpenloadClients are the per-client open-loop accounting summaries
	// (openload cells only).
	OpenloadClients []OpenloadClient `json:"openload_clients,omitempty"`
	// Drops counts datagrams the server endpoint dropped (single-server
	// cells only).
	Drops uint64 `json:"drops,omitempty"`
	// Durability is the crash audit (fault/durability cells only).
	Durability *Durability `json:"durability,omitempty"`
	// TraceText is the rendered Figure 1-style timeline (trace cells).
	TraceText string `json:"trace_text,omitempty"`
	// TraceLog is the raw event log behind TraceText.
	TraceLog *trace.Log `json:"-"`

	// Segments and Bridges are the bridged-fabric roll-up, in declaration
	// order (multi-segment cells only): per-segment wire accounting and
	// per-bridge forward/drop/queue counters.
	Segments []SegmentStat `json:"segments,omitempty"`
	Bridges  []BridgeStat  `json:"bridges,omitempty"`

	// SimTime is the full simulated extent of the cell — setup, measured
	// phase, fault recovery and audits — as read off the simulation clock
	// when the cell quiesced (Elapsed covers the measured phase only).
	SimTime sim.Duration `json:"sim_time_ns,omitempty"`
	// GatherBatch and GatherCommitMs summarize the gathering engine's
	// always-on distributions: writes per committed batch, and per-batch
	// commit latency (gather close to platter/NVRAM completion) in
	// milliseconds. Nil without gathering. On a cluster they merge the
	// current boot's engines (earlier boots die with their servers).
	GatherBatch    *DistSummary `json:"gather_batch,omitempty"`
	GatherCommitMs *DistSummary `json:"gather_commit_ms,omitempty"`
	// OpQuantiles is the per-op latency quantile table (LADDIS cells with
	// Observe.Histograms), sorted by op name.
	OpQuantiles []OpQuantiles `json:"op_quantiles,omitempty"`
	// Trace and Series are the cell's collected observability artifacts
	// (Observe cells only); nfsbench serializes them on demand.
	Trace  *obs.Trace      `json:"-"`
	Series *obs.TimeSeries `json:"-"`
}

// OpenloadClient is one client's open-loop accounting: what it offered,
// what the server actually absorbed, and where the difference went.
type OpenloadClient struct {
	Offered      uint64 `json:"offered"`
	Completed    uint64 `json:"completed"`
	Errors       int    `json:"errors"`
	Shed         uint64 `json:"shed,omitempty"`
	Expired      uint64 `json:"expired,omitempty"`
	PeakQueue    int    `json:"peak_queue,omitempty"`
	PeakInFlight int    `json:"peak_in_flight,omitempty"`
	// PerOp counts completed operations by name — the mix the client
	// actually issued, not the one the spec asked for.
	PerOp map[string]int `json:"per_op,omitempty"`
}

// SegmentStat is one fabric segment's wire roll-up over the cell's run.
type SegmentStat struct {
	Name          string  `json:"name"`
	UtilPct       float64 `json:"util_pct"`
	Datagrams     uint64  `json:"datagrams"`
	KBytes        uint64  `json:"kbytes"`
	DropsLinkDown uint64  `json:"drops_link_down,omitempty"`
	DropsNoDest   uint64  `json:"drops_no_dest,omitempty"`
}

// BridgeStat is one uplink bridge's roll-up, both ports summed.
type BridgeStat struct {
	Name           string `json:"name"`
	Forwarded      uint64 `json:"forwarded"`
	DropsQueueFull uint64 `json:"drops_queue_full,omitempty"`
	DropsLinkDown  uint64 `json:"drops_link_down,omitempty"`
	DropsNoRoute   uint64 `json:"drops_no_route,omitempty"`
	PeakQueue      int    `json:"peak_queue,omitempty"`
}

// DistSummary is a histogram rendered to its headline numbers.
type DistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// summarize renders h with every value scaled by scale (1 for counts,
// 1e-3 for µs→ms). Nil when the histogram is empty.
func summarize(h *stats.Histogram, scale float64) *DistSummary {
	if h == nil || h.N() == 0 {
		return nil
	}
	return &DistSummary{
		Count: h.N(),
		Mean:  h.Mean() * scale,
		P50:   h.Quantile(0.50) * scale,
		P90:   h.Quantile(0.90) * scale,
		P99:   h.Quantile(0.99) * scale,
		P999:  h.Quantile(0.999) * scale,
		Max:   float64(h.MaxSeen) * scale,
	}
}

// OpQuantiles is one op kind's latency quantile row (milliseconds),
// merged across every client's streaming histogram.
type OpQuantiles struct {
	Op     string  `json:"op"`
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// fillQuantiles merges the per-client, per-op streaming histograms into
// the cell's quantile columns and per-op table. Histograms record µs.
func fillQuantiles(cr *CellResult, results []workload.LADDISResult) {
	var all stats.Histogram
	perOp := map[string]*stats.Histogram{}
	for _, res := range results {
		for op, h := range res.Hists {
			if perOp[op] == nil {
				perOp[op] = &stats.Histogram{}
			}
			perOp[op].Merge(h)
			all.Merge(h)
		}
	}
	if all.N() == 0 {
		return
	}
	const usPerMs = 1000.0
	cr.P50LatencyMs = all.Quantile(0.50) / usPerMs
	cr.P90LatencyMs = all.Quantile(0.90) / usPerMs
	cr.P99LatencyMs = all.Quantile(0.99) / usPerMs
	cr.P999LatencyMs = all.Quantile(0.999) / usPerMs
	ops := make([]string, 0, len(perOp))
	for op := range perOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		h := perOp[op]
		cr.OpQuantiles = append(cr.OpQuantiles, OpQuantiles{
			Op:     op,
			Count:  h.N(),
			MeanMs: h.Mean() / usPerMs,
			P50Ms:  h.Quantile(0.50) / usPerMs,
			P90Ms:  h.Quantile(0.90) / usPerMs,
			P99Ms:  h.Quantile(0.99) / usPerMs,
			P999Ms: h.Quantile(0.999) / usPerMs,
		})
	}
}

// Result is one scenario run: its spec and every cell's outcome, in
// sweep order.
type Result struct {
	Name  string       `json:"name"`
	Spec  Spec         `json:"spec"`
	Cells []CellResult `json:"cells"`
}

// selectedColumns returns the spec's metric selection (all columns when
// unset, plus the quantile columns when histograms are on).
func (r *Result) selectedColumns() []string {
	if len(r.Spec.Metrics) == 0 {
		cols := MetricColumns()
		openload := r.Spec.Workload.Kind == KindOpenload
		if (r.Spec.Observe != nil && r.Spec.Observe.Histograms) || openload {
			cols = append(cols, QuantileColumns()...)
		}
		if openload {
			cols = append(cols, OpenloadColumns()...)
		}
		if len(r.Spec.Topology.Media) > 1 {
			cols = append(cols, SegmentColumns()...)
		}
		return cols
	}
	return r.Spec.Metrics
}

// Render formats the result as one row per cell over the selected metric
// columns, with trace timelines and durability verdicts appended.
func (r *Result) Render() string {
	var b strings.Builder
	b.WriteString(r.Name)
	if r.Spec.Description != "" {
		b.WriteString(" — " + r.Spec.Description)
	}
	b.WriteString("\n")
	cols := r.selectedColumns()
	fmt.Fprintf(&b, "%-16s", "cell")
	for _, c := range cols {
		fmt.Fprintf(&b, " %*s", columnWidth(c), c)
	}
	b.WriteString("\n")
	for _, cell := range r.Cells {
		fmt.Fprintf(&b, "%-16s", cell.Label)
		for _, c := range cols {
			v, ok := cell.Column(c)
			if !ok {
				fmt.Fprintf(&b, " %*s", columnWidth(c), "?")
				continue
			}
			fmt.Fprintf(&b, " %*.2f", columnWidth(c), v)
		}
		b.WriteString("\n")
	}
	r.renderCapacity(&b)
	for _, cell := range r.Cells {
		if cell.Durability != nil {
			d := cell.Durability
			fmt.Fprintf(&b, "%s: crashes=%d reboots=%d mean recovery=%.1fms nvram replay=%d",
				cell.Label, d.Crashes, d.Reboots, d.MeanRecoveryMs, d.RecoveredNVRAMBlocks)
			if d.ClientReboots > 0 {
				fmt.Fprintf(&b, " client reboots=%d", d.ClientReboots)
			}
			if d.BiodsLost > 0 {
				fmt.Fprintf(&b, " biods lost=%d", d.BiodsLost)
			}
			if d.Failovers > 0 {
				fmt.Fprintf(&b, " failovers=%d", d.Failovers)
			}
			if d.LinkOutages > 0 {
				fmt.Fprintf(&b, " link outages=%d", d.LinkOutages)
			}
			if d.StorageFaults > 0 {
				fmt.Fprintf(&b, " storage faults=%d", d.StorageFaults)
			}
			if d.DroppedNVRAMBlocks > 0 {
				fmt.Fprintf(&b, " nvram dropped=%d", d.DroppedNVRAMBlocks)
			}
			if d.Checked {
				fmt.Fprintf(&b, "  acked %d writes/%d KB  lost %d bytes",
					d.AckedWrites, d.AckedBytes/1024, d.LostBytes)
				if d.DroppedBuffered > 0 {
					fmt.Fprintf(&b, "  dropped write-behind %d writes/%d KB (permitted)",
						d.DroppedBuffered, d.DroppedBufferedBytes/1024)
				}
				if d.LostBytes > 0 && d.LossExpected {
					b.WriteString("  loss expected (scheduled storage fault): " + d.FirstLoss)
				} else if d.LostBytes > 0 {
					b.WriteString("  DURABILITY VIOLATED: " + d.FirstLoss)
				}
			} else {
				b.WriteString("  (no durability check)")
			}
			b.WriteString("\n")
		}
	}
	for _, cell := range r.Cells {
		if cell.GatherBatch == nil && cell.GatherCommitMs == nil {
			continue
		}
		fmt.Fprintf(&b, "%s: gather", cell.Label)
		if d := cell.GatherBatch; d != nil {
			fmt.Fprintf(&b, " batches=%d size mean=%.1f p50=%.0f p99=%.0f max=%.0f",
				d.Count, d.Mean, d.P50, d.P99, d.Max)
		}
		if d := cell.GatherCommitMs; d != nil {
			fmt.Fprintf(&b, "  commit ms mean=%.2f p50=%.2f p99=%.2f max=%.2f",
				d.Mean, d.P50, d.P99, d.Max)
		}
		b.WriteString("\n")
	}
	for _, cell := range r.Cells {
		if len(cell.Segments) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: segments", cell.Label)
		for _, sg := range cell.Segments {
			fmt.Fprintf(&b, " %s=%.1f%%/%ddg", sg.Name, sg.UtilPct, sg.Datagrams)
		}
		for _, br := range cell.Bridges {
			fmt.Fprintf(&b, "  %s fwd=%d", br.Name, br.Forwarded)
			if drops := br.DropsQueueFull + br.DropsLinkDown + br.DropsNoRoute; drops > 0 {
				fmt.Fprintf(&b, " drops=%d", drops)
			}
			if br.PeakQueue > 0 {
				fmt.Fprintf(&b, " peakq=%d", br.PeakQueue)
			}
		}
		b.WriteString("\n")
	}
	for _, cell := range r.Cells {
		if len(cell.OpQuantiles) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s per-op latency quantiles (ms):\n", cell.Label)
		fmt.Fprintf(&b, "  %-10s %10s %10s %10s %10s %10s %10s\n",
			"op", "n", "mean", "p50", "p90", "p99", "p999")
		for _, oq := range cell.OpQuantiles {
			fmt.Fprintf(&b, "  %-10s %10d %10.2f %10.2f %10.2f %10.2f %10.2f\n",
				oq.Op, oq.Count, oq.MeanMs, oq.P50Ms, oq.P90Ms, oq.P99Ms, oq.P999Ms)
		}
	}
	for _, cell := range r.Cells {
		if cell.TraceText != "" {
			b.WriteString(cell.TraceText)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// curves lays a load sweep out as one row per offered rate, rates
// ascending, and one column per label family ("std-1000"/"wg-1000" →
// families "std" and "wg").
func (r *Result) curves() (fams []string, offers []float64, rows map[float64]map[string]*CellResult) {
	fams, cells := r.Families()
	rows = map[float64]map[string]*CellResult{}
	for _, f := range fams {
		for _, c := range cells[f] {
			if rows[c.OfferedOpsPerSec] == nil {
				rows[c.OfferedOpsPerSec] = map[string]*CellResult{}
				offers = append(offers, c.OfferedOpsPerSec)
			}
			rows[c.OfferedOpsPerSec][f] = c
		}
	}
	sort.Float64s(offers)
	return fams, offers, rows
}

// renderCapacity appends the compact capacity-vs-offered-load table for
// openload sweeps: each curves cell shows achieved ops/s at the p99
// latency — the knee readable at a glance without opening the CSV. Only
// multi-cell openload sweeps produce it; every other workload's render
// is untouched.
func (r *Result) renderCapacity(b *strings.Builder) {
	if r.Spec.Workload.Kind != KindOpenload || len(r.Cells) < 2 {
		return
	}
	fams, offers, rows := r.curves()
	b.WriteString("capacity curve (achieved ops/s @ p99 ms):\n")
	fmt.Fprintf(b, "  %10s", "offered")
	for _, f := range fams {
		fmt.Fprintf(b, "  %19s", f)
	}
	b.WriteString("\n")
	for _, off := range offers {
		fmt.Fprintf(b, "  %10.0f", off)
		for _, f := range fams {
			if c := rows[off][f]; c != nil {
				fmt.Fprintf(b, "  %9.1f @ %7.2f", c.AchievedOpsPerSec, c.P99LatencyMs)
			} else {
				fmt.Fprintf(b, "  %19s", "-")
			}
		}
		b.WriteString("\n")
	}
}

func columnWidth(name string) int {
	if w := len(name); w > 10 {
		return w
	}
	return 10
}
