package scenario

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// The paper's layouts. Each is a pure function of a Result, attached to
// the registry entries that print in it (Entry.Render) and assuming the
// sweep shape those entries build; everything else prints through
// (*Result).Render.

// Families groups a sweep's cells by label family — the label up to its
// last "-", so "std-b7" and "std-1000" both belong to "std" — families
// in first-seen order, each family's cells in sweep order.
func (r *Result) Families() (names []string, cells map[string][]*CellResult) {
	cells = map[string][]*CellResult{}
	for i := range r.Cells {
		f := r.Cells[i].Label
		if j := strings.LastIndex(f, "-"); j > 0 {
			f = f[:j]
		}
		if cells[f] == nil {
			names = append(names, f)
		}
		cells[f] = append(cells[f], &r.Cells[i])
	}
	return names, cells
}

var copyTableRows = []struct{ label, column string }{
	{"client write speed (KB/sec.)", "client_kb_per_sec"},
	{"server cpu util. (%)", "cpu_percent"},
	{"server disk (KB/sec)", "disk_kb_per_sec"},
	{"server disk (trans/sec)", "disk_trans_per_sec"},
}

// renderCopyTable is the Tables 1-6 grid: one column per biod count, the
// four measured rows without and then with write gathering.
func renderCopyTable(r *Result) string {
	_, halves := r.Families()
	tab := &stats.Table{Title: r.Spec.Description}
	for _, c := range halves["std"] {
		tab.Columns = append(tab.Columns, strings.TrimPrefix(c.Label, "std-b"))
	}
	tab.AddRow("# of Client Biods")
	for _, half := range []struct{ title, family string }{
		{"Without Write Gathering", "std"},
		{"With Write Gathering", "wg"},
	} {
		tab.AddRow(half.title)
		for _, row := range copyTableRows {
			vals := make([]float64, len(halves[half.family]))
			for i, c := range halves[half.family] {
				vals[i], _ = c.Column(row.column)
			}
			tab.AddFloatRow(row.label, 0, vals...)
		}
	}
	return tab.String()
}

// renderTimelines is Figure 1: each build's traffic timeline.
func renderTimelines(r *Result) string {
	texts := make([]string, len(r.Cells))
	for i, c := range r.Cells {
		texts[i] = c.TraceText
	}
	return strings.Join(texts, "\n")
}

// renderFigure is the Figures 2-3 layout: both builds' curves side by
// side, one row per offered load, and the SPEC SFS 1.0 capacity of each —
// the highest achieved rate whose average latency is at most 50 ms.
func renderFigure(r *Result) string {
	_, offers, rows := r.curves()
	var b strings.Builder
	b.WriteString(r.Spec.Description + "\n")
	fmt.Fprintf(&b, "%10s  %28s  %28s\n", "", "WITHOUT GATHERING", "WITH GATHERING")
	fmt.Fprintf(&b, "%10s  %10s %8s %8s  %10s %8s %8s\n",
		"offered", "achieved", "avg ms", "cpu %", "achieved", "avg ms", "cpu %")
	var capOps, capMs [2]float64
	for _, off := range offers {
		fmt.Fprintf(&b, "%10.0f", off)
		for i, family := range []string{"std", "wg"} {
			c := rows[off][family]
			fmt.Fprintf(&b, "  %10.1f %8.2f %8.1f", c.AchievedOpsPerSec, c.AvgLatencyMs, c.CPUPercent)
			if c.AvgLatencyMs <= 50 && c.AchievedOpsPerSec > capOps[i] {
				capOps[i], capMs[i] = c.AchievedOpsPerSec, c.AvgLatencyMs
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "capacity @50ms: without=%.0f ops/s (%.1f ms)  with=%.0f ops/s (%.1f ms)  delta=%+.1f%%\n",
		capOps[0], capMs[0], capOps[1], capMs[1], 100*(capOps[1]-capOps[0])/capOps[0])
	return b.String()
}

// renderScaleGrid is the clients x servers grid, one row per cell.
func renderScaleGrid(r *Result) string {
	var b strings.Builder
	b.WriteString(r.Spec.Description + "\n")
	fmt.Fprintf(&b, "%-10s %8s  %9s %8s %8s %8s %8s %9s %7s\n",
		"cell", "offered", "achieved", "avg ms", "p95 ms", "cpu avg", "cpu max", "disk t/s", "errors")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-10s %8.0f  %9.1f %8.2f %8.2f %7.1f%% %7.1f%% %9.0f %7d\n",
			c.Label, c.OfferedOpsPerSec, c.AchievedOpsPerSec, c.AvgLatencyMs, c.P95LatencyMs,
			c.CPUPercent, c.CPUMaxPercent, c.DiskTps, c.Errors)
	}
	return b.String()
}

// renderCrashReport is the crash/recovery report, one block per cell:
// what the injector did, what the durability checker found, and what the
// clients saw of the outages.
func renderCrashReport(r *Result) string {
	blocks := make([]string, len(r.Cells))
	for i, c := range r.Cells {
		var b strings.Builder
		b.WriteString(r.Spec.Description)
		if p := r.Spec.Cells[i].Presto; p != nil && *p {
			b.WriteString(", Presto")
		}
		d := c.Durability
		fmt.Fprintf(&b, "\n  crashes=%d reboots=%d  mean recovery=%.1fms  nvram replay=%d blocks\n",
			d.Crashes, d.Reboots, d.MeanRecoveryMs, d.RecoveredNVRAMBlocks)
		fmt.Fprintf(&b, "  acked: %d writes / %d KB   lost: %d bytes",
			d.AckedWrites, d.AckedBytes/1024, d.LostBytes)
		if d.LostBytes > 0 {
			b.WriteString("  DURABILITY VIOLATED: " + d.FirstLoss)
		}
		fmt.Fprintf(&b, "\n  client view: %d retransmissions, %d reboot detections, %.0f KB/s over %.2fs\n",
			c.Retransmissions, c.RebootsSeen, c.ClientKBps, c.ElapsedSec)
		blocks[i] = b.String()
	}
	return strings.Join(blocks, "\n")
}
