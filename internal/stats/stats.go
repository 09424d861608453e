// Package stats provides the measurement primitives used by every
// experiment: operation and byte counters, latency recorders and their
// histograms, and the paper's tables and curves, all in virtual time.
// Busy time (CPU, disk arm, medium) is kept by sim.Resource.
package stats

import (
	"fmt"

	"repro/internal/sim"
)

// Counter is a monotonically increasing event count with an associated byte
// total; the delta of two snapshots (Sub) is an interval's ops and bytes.
type Counter struct {
	Ops   uint64
	Bytes uint64
}

// Add records one operation moving n bytes.
func (c *Counter) Add(n int) {
	c.Ops++
	c.Bytes += uint64(n)
}

// Sub returns the counter delta c - o.
func (c Counter) Sub(o Counter) Counter {
	return Counter{Ops: c.Ops - o.Ops, Bytes: c.Bytes - o.Bytes}
}

// Latency streams response-time samples into bounded memory: the
// histogram's exact sum and count back the mean, its exact running max
// backs Max, and its log-scale buckets back percentile estimates. No
// per-sample record is kept, so 100x10 sweep grids and thousand-seed fuzz
// campaigns hold the same memory per worker as a single cell. Like its
// Histogram, a Latency is handed over by pointer, not copied.
type Latency struct {
	hist Histogram
}

// Record adds one sample. Negative durations clamp to zero.
func (l *Latency) Record(d sim.Duration) { l.hist.Record(int64(d)) }

// N reports the number of samples.
func (l *Latency) N() int { return int(l.hist.Count) }

// Mean reports the average sample, or 0 with no samples. It is exact
// (integer sum over count), not a histogram estimate.
func (l *Latency) Mean() sim.Duration {
	if l.hist.Count == 0 {
		return 0
	}
	return sim.Duration(l.hist.Sum / l.hist.Count)
}

// Percentile estimates the p-th percentile (0 < p <= 100) from the
// histogram: linear interpolation within the covering log-scale bucket,
// clamped to the observed min/max.
func (l *Latency) Percentile(p float64) sim.Duration {
	return sim.Duration(l.hist.Quantile(p / 100))
}

// Max reports the largest sample, exactly.
func (l *Latency) Max() sim.Duration { return sim.Duration(l.hist.MaxSeen) }

// Hist exposes the underlying histogram for merging into roll-ups.
func (l *Latency) Hist() *Histogram { return &l.hist }

// Table is a simple fixed-column text table matching the paper's layout:
// one row label column followed by one column per parameter value.
type Table struct {
	Title   string
	Columns []string // e.g. biod counts
	rows    []tableRow
}

type tableRow struct {
	label string
	cells []string
}

// AddRow appends a labelled row of pre-formatted cells.
func (t *Table) AddRow(label string, cells ...string) {
	t.rows = append(t.rows, tableRow{label: label, cells: cells})
}

// AddFloatRow appends a row of numbers formatted with the given precision.
func (t *Table) AddFloatRow(label string, prec int, vals ...float64) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = fmt.Sprintf("%.*f", prec, v)
	}
	t.AddRow(label, cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	labelW := 0
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r.cells {
			if i < len(colW) && len(c) > colW[i] {
				colW[i] = len(c)
			}
		}
	}
	out := t.Title + "\n"
	out += fmt.Sprintf("%-*s", labelW, "")
	for i, c := range t.Columns {
		out += fmt.Sprintf("  %*s", colW[i], c)
	}
	out += "\n"
	for _, r := range t.rows {
		out += fmt.Sprintf("%-*s", labelW, r.label)
		for i, c := range r.cells {
			w := 0
			if i < len(colW) {
				w = colW[i]
			}
			out += fmt.Sprintf("  %*s", w, c)
		}
		out += "\n"
	}
	return out
}
