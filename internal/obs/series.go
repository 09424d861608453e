package obs

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/sim"
)

// TimeSeries holds periodic probe samples for one scenario cell: a
// fixed column set and one row per sim-clock sample tick.
type TimeSeries struct {
	Label string   // cell label, carried into CSV/JSON export
	Cols  []string // metric names, excluding the leading time column
	Times []sim.Time
	Rows  [][]float64
}

// NewTimeSeries returns an empty series with the given columns.
func NewTimeSeries(label string, cols ...string) *TimeSeries {
	return &TimeSeries{Label: label, Cols: cols}
}

// Sample appends one row; vals must match Cols.
func (s *TimeSeries) Sample(t sim.Time, vals ...float64) {
	if len(vals) != len(s.Cols) {
		panic("obs: TimeSeries.Sample arity mismatch")
	}
	row := make([]float64, len(vals))
	copy(row, vals)
	s.Times = append(s.Times, t)
	s.Rows = append(s.Rows, row)
}

// N reports the number of samples taken.
func (s *TimeSeries) N() int { return len(s.Times) }

// WriteSeriesCSV concatenates multiple cell series into one CSV with a
// shared header: the union of every series' columns in first-seen
// order. Sweeps whose cells probe different hardware (a segment-count
// sweep grows the fabric cell by cell) still share one labeled header;
// a row leaves the columns its cell does not probe empty.
func WriteSeriesCSV(w io.Writer, all []*TimeSeries) error {
	bw := bufio.NewWriter(w)
	var cols []string
	idx := make(map[string]int)
	for _, s := range all {
		if s == nil {
			continue
		}
		for _, c := range s.Cols {
			if _, ok := idx[c]; !ok {
				idx[c] = len(cols)
				cols = append(cols, c)
			}
		}
	}
	bw.WriteString("cell,time_s")
	for _, c := range cols {
		bw.WriteString(",")
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	row := make([]string, len(cols))
	for _, s := range all {
		if s == nil {
			continue
		}
		slots := make([]int, len(s.Cols))
		for j, c := range s.Cols {
			slots[j] = idx[c]
		}
		for i, t := range s.Times {
			for j := range row {
				row[j] = ""
			}
			for j, v := range s.Rows[i] {
				row[slots[j]] = fmt.Sprintf("%g", v)
			}
			fmt.Fprintf(bw, "%s,%.6f", s.Label, t.Seconds())
			for _, v := range row {
				bw.WriteString(",")
				bw.WriteString(v)
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
