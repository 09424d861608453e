package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCounterRates(t *testing.T) {
	var c Counter
	c.Add(8192)
	c.Add(8192)
	if c.Ops != 2 || c.Bytes != 16384 {
		t.Fatalf("counter = %+v", c)
	}
}

func TestCounterSub(t *testing.T) {
	a := Counter{Ops: 10, Bytes: 100}
	b := Counter{Ops: 4, Bytes: 30}
	d := a.Sub(b)
	if d.Ops != 6 || d.Bytes != 70 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestLatencyStats(t *testing.T) {
	var l Latency
	for _, d := range []sim.Duration{10, 20, 30, 40, 100} {
		l.Record(d * sim.Millisecond)
	}
	if l.N() != 5 {
		t.Fatalf("N = %d", l.N())
	}
	if got := l.Mean(); got != 40*sim.Millisecond {
		t.Fatalf("Mean = %v", got)
	}
	if got := l.Max(); got != 100*sim.Millisecond {
		t.Fatalf("Max = %v", got)
	}
	// Percentiles are histogram estimates: bounded by the observed range
	// and ordered, not exact order statistics.
	p50, p100 := l.Percentile(50), l.Percentile(100)
	if p50 < 10*sim.Millisecond || p50 > 40*sim.Millisecond {
		t.Fatalf("P50 = %v, want within [10ms, 40ms]", p50)
	}
	if p100 != 100*sim.Millisecond {
		t.Fatalf("P100 = %v, want the clamped max", p100)
	}
	if p50 > p100 {
		t.Fatalf("percentiles not monotone: P50 %v > P100 %v", p50, p100)
	}
}

// TestLatencyConstantMemory is the streaming contract: a million samples
// must not grow the recorder — it has no per-sample storage to grow.
func TestLatencyConstantMemory(t *testing.T) {
	var l Latency
	for i := 0; i < 1_000_000; i++ {
		l.Record(sim.Duration(i % 50000))
	}
	if l.N() != 1_000_000 {
		t.Fatalf("N = %d", l.N())
	}
	if l.Hist().Count != 1_000_000 {
		t.Fatalf("histogram count = %d", l.Hist().Count)
	}
	if m := l.Mean(); m != sim.Duration(24999) && m != sim.Duration(25000) {
		t.Fatalf("Mean = %v", m)
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(95) != 0 || l.Max() != 0 {
		t.Fatal("empty latency stats not zero")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var e Latency
		_ = e.Mean() + e.Percentile(99) + e.Max() + sim.Duration(e.Hist().Quantile(0.5))
	}); allocs != 0 || l.Hist().buckets != nil {
		t.Fatalf("an empty Latency allocated %v objects and holds %d buckets", allocs, len(l.Hist().buckets))
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(samples []uint16, p uint8) bool {
		if len(samples) == 0 {
			return true
		}
		var l Latency
		var max sim.Duration
		for _, s := range samples {
			d := sim.Duration(s)
			l.Record(d)
			if d > max {
				max = d
			}
		}
		pct := float64(p%100) + 1
		v := l.Percentile(pct)
		return v >= 0 && v <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "Demo", Columns: []string{"0", "15"}}
	tab.AddRow("label only")
	tab.AddFloatRow("speed", 0, 165.4, 674.2)
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "165") || !strings.Contains(out, "674") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}
