package scenario

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// observeSpec is a small gathering LADDIS cell with the full observe
// plane on — every instrument exercised in one fast run.
func observeSpec() Spec {
	return Spec{
		Name: "obs-test",
		Seed: 11,
		Topology: Topology{
			Net:     "ethernet",
			Clients: []ClientGroup{{Count: 2, Biods: 2}},
			Servers: Servers{Count: 1, Gathering: true, Presto: true},
		},
		Workload: Workload{
			Kind: KindLADDIS,
			LADDIS: &LADDISWorkload{
				Files: 4, FileBlocks: 4, Procs: 2,
				OfferedOpsPerSec: 100, Measure: 2 * sim.Second, Seed: 3,
			},
		},
		Observe: &Observe{Trace: true, Probes: true, Histograms: true},
	}
}

// TestObserveDoesNotPerturbMetrics is the zero-cost contract from the
// result side: the full observe plane on vs off must leave every base
// metric column bit-identical (the instruments read, they never sleep,
// schedule around the workload, or draw randomness).
func TestObserveDoesNotPerturbMetrics(t *testing.T) {
	on := observeSpec()
	off := observeSpec()
	off.Observe = nil

	ron, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ron.Cells {
		for _, col := range MetricColumns() {
			a, _ := ron.Cells[i].Column(col)
			b, _ := roff.Cells[i].Column(col)
			if a != b {
				t.Errorf("cell %d: observe perturbed %s: %v vs %v",
					i, col, a, b)
			}
		}
	}
}

// TestObserveTraceDeterministic runs the instrumented spec twice and
// demands byte-identical trace serialization — the contract that makes a
// trace file a reproducible artifact of (spec, seed).
func TestObserveTraceDeterministic(t *testing.T) {
	serialize := func() []byte {
		res, err := Run(observeSpec())
		if err != nil {
			t.Fatal(err)
		}
		var traces []*obs.Trace
		for i := range res.Cells {
			tr := res.Cells[i].Trace
			if tr == nil || len(tr.Events) == 0 {
				t.Fatalf("cell %d: no trace events collected", i)
			}
			traces = append(traces, tr)
		}
		var b bytes.Buffer
		if err := obs.WriteTraces(&b, traces); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := serialize(), serialize()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs serialized different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestObserveQuantilesAndProbes checks the two remaining instruments on
// one run: monotone nonzero latency quantile columns with a per-op
// table, and a probe series sampled on the simulated clock.
func TestObserveQuantilesAndProbes(t *testing.T) {
	res, err := Run(observeSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	qs := []float64{c.P50LatencyMs, c.P90LatencyMs, c.P99LatencyMs, c.P999LatencyMs}
	if qs[0] <= 0 {
		t.Fatalf("p50 latency not positive: %v", qs)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
	if len(c.OpQuantiles) == 0 {
		t.Fatal("no per-op quantile table")
	}
	for _, oq := range c.OpQuantiles {
		if oq.Count <= 0 || oq.P999Ms < oq.P50Ms {
			t.Errorf("bad per-op row: %+v", oq)
		}
	}
	if c.Series == nil || c.Series.N() == 0 {
		t.Fatal("no probe samples collected")
	}
	for i := 1; i < len(c.Series.Times); i++ {
		if c.Series.Times[i] <= c.Series.Times[i-1] {
			t.Fatalf("probe times not increasing at %d: %v", i, c.Series.Times[i])
		}
	}
	if c.GatherBatch == nil || c.GatherBatch.Count == 0 {
		t.Fatal("gathering cell reported no batch-size distribution")
	}
	if c.GatherCommitMs == nil || c.GatherCommitMs.Count == 0 {
		t.Fatal("gathering cell reported no commit-latency distribution")
	}
}

// TestObserveAbsentCollectsNothing pins the disabled path: no Observe
// section, no artifacts, no quantile columns.
func TestObserveAbsentCollectsNothing(t *testing.T) {
	spec := observeSpec()
	spec.Observe = nil
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.Trace != nil || c.Series != nil {
		t.Fatal("observe-off cell collected artifacts")
	}
	if c.P50LatencyMs != 0 || len(c.OpQuantiles) != 0 {
		t.Fatal("observe-off cell reported quantiles")
	}
}

// TestObserveOnClusterFollowsReboots crashes the server mid-stream with
// tracing on: server-side spans must keep flowing after the reboot
// rebuilds the server (the OnServerUp re-hook path), and the run must
// stay loss-free.
func TestObserveOnClusterFollowsReboots(t *testing.T) {
	spec := Spec{
		Name: "obs-crash",
		Seed: 5,
		Topology: Topology{
			Net:      "ethernet",
			Clients:  []ClientGroup{{Count: 1, Biods: 2, MaxRetries: 100}},
			Servers:  Servers{Count: 1, Gathering: true, Presto: true},
			Assembly: AssemblyCluster,
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}},
		Faults: Faults{
			CheckDurability: true,
			Events:          []FaultEvent{serverCrash(0, 500*sim.Millisecond, 0, 100*sim.Millisecond, 1)},
		},
		Observe: &Observe{Trace: true, Probes: true},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.LostBytes != 0 {
		t.Fatalf("lost %d acked bytes", c.LostBytes)
	}
	if c.Trace == nil {
		t.Fatal("no trace collected")
	}
	// Find a server-side span that started after the reboot completed —
	// proof the rebuilt server was re-hooked.
	crashAt := sim.Time(500 * sim.Millisecond)
	var post bool
	for _, ev := range c.Trace.Events {
		if ev.Phase == 'X' && ev.Cat == "nfs" && ev.TS > crashAt {
			post = true
			break
		}
	}
	if !post {
		t.Fatal("no nfsd span recorded after the crash; reboot re-hook lost the server")
	}
}
