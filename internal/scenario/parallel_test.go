package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// TestOrderedPool pins the pool's one rule at one worker and at four: a
// failure (a stop or a panic) at index k lets every index below k run and
// dispatches none above it. Jobs above the first failure park at a gate
// the test opens after 50 ms, so a worker holds at most one of them: at
// four workers at most three indices past k are ever out, and a pool that
// kept dispatching would hand a fourth to the worker k ran on. At one
// worker none runs.
func TestOrderedPool(t *testing.T) {
	const n = 40
	for _, tc := range []struct {
		name string
		// job is the case's behaviour at index i; woke is closed by the
		// case when its higher-index panic has happened.
		job      func(workers, i int, woke chan struct{}) bool
		want     int // Ordered's return
		first    int // the lowest failed index (n: none)
		panicVal any // the panic that must surface, nil for none
	}{
		{
			name: "clean",
			job:  func(_, _ int, _ chan struct{}) bool { return false },
			want: n, first: n,
		},
		{
			name: "stop",
			job:  func(_, i int, _ chan struct{}) bool { return i == 10 },
			want: 10, first: 10,
		},
		{
			// Index 2 panics first in time; index 1's later panic is the
			// one an in-line loop would have raised, and it wins.
			name: "lower-panic-wins",
			job: func(workers, i int, woke chan struct{}) bool {
				switch i {
				case 1:
					if workers > 1 {
						<-woke
						time.Sleep(10 * time.Millisecond)
					}
					panic("low")
				case 2:
					close(woke)
					panic("high")
				}
				return false
			},
			first: 1, panicVal: "low",
		},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				var mu sync.Mutex
				ran := make([]int, n)
				gate := make(chan struct{})
				timer := time.AfterFunc(50*time.Millisecond, func() { close(gate) })
				defer timer.Stop()
				woke := make(chan struct{})
				var got int
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					got = Ordered(n, workers, func(_, i int) bool {
						mu.Lock()
						ran[i]++
						mu.Unlock()
						if i > tc.first && i != 2 {
							<-gate
						}
						return tc.job(workers, i, woke)
					})
				}()
				if panicked != tc.panicVal {
					t.Fatalf("panic %v, want %v", panicked, tc.panicVal)
				}
				if tc.panicVal == nil && got != tc.want {
					t.Errorf("Ordered returned %d, want %d", got, tc.want)
				}
				above := 0
				for i, c := range ran {
					switch {
					case c > 1:
						t.Errorf("index %d ran %d times", i, c)
					case i <= tc.first && c == 0:
						t.Errorf("index %d below the first failure %d never ran", i, tc.first)
					case i > tc.first && c == 1:
						above++
					}
				}
				if limit := workers - 1; above > limit {
					t.Errorf("%d indices above the first failure ran, want at most %d", above, limit)
				}
			})
		}
	}
}

// laddisSweepSpec is a small multi-cell LADDIS sweep (the figure2 load
// curve, trimmed): the single-server rig assembly under the parallel
// engine.
func laddisSweepSpec(t *testing.T) Spec {
	t.Helper()
	spec, ok := Lookup("figure2")
	if !ok {
		t.Fatal("figure2 not registered")
	}
	if len(spec.Cells) > 4 {
		spec.Cells = spec.Cells[:4]
	}
	l := *spec.Workload.LADDIS
	l.Measure = 1 * sim.Second
	spec.Workload.LADDIS = &l
	return spec
}

// faultedClusterSpec is a durability-checked storage-fault sweep: the
// cluster assembly, crash recovery and the leak audit under the
// parallel engine.
func faultedClusterSpec(t *testing.T) Spec {
	t.Helper()
	spec, ok := Lookup("mediastorm")
	if !ok {
		t.Fatal("mediastorm not registered")
	}
	return shrink(spec)
}

// TestParallelRunByteIdentical is the parallel engine's core contract:
// the same spec run sequentially (workers=1) and across a pool
// (workers=4) yields identical output — Render bytes, the full
// serialized result, and every metric column — for both assemblies.
func TestParallelRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweeps in -short mode")
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"laddis-sweep", laddisSweepSpec(t)},
		{"faulted-cluster", faultedClusterSpec(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := RunWorkers(tc.spec, 1)
			if err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			par, err := RunWorkers(tc.spec, 4)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if a, b := seq.Render(), par.Render(); a != b {
				t.Errorf("Render differs between workers=1 and workers=4:\n--- sequential\n%s\n--- parallel\n%s", a, b)
			}
			aj, err := json.Marshal(seq)
			if err != nil {
				t.Fatal(err)
			}
			bj, err := json.Marshal(par)
			if err != nil {
				t.Fatal(err)
			}
			if string(aj) != string(bj) {
				t.Errorf("serialized results differ between workers=1 and workers=4")
			}
			for i := range seq.Cells {
				if !reflect.DeepEqual(seq.Cells[i].Metrics, par.Cells[i].Metrics) {
					t.Errorf("cell %s: metric columns differ:\n%+v\n%+v",
						seq.Cells[i].Label, seq.Cells[i].Metrics, par.Cells[i].Metrics)
				}
			}
		})
	}
}

// TestParallelFuzzMatchesSequential plants the known remount bug and
// runs the same 200-run campaign at workers=1 and workers=4: the
// verdict — failing run index, class, detail, shrunk spec, shrink-run
// count — must match byte for byte. Lowest-failing-index selection plus
// per-run (Seed, i) generation makes the campaign width invisible.
func TestParallelFuzzMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaigns in -short mode")
	}
	ufs.DebugSkipIndirectClaim = true
	defer func() { ufs.DebugSkipIndirectClaim = false }()

	seqReach, seq := Fuzz(FuzzConfig{Runs: 200, Seed: 6, Workers: 1})
	parReach, par := Fuzz(FuzzConfig{Runs: 200, Seed: 6, Workers: 4})
	if seqReach.String() != parReach.String() {
		t.Fatalf("reach table differs between workers=1 and workers=4:\n--- sequential\n%s--- parallel\n%s", seqReach, parReach)
	}
	switch {
	case seq == nil || par == nil:
		t.Fatalf("planted bug missed: sequential=%v parallel=%v", seq, par)
	case seq.String() != par.String():
		t.Fatalf("campaign verdict differs between workers=1 and workers=4:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
	if seq.Run != par.Run {
		t.Fatalf("failure seed differs: run %d vs %d", seq.Run, par.Run)
	}
}

// TestCellsChargePrivateLedger is the per-sim accounting regression
// test: a scenario run must not move the process-global block counters
// at all — every one of its pools charges the cell's own ledger, which
// is what makes the leak audit exact.
func TestCellsChargePrivateLedger(t *testing.T) {
	live0, refs0 := block.Live(), block.TotalRefs()
	res := MustRun(faultedClusterSpec(t))
	for _, c := range res.Cells {
		if c.Durability == nil {
			t.Fatalf("%s: no durability audit", c.Label)
		}
		if c.Durability.UnaccountedRefs != 0 {
			t.Errorf("%s: %d unaccounted refs", c.Label, c.Durability.UnaccountedRefs)
		}
	}
	if l, r := block.Live(), block.TotalRefs(); l != live0 || r != refs0 {
		t.Errorf("scenario run moved the global ledger: live %d->%d, refs %d->%d",
			live0, l, refs0, r)
	}
}

// TestLeakAuditImmuneToGlobalNoise reproduces the latent contamination
// the per-cell ledger fixes: the old audit diffed global counters
// against a baseline, so any concurrent pool activity could fake or
// mask a leak. Here a background goroutine churns (and deliberately
// holds) global-ledger buffers for the whole run, and every cell's
// audit must still read exactly zero.
func TestLeakAuditImmuneToGlobalNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted sweep in -short mode")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := block.NewPool()
		var held []*block.Buf
		for {
			select {
			case <-stop:
				for _, b := range held {
					b.Release()
				}
				return
			default:
			}
			held = append(held, p.Get())
			if len(held) > 64 {
				held[0].Release()
				held = held[1:]
			}
			runtime.Gosched()
		}
	}()
	res, err := RunWorkers(faultedClusterSpec(t), 4)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Durability == nil {
			t.Fatalf("%s: no durability audit", c.Label)
		}
		if c.Durability.UnaccountedRefs != 0 {
			t.Errorf("%s: global-ledger noise contaminated the audit: %d unaccounted refs",
				c.Label, c.Durability.UnaccountedRefs)
		}
	}
}
