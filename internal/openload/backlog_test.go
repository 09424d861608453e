package openload

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestBacklogMatchesSliceModel runs a cell's worth of backlogs on one
// spare list through random Put/TryGet phases — filling past chunk
// boundaries and against the cap, draining to empty — and holds each to a
// slice model: what Put refuses, what TryGet returns and in what order,
// Len and the peak. Storage is conserved: every chunk ever made is either
// linked into a backlog or spare; a backlog of n tasks holds at most
// ceil(n/256) chunks plus its partly drained head; the cell makes exactly
// as many chunks as its backlogs held at once at their peak; and once all
// drain every chunk is spare.
func TestBacklogMatchesSliceModel(t *testing.T) {
	refused := 0
	for seq := 0; seq < 40; seq++ {
		rng := rand.New(rand.NewPCG(uint64(seq), 11))
		var pool chunks
		bs := make([]backlog, 1+rng.IntN(4))
		models := make([][]task, len(bs))
		peaks := make([]int, len(bs))
		for i := range bs {
			bs[i] = backlog{pool: &pool, cap: 1 + rng.IntN(3*chunkTasks)}
		}
		heldPeak, at := 0, sim.Time(0)
		for step := 0; step < 20000; step++ {
			i := rng.IntN(len(bs))
			b := &bs[i]
			// Phases of 500 steps lean toward filling or draining.
			if pFill := [...]float64{0.8, 0.2, 0.55}[step/500%3]; rng.Float64() < pFill {
				at++
				tk := task{at: at, op: workload.Op(rng.IntN(8)), file: rng.IntN(64), off: uint32(step)}
				want := len(models[i]) < b.cap
				if got := b.Put(tk); got != want {
					t.Fatalf("seq %d step %d: Put on %d of cap %d = %v", seq, step, len(models[i]), b.cap, got)
				}
				if want {
					models[i] = append(models[i], tk)
					peaks[i] = max(peaks[i], len(models[i]))
				} else {
					refused++
				}
			} else {
				got, ok := b.TryGet()
				if ok != (len(models[i]) > 0) || ok && got != models[i][0] {
					t.Fatalf("seq %d step %d: TryGet = %+v %v, model %v", seq, step, got, ok, models[i][:min(1, len(models[i]))])
				}
				if ok {
					models[i] = models[i][1:]
				}
			}
			held := 0
			for j := range bs {
				if b := &bs[j]; b.Len() != len(models[j]) || b.peak != peaks[j] {
					t.Fatalf("seq %d step %d: backlog %d Len %d peak %d, model %d %d", seq, step, j, b.Len(), b.peak, len(models[j]), peaks[j])
				}
				n, h := len(models[j]), linked(bs[j].head)
				if bound := (n+chunkTasks-1)/chunkTasks + min(n, 1); h > bound {
					t.Fatalf("seq %d step %d: backlog %d holds %d chunks for %d tasks, want at most %d", seq, step, j, h, n, bound)
				}
				held += h
			}
			heldPeak = max(heldPeak, held)
			if held+linked(pool.spare) != pool.made {
				t.Fatalf("seq %d step %d: %d chunks linked and %d spare, %d made", seq, step, held, linked(pool.spare), pool.made)
			}
		}
		for i := range bs {
			for _, want := range models[i] {
				if got, ok := bs[i].TryGet(); !ok || got != want {
					t.Fatalf("seq %d: draining backlog %d: %+v %v, want %+v", seq, i, got, ok, want)
				}
			}
			if _, ok := bs[i].TryGet(); ok || bs[i].head != nil || bs[i].tail != nil {
				t.Fatalf("seq %d: backlog %d not empty after draining its model", seq, i)
			}
		}
		if spare := linked(pool.spare); spare != pool.made || pool.made != heldPeak {
			t.Fatalf("seq %d: %d chunks spare of %d made; want all, and %d, the most held at once", seq, spare, pool.made, heldPeak)
		}
	}
	if refused == 0 {
		t.Fatal("no Put met the cap")
	}
}

// linked counts the chunks on a list.
func linked(c *chunk) int {
	n := 0
	for ; c != nil; c = c.next {
		n++
	}
	return n
}

// TestBacklogRefillAllocs: once a backlog has drained, filling it to the
// same depth again takes every chunk from the spare list and allocates
// nothing.
func TestBacklogRefillAllocs(t *testing.T) {
	const depth = 5*chunkTasks + 17
	b := backlog{pool: &chunks{}, cap: depth}
	cycle := func() {
		for i := 0; i < depth; i++ {
			b.Put(task{file: i})
		}
		for {
			if _, ok := b.TryGet(); !ok {
				break
			}
		}
	}
	cycle()
	made := b.pool.made
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 || b.pool.made != made {
		t.Errorf("refilling a drained backlog allocates %.1f objects and makes %d chunks, want 0 and 0", allocs, b.pool.made-made)
	}
}
