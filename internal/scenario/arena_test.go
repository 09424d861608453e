package scenario

import (
	"encoding/json"
	"testing"

	"repro/internal/block"
)

// copySweep3 is a 3-cell 4 MB copy on the paper's striped FDDI server:
// every cell issues the same few hundred buffers, so the first cell's
// memory is all the later ones need.
func copySweep3() Spec {
	spec := Copy("arena-copy", "3-cell 4 MB copy", "fddi", false, 3, 1.8, 4, nil)
	spec.Cells = []Cell{CopyCell(4, false), CopyCell(4, true), CopyCell(8, true)}
	return spec
}

// cellJSON is a cell's whole serialized result: what "equal" means for
// two runs of one cell.
func cellJSON(t *testing.T, cr CellResult) string {
	t.Helper()
	b, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// soloCells runs every cell of spec as a one-cell spec of its own.
func soloCells(t *testing.T, spec Spec) []string {
	t.Helper()
	var out []string
	for _, cell := range spec.Cells {
		solo := spec
		solo.Cells = []Cell{cell}
		res, err := RunWorkers(solo, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cellJSON(t, res.Cells[0]))
	}
	return out
}

func resolveAll(t *testing.T, spec Spec) []*resolved {
	t.Helper()
	var rcs []*resolved
	for i, cell := range spec.cells() {
		rc, err := spec.resolve(cell, i)
		if err != nil {
			t.Fatal(err)
		}
		rcs = append(rcs, rc)
	}
	return rcs
}

// TestCellsRunOnTheFirstCellsBuffers is the arena's acceptance test: on
// one worker, cells 2 and 3 of a sweep make no buffer of their own (the
// arena's counter, not MemStats), and running on recycled memory changes
// no result: each cell equals the same cell run alone, at any -j.
func TestCellsRunOnTheFirstCellsBuffers(t *testing.T) {
	spec := copySweep3()
	solo := soloCells(t, spec)

	ar := block.NewArena()
	var fresh []uint64
	for i, rc := range resolveAll(t, spec) {
		cr := runCellTimed(rc, ar, nil)
		cr.Label, cr.Seed = rc.label, rc.seed
		if got := cellJSON(t, cr); got != solo[i] {
			t.Errorf("cell %s on a shared arena differs from its solo run:\n%s\n%s", rc.label, got, solo[i])
		}
		fresh = append(fresh, ar.Fresh())
	}
	// 4 MB of platters is 512 buffers before the cache and the inode blocks.
	if fresh[0] < 512 {
		t.Errorf("cell 1 made %d buffers, want at least the file's 512", fresh[0])
	}
	if fresh[1] != fresh[0] || fresh[2] != fresh[0] {
		t.Errorf("fresh buffers after cells 1, 2, 3: %v; cells 2 and 3 must make none", fresh)
	}

	for _, workers := range []int{1, 3} {
		res, err := RunWorkers(spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, cr := range res.Cells {
			if got := cellJSON(t, cr); got != solo[i] {
				t.Errorf("-j %d: cell %s differs from its solo run", workers, cr.Label)
			}
		}
	}
}

// TestPanickedCellForfeitsItsBuffers: a cell that panics mid-run is never
// retired, and the worker's next cell is none the worse — its result
// equals its solo run. The second cell's filesystem is cut to one inode
// block, so its LADDIS set-up runs out of inodes 31 files in and panics
// with every nfsd and load process suspended.
func TestPanickedCellForfeitsItsBuffers(t *testing.T) {
	spec := laddisSweepSpec(t)
	spec.Cells = spec.Cells[:3]
	solo := soloCells(t, spec)
	rcs := resolveAll(t, spec)
	rcs[1].servers.Inodes = 1

	crs := make([]CellResult, len(rcs))
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		runCellsParallel(rcs, crs, 1, nil) // one worker: cell 3 follows the panic on it
	}()
	if panicked == nil {
		t.Fatal("the doctored cell did not panic")
	}
	for _, i := range []int{0, 2} {
		crs[i].Label, crs[i].Seed = rcs[i].label, rcs[i].seed
		if got := cellJSON(t, crs[i]); got != solo[i] {
			t.Errorf("cell %s beside a panicked cell differs from its solo run", rcs[i].label)
		}
	}
}

// TestResultsSurviveScribbledBuffers is the dirty-buffer audit. With
// block.Debug on, every buffer a cell retires is filled with 0xA5 before
// the next cell gets it; the results must not move. That pins two things:
// no Pool.Get call site leans on a fresh make being zero, and no
// CellResult aliases a buffer (it would read 0xA5 here). One sweep per
// workload kind on the rig, and the crashing cluster.
func TestResultsSurviveScribbledBuffers(t *testing.T) {
	knee, _ := Lookup("kneecurve")
	crash, _ := Lookup("crash")
	for _, spec := range []Spec{copySweep3(), laddisSweepSpec(t), shrink(knee), shrink(crash)} {
		run := func(scribble bool) string {
			block.Debug = scribble
			defer func() { block.Debug = false }()
			res, err := RunWorkers(spec, 1)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return res.Render() + string(b)
		}
		if clean, scribbled := run(false), run(true); clean != scribbled {
			t.Errorf("%s: results differ once retired buffers are scribbled:\n--- clean\n%s\n--- scribbled\n%s",
				spec.Name, clean, scribbled)
		}
	}
}
