package scenario

import (
	"encoding/json"
	"reflect"
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
		cr.Label, cr.Seed = rc.label, rc.cfg.Seed
		if got := cellJSON(t, cr); got != solo[i] {
			t.Errorf("cell %s on a shared arena differs from its solo run:\n%s\n%s", rc.label, got, solo[i])
		}
		fresh = append(fresh, ar.Fresh())
	}
	// The 4 MB file is 512 aligned blocks of the audit pattern, which are
	// the cell's 256 pattern pages twice over: the cell makes those pages,
	// its metadata blocks and its few lent tables, and no buffer per file
	// block.
	if fresh[0] <= 256 || fresh[0] >= 512 {
		t.Errorf("cell 1 made %d buffers and tables, want the 256 pattern pages, the metadata blocks, the tables and fewer than the file's 512", fresh[0])
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
// retired, and no cell runs after it on its worker, so nothing reuses the
// buffers it forfeited: the panic surfaces on the caller, the cell before
// it equals its solo run, and the cell after it never starts. The second
// cell's filesystem is cut to one inode block, so its LADDIS set-up runs
// out of inodes 31 files in and panics with every nfsd and load process
// suspended. The job is runEngine's.
func TestPanickedCellForfeitsItsBuffers(t *testing.T) {
	spec := laddisSweepSpec(t)
	spec.Cells = spec.Cells[:3]
	solo := soloCells(t, spec)
	rcs := resolveAll(t, spec)
	rcs[1].cfg.Inodes = 1

	ar := block.NewArena()
	crs := make([]CellResult, len(rcs))
	var started []int
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		Ordered(len(rcs), 1, func(_, i int) bool {
			started = append(started, i)
			crs[i] = runCellTimed(rcs[i], ar, nil)
			return crs[i].err != nil
		})
	}()
	if panicked == nil {
		t.Fatal("the doctored cell did not panic")
	}
	if !reflect.DeepEqual(started, []int{0, 1}) {
		t.Errorf("cells started %v; the cell after the panic must not run", started)
	}
	crs[0].Label, crs[0].Seed = rcs[0].label, rcs[0].cfg.Seed
	if got := cellJSON(t, crs[0]); got != solo[0] {
		t.Errorf("cell %s before a panicked cell differs from its solo run", rcs[0].label)
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

// TestMixedSweepOnOneArenaMatchesSoloRuns is the lending audit. Cells of
// every kind the store lends to — LADDIS, a Presto copy, a crash with its
// remount — run one after another on one worker's arena, each on a ledger
// with Debug on, so every byte table a cell retires (buffers, wire slabs)
// is scribbled with 0xA5 and every other table (dup-cache records and
// index, block maps) is cleared before the next cell is lent it. Each
// cell's Result JSON must equal the same cell run alone on a fresh arena:
// a result that aliased a finished cell's slab, table or buffer, or a
// Lend caller that leaned on what the last tenant left, would differ.
func TestMixedSweepOnOneArenaMatchesSoloRuns(t *testing.T) {
	laddis := laddisSweepSpec(t)
	laddis.Cells = laddis.Cells[:2]
	presto := Copy("arena-presto", "4 MB copy to a Presto server", "fddi", true, 1, 1.8, 4, nil)
	presto.Cells = []Cell{CopyCell(4, true)}
	crash, _ := Lookup("crash")
	crash = shrink(crash)
	crash.Cells = crash.Cells[:1]

	type cell struct {
		rc   *resolved
		solo string
	}
	var l, p, c []cell
	for _, k := range []struct {
		spec  Spec
		cells *[]cell
	}{{laddis, &l}, {presto, &p}, {crash, &c}} {
		solo := soloCells(t, k.spec)
		for i, rc := range resolveAll(t, k.spec) {
			*k.cells = append(*k.cells, cell{rc, solo[i]})
		}
	}

	ar := block.NewArena()
	for _, cl := range []cell{l[0], p[0], c[0], l[1], p[0]} {
		acct := ar.NewAccounting()
		acct.Debug = true
		cr := runCell(cl.rc, acct, nil)
		acct.Retire()
		cr.Label, cr.Seed = cl.rc.label, cl.rc.cfg.Seed
		if got := cellJSON(t, cr); got != cl.solo {
			t.Errorf("cell %s after other kinds on a scribbled arena differs from its solo run:\n%s\n%s", cl.rc.label, got, cl.solo)
		}
	}
}

// TestLaterCellsLendNoNewTables: a cell run again on the same arena takes
// everything it needs from the store. Fresh counts every table the store
// had to make — buffers' bytes, wire slabs, dup-cache tables, block maps —
// so it stands still after the first run of a LADDIS cell, and of a crash
// cell, whose remount is lent a second block map.
func TestLaterCellsLendNoNewTables(t *testing.T) {
	crash, _ := Lookup("crash")
	for _, spec := range []Spec{laddisSweepSpec(t), shrink(crash)} {
		rc := resolveAll(t, spec)[0]
		ar := block.NewArena()
		var fresh []uint64
		for i := 0; i < 3; i++ {
			if cr := runCellTimed(rc, ar, nil); cr.err != nil {
				t.Fatal(cr.err)
			}
			fresh = append(fresh, ar.Fresh())
		}
		if fresh[0] == 0 || fresh[1] != fresh[0] || fresh[2] != fresh[0] {
			t.Errorf("%s: fresh tables after runs 1, 2, 3 of cell %s: %v; runs 2 and 3 must make none", spec.Name, rc.label, fresh)
		}
	}
}
