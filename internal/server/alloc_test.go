package server

import (
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// TestWriteBurstAllocAndCopyGuard is the server-side counterpart of the
// client decode alloc guard: a LADDIS-style burst of 8K WRITEs driven
// through the full stack — RPC dispatch, the gathering engine, the ufs
// buffer cache and the NVRAM board down to the platters — must move the
// payload with ZERO copies in steady state (the wire body is adopted by
// the buffer cache and travels to NVRAM and the platter store by
// reference), and the whole round trip must stay within a small allocs/op
// budget once every pool is warm.
func TestWriteBurstAllocAndCopyGuard(t *testing.T) {
	r := newRig(t, 11, rigOpts{gathering: true, presto: true, fddi: true})
	root := r.srv.RootFH()

	const burst = 8 // the largest LADDIS write burst
	var fh nfsproto.FH
	trigger := sim.NewQueue[int](r.sim, 0)
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "burst.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		fh = cres.File
		for {
			trigger.Get(p)
			for i := 0; i < burst; i++ {
				buf := r.cli.GetWriteBuf()
				off := uint32(i) * nfsproto.MaxData
				client.FillPattern(buf.Data(), off)
				if err := r.cli.WriteSyncBufRelease(p, fh, off, buf, nfsproto.MaxData); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
		}
	})

	oneBurst := func() {
		trigger.Put(0)
		r.sim.Run(0) // runs the burst AND the full NVRAM drain to platters
	}
	// Warm-up: first pass allocates the file and every pool; a few more
	// passes settle the drain elevator and the dup cache.
	for i := 0; i < 16; i++ {
		oneBurst()
	}

	copies0 := block.Copies()
	allocs := testing.AllocsPerRun(50, oneBurst)
	copied := block.Copies() - copies0

	// Steady-state overwrites adopt the wire payload into the cache and
	// hand it by reference to NVRAM and the disk: no payload byte is
	// memmoved anywhere in the pipeline. Any regression — a revived
	// platter-store copy, a cluster assembly buffer, an un-adopted cache
	// landing — shows up here as 8K+ per write.
	if copied != 0 {
		t.Fatalf("write burst copied %d bytes/burst through the data path, want 0 "+
			"(%.1f bytes per 8K write)", copied, float64(copied)/(51*burst))
	}

	// The allocs budget covers what the round trip legitimately allocates
	// per WRITE: the client's head wire buffer, the server's reply wire
	// buffer (the encoders are reusable values), and the dup-cache
	// bookkeeping. 8 writes/burst.
	perOp := allocs / burst
	if perOp > 10 {
		t.Fatalf("steady-state WRITE costs %.1f allocs/op (%.0f per burst); "+
			"the pooled write path has regressed", perOp, allocs)
	}
	t.Logf("write burst: %.1f allocs/op, %d payload bytes copied", perOp, copied)
}

// TestWriteBurstNoBufLeak sweeps a write burst and then checks the global
// buffer accounting: at quiesce, every outstanding buffer reference must
// be attributable to a long-lived store slot (buffer cache, NVRAM dirty
// map, platter store) — a reference held by a dead datagram, a released
// staging buffer or an unwound process has nowhere to hide in this
// equation.
func TestWriteBurstNoBufLeak(t *testing.T) {
	refs0 := block.TotalRefs()
	r := newRig(t, 12, rigOpts{gathering: true, presto: true, biods: 4, fddi: true})
	root := r.srv.RootFH()

	done := false
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "leak.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		if _, err := r.cli.WriteFile(p, cres.File, 1<<20); err != nil {
			t.Errorf("WriteFile: %v", err)
			return
		}
		done = true
	})
	r.sim.Run(0)
	if !done {
		t.Fatal("app did not finish")
	}

	expected := int64(r.fs.CachedBufs() + r.disk.StoredBufs() + r.presto.DirtyBufs())
	if got := block.TotalRefs() - refs0; got != expected {
		t.Fatalf("block accounting off after sweep: %d refs outstanding, %d retained by "+
			"cache/platter/NVRAM slots — %+d leaked", got, expected, got-expected)
	}
}
