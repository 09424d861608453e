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
// buffer cache and the device below — must move the payload with ZERO
// copies in steady state (the wire body is adopted by the buffer cache and
// travels to the device by reference), and the whole round trip must stay
// within a small allocs/op budget once every pool is warm. Both §6.3
// paths are held: Presto (IO_DATAONLY data pushed through the NVRAM board,
// drained to the platters) and plain disk (IO_DELAYDATA, then one
// clustered SyncData per commit).
func TestWriteBurstAllocAndCopyGuard(t *testing.T) {
	for _, c := range []struct {
		name   string
		presto bool
		// budget is what the round trip still allocates per WRITE. The
		// gathered WRITE itself allocates nothing: its descriptor lives in
		// the pooled parse record, its reply is the method value bound once
		// per record, and the NVRAM board keeps dirty blocks by value. What
		// is left is the dup-cache entry, one per WRITE while the 1,024-entry
		// cache is still filling.
		budget float64
	}{
		{"presto", true, 1},
		{"plain disk", false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 11, rigOpts{gathering: true, presto: c.presto, fddi: true})
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
				r.sim.Run(0) // runs the burst AND, with Presto, the full NVRAM drain to platters
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
			// hand it by reference to the device: no payload byte is memmoved
			// anywhere in the pipeline. Any regression — a revived platter-store
			// copy, a cluster assembly buffer, an un-adopted cache landing —
			// shows up here as 8K+ per write.
			if copied != 0 {
				t.Fatalf("write burst copied %d bytes/burst through the data path, want 0 "+
					"(%.1f bytes per 8K write)", copied, float64(copied)/(51*burst))
			}
			// Wire heads are carved from the segment's slab, not allocated one
			// by one.
			perOp := allocs / burst
			if perOp > c.budget {
				t.Fatalf("steady-state WRITE costs %.2f allocs/op (%.0f per burst), budget %.0f; "+
					"the pooled write path has regressed", perOp, allocs, c.budget)
			}
			t.Logf("write burst: %.2f allocs/op, %d payload bytes copied", perOp, copied)
		})
	}
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

// TestMetadataRoundTripAllocs is the metadata counterpart of the WRITE
// guard: GETATTR, an aligned READ, LOOKUP and READDIR through the full
// stack, each with its own allocs/op budget. The dup cache is turned over
// first (a small cap keeps that quick), so its record pool is warm and
// begin no longer makes entries. What is left to allocate is what some
// layer keeps: wire heads are carved from the segment's slab, argument and
// result records are scratch or on the nfsd's stack.
func TestMetadataRoundTripAllocs(t *testing.T) {
	const dupCap = 16
	r := newRig(t, 17, rigOpts{gathering: true, presto: true, fddi: true, dupCap: dupCap})
	root := r.srv.RootFH()

	const (
		opGetattr = iota
		opRead
		opLookup
		opReaddir
	)
	var fh nfsproto.FH
	stopped := true // until the app is serving triggers
	trigger := sim.NewQueue[int](r.sim, 0)
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "meta.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		fh = cres.File
		writeBlocks(t, p, r.cli, fh, 1)
		stopped = false
		for {
			op := trigger.Get(p)
			status := nfsproto.ErrIO
			switch op {
			case opGetattr:
				var res *nfsproto.AttrStat
				if res, err = r.cli.Getattr(p, fh); err == nil {
					status = res.Status
				}
			case opRead:
				var res *nfsproto.ReadRes
				if res, err = r.cli.Read(p, fh, 0, nfsproto.MaxData); err == nil {
					status = res.Status
				}
			case opLookup:
				var res *nfsproto.DirOpRes
				if res, err = r.cli.Lookup(p, root, "meta.dat"); err == nil {
					status = res.Status
				}
			case opReaddir:
				var res *nfsproto.ReaddirRes
				if res, err = r.cli.Readdir(p, root, 0, 4096); err == nil {
					status = res.Status
				}
			}
			if err != nil || status != nfsproto.OK {
				t.Errorf("op %d: %v %v", op, err, status)
				stopped = true
				return
			}
		}
	})

	for _, c := range []struct {
		name   string
		op     int
		budget float64
	}{
		// Nothing: the reply's handle and attributes decode into scratch.
		{"GETATTR", opGetattr, 0},
		// Nothing: the data rides by reference from the cache block.
		{"READ", opRead, 0},
		// Nothing: the server's name aliases the call's wire head, which
		// ufs.Lookup only reads.
		{"LOOKUP", opLookup, 0},
		// Nothing: ufs.Readdir appends to the server's entry scratch,
		// and the client's entry name aliases the reply's wire head.
		{"READDIR", opReaddir, 0},
	} {
		oneOp := func() {
			trigger.Put(c.op)
			r.sim.Run(0)
		}
		for i := 0; i < 4*dupCap; i++ {
			oneOp()
		}
		if stopped {
			t.FailNow()
		}
		if allocs := testing.AllocsPerRun(100, oneOp); allocs > c.budget {
			t.Errorf("steady-state %s round trip allocates %.2f objects/op, budget %.0f",
				c.name, allocs, c.budget)
		} else {
			t.Logf("%s: %.2f allocs/op", c.name, allocs)
		}
	}
}
