package server

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// The READ mirror of the WRITE ownership guards in alloc_test.go: an
// aligned READ leaves the server as a reference to the cache block — in
// the reply datagram, in the dup cache, in the client's READ scratch — and
// everything else goes through the staging copy it always did.

// writeBlocks fills the first n 8K blocks of fh with the audit pattern.
func writeBlocks(t *testing.T, p *sim.Proc, cli *client.Client, fh nfsproto.FH, n int) {
	t.Helper()
	if _, err := cli.WriteFile(p, fh, n*nfsproto.MaxData); err != nil {
		t.Fatalf("write %d blocks: %v", n, err)
	}
}

// TestReadBurstAllocAndCopyGuard: steady-state aligned 8K READs through
// the full stack move no payload byte on the host (the ufs read path
// counts its cache → staging copy, so a fallback would show) and allocate
// nothing of the payload's size class — at the parent commit every READ
// made a ~9.4 KB wire slice and parked it in the dup cache.
func TestReadBurstAllocAndCopyGuard(t *testing.T) {
	acct := block.NewAccounting()
	r := newRig(t, 13, rigOpts{gathering: true, presto: true, fddi: true, acct: acct})
	root := r.srv.RootFH()

	const burst = 8
	trigger := sim.NewQueue[int](r.sim, 0)
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "burst.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		fh := cres.File
		writeBlocks(t, p, r.cli, fh, burst)
		want := make([]byte, nfsproto.MaxData)
		for {
			trigger.Get(p)
			for i := 0; i < burst; i++ {
				off := uint32(i) * nfsproto.MaxData
				res, err := r.cli.Read(p, fh, off, nfsproto.MaxData)
				if err != nil || res.Status != nfsproto.OK {
					t.Errorf("read %d: %v %v", i, err, res)
					return
				}
				client.FillPattern(want, off)
				if !bytes.Equal(res.Data, want) {
					t.Errorf("read %d: wrong bytes", i)
					return
				}
			}
		}
	})
	oneBurst := func() {
		trigger.Put(0)
		r.sim.Run(0)
	}
	// Warm every pool, and turn the 1,024-entry dup cache over once so the
	// measured bursts recycle entries instead of growing the table.
	for i := 0; i < 1100/burst; i++ {
		oneBurst()
	}

	copies0 := acct.Copies()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const rounds = 50
	allocs := testing.AllocsPerRun(rounds, oneBurst)
	runtime.ReadMemStats(&m1)
	reads := float64((rounds + 1) * burst)

	if copied := acct.Copies() - copies0; copied != 0 {
		t.Fatalf("read burst copied %d payload bytes (%.0f per 8K READ), want 0",
			copied, float64(copied)/reads)
	}
	perRead := float64(m1.TotalAlloc-m0.TotalAlloc) / reads
	if perRead > 2048 {
		t.Fatalf("steady-state READ allocates %.0f B/op; an 8 KB-class buffer per READ is back", perRead)
	}
	if perOp := allocs / burst; perOp > 8 {
		t.Fatalf("steady-state READ costs %.1f allocs/op; the pooled read path has regressed", perOp)
	}
	t.Logf("read burst: %.1f allocs/op, %.0f B/op, 0 payload bytes copied", allocs/burst, perRead)

	// Every reference outstanding is a long-lived holder's.
	held := int64(r.fs.CachedBufs()+r.disk.StoredBufs()+r.presto.DirtyBufs()+r.srv.DupBodies()) + int64(r.cli.HeldBodies()+r.cli.Pages.Refs()) + r.heldHeads()
	if got := acct.TotalRefs(); got != held {
		t.Fatalf("%d block refs outstanding, %d held by cache/platters/NVRAM/dup cache/READ scratch/pattern pages/wire heads", got, held)
	}
	if r.srv.DupBodies() == 0 || r.cli.HeldBodies() != 1 {
		t.Fatalf("dup bodies %d, client bodies %d: the replies did not go by reference",
			r.srv.DupBodies(), r.cli.HeldBodies())
	}
}

// rawCall hand-builds an NFS call with already-encoded args, for tests
// that play the client's part at the datagram level.
func rawCall(xid uint32, proc nfsproto.Proc, args []byte) []byte {
	return xdr.Marshal(&oncrpc.CallMsg{
		XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: uint32(proc),
		Cred: oncrpc.NullAuth(), Verf: oncrpc.NullAuth(), Args: args,
	})
}

// writeCall hand-builds a WRITE call's head for an n-byte payload. It
// returns the head and the length of the body that must follow it.
func writeCall(xid uint32, fh nfsproto.FH, off uint32, n int) ([]byte, int) {
	e := xdr.NewEncoder(nil)
	bodyLen := nfsproto.AppendWriteArgsHead(e, fh, off, n)
	return rawCall(xid, nfsproto.ProcWrite, e.Bytes()), bodyLen
}

// sendWrite sends a WRITE built by writeCall with its body from from to
// the server, as a client's split WRITE travels.
func sendWrite(p *sim.Proc, net *netsim.Network, from string, head []byte, body *block.Buf, bodyLen int) {
	net.SendHead(p, from, "server", netsim.Head{Bytes: head}, body, bodyLen)
}

// readCall hand-builds a READ call.
func readCall(xid uint32, fh nfsproto.FH, off, count uint32) []byte {
	return rawCall(xid, nfsproto.ProcRead, xdr.Marshal(&nfsproto.ReadArgs{File: fh, Offset: off, Count: count}))
}

// splitReadData decodes a split READ reply datagram and returns its data.
func splitReadData(t *testing.T, dg *netsim.Datagram) []byte {
	t.Helper()
	if dg.Body == nil {
		t.Fatal("READ reply did not ride by reference")
	}
	var reply oncrpc.ReplyMsg
	if err := oncrpc.DecodeReplyInto(dg.Payload, &reply); err != nil {
		t.Fatalf("reply: %v", err)
	}
	var res nfsproto.ReadRes
	if err := nfsproto.DecodeReadResSplitInto(reply.Results, dg.Body.Data()[:dg.BodyLen], &res); err != nil {
		t.Fatalf("split result: %v", err)
	}
	return res.Data
}

// TestReadReplySurvivesOverwrite is the copy-on-write guard: while a READ
// reply is still on its way (here: held undelivered by the test) and its
// dup entry is live, the block is overwritten — whole by copy, whole by
// adoption of a WRITE body, and in part. The reply keeps the bytes it was
// sent with, a retransmission is answered from the dup cache with those
// same bytes, and a new READ sees the write.
func TestReadReplySurvivesOverwrite(t *testing.T) {
	acct := block.NewAccounting()
	r := newRig(t, 31, rigOpts{fddi: true, acct: acct})
	probe := r.net.Attach("probe", 0, 0)
	root := r.srv.RootFH()

	overwrites := []struct {
		name  string
		write func(p *sim.Proc, fh nfsproto.FH, off uint32, after []byte) error
	}{
		{"whole block, copied", func(p *sim.Proc, fh nfsproto.FH, off uint32, after []byte) error {
			for i := range after {
				after[i] = 0xA5
			}
			// Every WRITE off the wire lands by reference, so the copying
			// VOP_WRITE is called directly.
			return r.fs.Write(p, vfs.Ino(fh.Ino()), off, after, vfs.IOSync)
		}},
		{"whole block, adopted body", func(p *sim.Proc, fh nfsproto.FH, off uint32, after []byte) error {
			b := r.cli.GetWriteBuf()
			for i := range after {
				after[i] = 0x5A
			}
			copy(b.Data(), after)
			return r.cli.WriteSyncBufRelease(p, fh, off, b, len(after))
		}},
		{"part of the block", func(p *sim.Proc, fh nfsproto.FH, off uint32, after []byte) error {
			patch := after[100:600]
			for i := range patch {
				patch[i] = 0xC3
			}
			return writeSync(r.cli, p, fh, off+100, patch)
		}},
	}

	done := false
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "cow.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		fh := cres.File
		writeBlocks(t, p, r.cli, fh, len(overwrites))

		for i, ow := range overwrites {
			off := uint32(i) * nfsproto.MaxData
			before := make([]byte, nfsproto.MaxData)
			client.FillPattern(before, off)

			call := readCall(uint32(1000+i), fh, off, nfsproto.MaxData)
			r.net.Send(p, "probe", "server", call)
			first := probe.Inbox.Get(p) // kept: the reply "in flight"
			if !bytes.Equal(splitReadData(t, first), before) {
				t.Errorf("%s: first reply has wrong bytes", ow.name)
			}

			after := bytes.Clone(before)
			if err := ow.write(p, fh, off, after); err != nil {
				t.Errorf("%s: %v", ow.name, err)
				return
			}
			if !bytes.Equal(splitReadData(t, first), before) {
				t.Errorf("%s: the write changed a reply already sent", ow.name)
			}

			resends := r.srv.DupResends
			r.net.Send(p, "probe", "server", call)
			again := probe.Inbox.Get(p)
			if r.srv.DupResends != resends+1 {
				t.Errorf("%s: retransmission was re-executed, not answered from the dup cache", ow.name)
			}
			if !bytes.Equal(again.Payload, first.Payload) || !bytes.Equal(splitReadData(t, again), before) {
				t.Errorf("%s: retransmission answered with different bytes", ow.name)
			}

			res, err := r.cli.Read(p, fh, off, nfsproto.MaxData)
			if err != nil || res.Status != nfsproto.OK || !bytes.Equal(res.Data, after) {
				t.Errorf("%s: a new READ does not see the write (%v)", ow.name, err)
			}
			first.Release()
			again.Release()
		}
		done = true
	})
	r.sim.Run(0)
	if !done {
		t.Fatal("app did not finish")
	}
	held := int64(r.fs.CachedBufs()+r.disk.StoredBufs()+r.srv.DupBodies()) + int64(r.cli.HeldBodies()+r.cli.Pages.Refs()) + r.heldHeads()
	if got := acct.TotalRefs(); got != held {
		t.Fatalf("%d block refs outstanding, %d held", got, held)
	}
}

// TestReadFallbackMatchesFS: whatever shape a READ has, the client gets
// exactly what ufs.FS.Read returns for it, and only the shapes that are a
// prefix of one cached block with an unpadded length go by reference.
func TestReadFallbackMatchesFS(t *testing.T) {
	acct := block.NewAccounting()
	r := newRig(t, 32, rigOpts{fddi: true, acct: acct})
	root := r.srv.RootFH()
	const bs = nfsproto.MaxData

	cases := []struct {
		name       string
		file       int // 0: blocks 0,2 + 1001-byte tail, block 1 a hole; 1: one block + 1000-byte tail
		off, count uint32
		byRef      bool
	}{
		{"aligned whole block", 0, 0, bs, true},
		{"aligned short count", 0, 2 * bs, 4096, true},
		{"aligned tail, length a multiple of 4", 1, bs, bs, true},
		{"aligned count XDR would pad", 0, 0, 1002, false},
		{"unaligned", 0, 100, 512, false},
		{"block-spanning", 0, 2*bs - 4096, bs, false},
		{"hole", 0, bs, bs, false},
		{"spanning data and hole", 0, 4096, bs, false},
		{"odd-length EOF tail", 0, 3 * bs, bs, false},
		{"short of EOF by an odd count", 0, 3 * bs, 999, false},
		{"at EOF", 0, 3*bs + 1001, bs, false},
		{"past EOF", 0, 5 * bs, bs, false},
	}

	done := false
	r.sim.Spawn("app", func(p *sim.Proc) {
		var fhs [2]nfsproto.FH
		for i, name := range []string{"holey.dat", "tail4.dat"} {
			cres, err := r.cli.Create(p, root, name, 0644)
			if err != nil || cres.Status != nfsproto.OK {
				t.Errorf("create %s: %v %v", name, err, cres)
				return
			}
			fhs[i] = cres.File
		}
		buf := make([]byte, bs)
		write := func(fh nfsproto.FH, off uint32, n int) {
			client.FillPattern(buf[:n], off)
			if err := writeSync(r.cli, p, fh, off, buf[:n]); err != nil {
				t.Fatalf("write @%d: %v", off, err)
			}
		}
		write(fhs[0], 0, bs)
		write(fhs[0], 2*bs, bs)
		write(fhs[0], 3*bs, 1001)
		write(fhs[1], 0, bs)
		write(fhs[1], bs, 1000)

		want := make([]byte, bs)
		for _, c := range cases {
			fh := fhs[c.file]
			bodies := r.srv.DupBodies()
			res, err := r.cli.Read(p, fh, c.off, c.count)
			if err != nil || res.Status != nfsproto.OK {
				t.Errorf("%s: %v %v", c.name, err, res)
				continue
			}
			got := bytes.Clone(res.Data) // scratch: dead once fs.Read below can yield
			n, err := r.fs.Read(p, vfs.Ino(fh.Ino()), c.off, want[:c.count])
			if err != nil {
				t.Errorf("%s: fs.Read: %v", c.name, err)
				continue
			}
			if !bytes.Equal(got, want[:n]) {
				t.Errorf("%s: client read %d bytes, fs.Read %d, or contents differ", c.name, len(got), n)
			}
			if byRef := r.srv.DupBodies() == bodies+1; byRef != c.byRef {
				t.Errorf("%s: went by reference = %v, want %v", c.name, byRef, c.byRef)
			}
		}
		done = true
	})
	r.sim.Run(0)
	if !done {
		t.Fatal("app did not finish")
	}
}

// TestReadReplyDroppedAtFullSocketBuffer: a split reply that finds the
// receiver's socket buffer full dies there with its head and body
// references, and a queued one gives its up when released; what stays is
// the dup cache's.
func TestReadReplyDroppedAtFullSocketBuffer(t *testing.T) {
	acct := block.NewAccounting()
	r := newRig(t, 33, rigOpts{fddi: true, acct: acct})
	probe := r.net.Attach("probe", 1, 0) // room for one reply
	root := r.srv.RootFH()

	done := false
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "drop.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		writeBlocks(t, p, r.cli, cres.File, 2)
		r.net.Send(p, "probe", "server", readCall(1, cres.File, 0, nfsproto.MaxData))
		r.net.Send(p, "probe", "server", readCall(2, cres.File, nfsproto.MaxData, nfsproto.MaxData))
		done = true
	})
	r.sim.Run(0)
	if !done {
		t.Fatal("app did not finish")
	}
	if probe.Drops() != 1 || probe.Inbox.Len() != 1 {
		t.Fatalf("drops %d, queued %d: want one reply dropped and one queued", probe.Drops(), probe.Inbox.Len())
	}
	held := int64(r.fs.CachedBufs()+r.disk.StoredBufs()+r.srv.DupBodies()+r.cli.Pages.Refs()) + r.heldHeads()
	if got := acct.TotalRefs(); got != held+2 {
		t.Fatalf("%d block refs outstanding, want %d held + 2 in the queued reply (its head and body)", got, held)
	}
	dg, _ := probe.Inbox.TryGet()
	dg.Release()
	if got := acct.TotalRefs(); got != held {
		t.Fatalf("%d block refs outstanding after the release, %d held", got, held)
	}
	if r.srv.DupBodies() != 2 {
		t.Fatalf("dup cache holds %d reply bodies, want 2", r.srv.DupBodies())
	}
}

// TestDupCacheReleasesBodies walks the ways a dup entry dies — eviction,
// forget, drop — and the reuse of its record: each lets go of the head
// and body references exactly once.
func TestDupCacheReleasesBodies(t *testing.T) {
	acct := block.NewAccounting()
	pool := acct.NewPool()
	blk := pool.Get()
	n := netsim.New(sim.New(1), hw.FDDI())
	n.SetAccounting(acct)
	c := newDupCache(nil, 2)
	key := func(x uint32) dupKey { return dupKey{"a", x} }
	finish := func(x uint32) {
		c.begin(key(x))
		n.Encoder(4).Uint32(x)
		h := n.Encoded()
		c.done(key(x), h, blk, block.Size)
		h.Release()
	}
	check := func(what string, refs int32, bodies int) {
		t.Helper()
		if blk.Refs() != refs || c.bodies != bodies || c.heads != bodies || n.HeadRefs() != int64(bodies) {
			t.Fatalf("%s: block refs %d, cache bodies %d, cache heads %d, head refs %d; want %d, %d, %d, %d",
				what, blk.Refs(), c.bodies, c.heads, n.HeadRefs(), refs, bodies, bodies, bodies)
		}
	}
	finish(1)
	finish(2)
	check("two done entries", 3, 2)
	finish(3) // evicts 1, reuses nothing yet
	check("after eviction", 3, 2)
	c.forget(key(2))
	check("after forget", 2, 1)
	finish(4) // reuses a recycled record
	check("after record reuse", 3, 2)
	c.begin(key(5)) // in progress, no body; evicts 3
	check("in-progress entry", 2, 1)
	c.drop()
	check("after drop", 1, 0)
	if c.contains(key(4)) || c.contains(key(5)) {
		t.Fatal("drop left entries behind")
	}
	blk.Release()
	if acct.TotalRefs() != 0 {
		t.Fatalf("%d refs leaked", acct.TotalRefs())
	}
}
