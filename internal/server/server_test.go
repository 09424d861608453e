package server

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/nvram"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/vfs"
)

// rig is a complete client/server testbed on one network.
type rig struct {
	sim    *sim.Sim
	net    *netsim.Network
	disk   *disk.Disk
	presto *nvram.Presto
	fs     *ufs.FS
	srv    *Server
	cli    *client.Client
}

type rigOpts struct {
	gathering bool
	presto    bool
	biods     int
	nfsds     int
	fddi      bool
	// dupCap is the dup cache's capacity (0 = the server default).
	dupCap int
	// acct is the buffer ledger every pool of the rig charges (nil = the
	// process-global one).
	acct *block.Accounting
}

func newRig(t *testing.T, seed int64, o rigOpts) *rig {
	t.Helper()
	s := sim.New(seed)
	np := hw.Ethernet()
	if o.fddi {
		np = hw.FDDI()
	}
	n := netsim.New(s, np)
	n.SetAccounting(o.acct)
	costs := hw.DEC3000CPU()

	r := &rig{sim: s, net: n}
	r.disk = disk.New(s, hw.RZ26(), o.acct)
	nfsds := o.nfsds
	if nfsds == 0 {
		nfsds = 8
	}
	srvCPU := sim.NewResource(s, 1)
	cfg := Config{
		NumNfsds:    nfsds,
		Gathering:   o.gathering,
		Costs:       costs,
		Accelerated: o.presto,
		CPU:         srvCPU,
		DupCacheCap: o.dupCap,
	}
	if o.gathering {
		cfg.Gather = core.DefaultConfig(o.presto, np.Procrastinate)
	}
	var dev disk.Device = NewChargedDevice(r.disk, srvCPU, costs.DriverTrip)
	if o.presto {
		r.presto = nvram.New(s, hw.Prestoserve(), dev, o.acct)
		dev = NewChargedNVRAM(r.presto, srvCPU, costs.DriverTrip, costs.NVRAMCopyPer8K, hw.Prestoserve().MaxIO)
	}
	fs, err := ufs.Format(s, dev, 1, 512, o.acct)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	r.fs = fs
	r.srv = New(s, n, fs, cfg)
	fs.ChargeMeta = func(p *sim.Proc) { r.srv.charge(p, costs.MetaUpdate) }
	r.cli = client.New(s, n, "client1", "server", hw.DEC3000Client(), o.biods, o.acct)
	return r
}

// heldHeads is what the rig's long-lived holders of wire heads hold at
// quiesce: the dup cache's reply heads and the client's kept reply.
func (r *rig) heldHeads() int64 { return int64(r.srv.DupHeads() + r.cli.HeldHeads()) }

// writeSync writes data (at most MaxData bytes) at off as one WRITE,
// staged in a buffer from the client's pool.
func writeSync(c *client.Client, p *sim.Proc, fh nfsproto.FH, off uint32, data []byte) error {
	b := c.GetWriteBuf()
	copy(b.Data(), data)
	return c.WriteSyncBufRelease(p, fh, off, b, len(data))
}

func TestEndToEndCreateWriteRead(t *testing.T) {
	r := newRig(t, 1, rigOpts{biods: 4})
	root := r.srv.RootFH()
	done := false
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "file.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("Create: %v %v", err, cres)
			return
		}
		payload := make([]byte, 8192)
		client.FillPattern(payload, 0)
		if err := writeSync(r.cli, p, cres.File, 0, payload); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		rres, err := r.cli.Read(p, cres.File, 0, 8192)
		if err != nil || rres.Status != nfsproto.OK {
			t.Errorf("Read: %v %v", err, rres)
			return
		}
		if !bytes.Equal(rres.Data, payload) {
			t.Error("read-back over the wire mismatch")
		}
		done = true
	})
	r.sim.Run(0)
	if !done {
		t.Fatal("app did not finish")
	}
}

func TestEndToEndGatheringWriteRead(t *testing.T) {
	r := newRig(t, 1, rigOpts{gathering: true, biods: 4, fddi: true})
	root := r.srv.RootFH()
	var elapsed sim.Duration
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "big.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("Create: %v", err)
			return
		}
		elapsed, err = r.cli.WriteFile(p, cres.File, 256*1024)
		if err != nil {
			t.Errorf("WriteFile: %v", err)
			return
		}
		// Read back a few blocks and verify.
		for _, off := range []uint32{0, 8192, 31 * 8192} {
			rres, err := r.cli.Read(p, cres.File, off, 8192)
			if err != nil || rres.Status != nfsproto.OK {
				t.Errorf("Read @%d: %v", off, err)
				return
			}
			want := make([]byte, 8192)
			client.FillPattern(want, off)
			if !bytes.Equal(rres.Data, want) {
				t.Errorf("content mismatch at %d", off)
			}
		}
	})
	r.sim.Run(0)
	if elapsed == 0 {
		t.Fatal("no elapsed time recorded")
	}
	st := r.srv.Engine().Stats()
	if st.Writes != 32 {
		t.Fatalf("engine saw %d writes, want 32", st.Writes)
	}
	if st.Gathers == 0 || st.GatheredWrites != 32 {
		t.Fatalf("stats = %+v", st)
	}
	// Gathering must have batched several writes per metadata commit.
	if float64(st.GatheredWrites)/float64(st.Gathers) < 2 {
		t.Fatalf("mean batch %f < 2", float64(st.GatheredWrites)/float64(st.Gathers))
	}
	if r.srv.Engine().PendingReplies() != 0 {
		t.Fatal("pending replies leaked")
	}
}

func TestGatheringReducesDiskTransactions(t *testing.T) {
	const fileSize = 512 * 1024
	run := func(gather bool) (uint64, sim.Duration) {
		r := newRig(t, 7, rigOpts{gathering: gather, biods: 7, fddi: true})
		root := r.srv.RootFH()
		var elapsed sim.Duration
		r.sim.Spawn("app", func(p *sim.Proc) {
			cres, _ := r.cli.Create(p, root, "f", 0644)
			elapsed, _ = r.cli.WriteFile(p, cres.File, fileSize)
		})
		r.sim.Run(0)
		return r.disk.Stats().Trans(), elapsed
	}
	transStd, elStd := run(false)
	transGather, elGather := run(true)
	if transGather >= transStd {
		t.Fatalf("gathering did not reduce disk transactions: %d vs %d", transGather, transStd)
	}
	// With 7 biods the paper reports large gains; insist on at least 2x
	// fewer transactions and faster completion.
	if transStd < 2*transGather {
		t.Fatalf("expected >=2x transaction reduction: std=%d gather=%d", transStd, transGather)
	}
	if elGather >= elStd {
		t.Fatalf("gathering slower: %v vs %v", elGather, elStd)
	}
}

func TestZeroBiodPenalty(t *testing.T) {
	// §6.10: single-threaded clients lose with gathering (added latency,
	// no gain).
	const fileSize = 256 * 1024
	run := func(gather bool) sim.Duration {
		r := newRig(t, 3, rigOpts{gathering: gather, biods: 0})
		root := r.srv.RootFH()
		var elapsed sim.Duration
		r.sim.Spawn("app", func(p *sim.Proc) {
			cres, _ := r.cli.Create(p, root, "f", 0644)
			elapsed, _ = r.cli.WriteFile(p, cres.File, fileSize)
		})
		r.sim.Run(0)
		return elapsed
	}
	std := run(false)
	gather := run(true)
	if gather <= std {
		t.Fatalf("0-biod gathering should be slower: std=%v gather=%v", std, gather)
	}
	loss := float64(gather-std) / float64(std)
	if loss > 0.6 {
		t.Fatalf("0-biod loss %.0f%% implausibly large", loss*100)
	}
}

func TestDuplicateRequestDropsAndResends(t *testing.T) {
	// Hand-craft a WRITE and send the identical datagram three times: the
	// first executes, in-flight copies are dropped, and a copy arriving
	// after the reply gets the cached reply resent — the write itself must
	// execute exactly once.
	r := newRig(t, 1, rigOpts{biods: 0})
	raw := r.net.Attach("rawcli", 0, 0)
	root := r.srv.RootFH()
	var replies int
	r.sim.Spawn("rawrecv", func(p *sim.Proc) {
		for {
			raw.Inbox.Get(p)
			replies++
		}
	})
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "f", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("Create: %v", err)
			return
		}
		enc, n := writeCall(424242, cres.File, 0, 1024)
		body := r.cli.GetWriteBuf()
		defer body.Release()
		// Two back-to-back copies: second should be dropped as in-progress.
		sendWrite(p, r.net, "rawcli", enc, body, n)
		sendWrite(p, r.net, "rawcli", enc, body, n)
		// Third copy after the original surely completed.
		p.Sleep(2 * sim.Second)
		sendWrite(p, r.net, "rawcli", enc, body, n)
	})
	r.sim.Run(sim.Time(5 * sim.Second))
	if replies != 2 {
		t.Fatalf("replies = %d, want 2 (original + cached resend)", replies)
	}
	if r.srv.DupDrops < 1 {
		t.Fatalf("DupDrops = %d, want >=1", r.srv.DupDrops)
	}
	if r.srv.DupResends != 1 {
		t.Fatalf("DupResends = %d, want 1", r.srv.DupResends)
	}
	if c := r.srv.OpCounts[nfsproto.ProcWrite].Ops; c != 1 {
		t.Fatalf("write executed %d times, want exactly 1", c)
	}
}

// ackedWrite is one WRITE the client saw acknowledged.
type ackedWrite struct {
	ino    vfs.Ino
	offset uint32
	length int
}

// recordAcks logs every WRITE acknowledgement the rig's client receives.
func (r *rig) recordAcks() *[]ackedWrite {
	acked := new([]ackedWrite)
	r.cli.OnWriteAcked = func(fh nfsproto.FH, off uint32, n int) {
		*acked = append(*acked, ackedWrite{vfs.Ino(fh.Ino()), off, n})
	}
	return acked
}

func TestCrashAuditEveryRepliedWriteDurable(t *testing.T) {
	// The central correctness claim: no reply before stable storage. Run a
	// gathered workload, stop the world mid-flight at several instants,
	// recover NVRAM to the platters, remount, and verify every write the
	// client saw acknowledged is present.
	for _, cut := range []sim.Duration{50 * sim.Millisecond, 120 * sim.Millisecond, 300 * sim.Millisecond, 700 * sim.Millisecond} {
		cutoff := sim.Time(cut)
		r := newRig(t, 11, rigOpts{gathering: true, biods: 7, fddi: true})
		acked := r.recordAcks()
		root := r.srv.RootFH()
		r.sim.Spawn("app", func(p *sim.Proc) {
			cres, err := r.cli.Create(p, root, "f", 0644)
			if err != nil {
				return
			}
			r.cli.WriteFile(p, cres.File, 2*1024*1024)
		})
		r.sim.Spawn("super", func(p *sim.Proc) { r.fs.WriteSuper(p) })
		r.sim.Run(cutoff) // crash here

		// Post-crash: volatile state gone; NVRAM (none in this rig) and
		// platters survive.
		replied := *acked
		r.fs.DropCaches()
		s2 := sim.New(99)
		s2.Spawn("audit", func(p *sim.Proc) {
			m, err := ufs.Mount(s2, p, r.disk, nil)
			if err != nil {
				t.Errorf("cut=%v: Mount: %v", cut, err)
				return
			}
			for _, rec := range replied {
				got := make([]byte, rec.length)
				n, err := m.Read(p, rec.ino, rec.offset, got)
				if err != nil || n != rec.length {
					t.Errorf("cut=%v: replied write @%d unreadable after crash: n=%d err=%v", cut, rec.offset, n, err)
					return
				}
				want := make([]byte, rec.length)
				client.FillPattern(want, rec.offset)
				if !bytes.Equal(got, want) {
					t.Errorf("cut=%v: replied write @%d corrupt after crash", cut, rec.offset)
					return
				}
			}
		})
		s2.Run(0)
	}
}

func TestCrashAuditWithPresto(t *testing.T) {
	cutoff := sim.Time(150 * sim.Millisecond)
	r := newRig(t, 13, rigOpts{gathering: true, presto: true, biods: 7, fddi: true})
	acked := r.recordAcks()
	root := r.srv.RootFH()
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "f", 0644)
		if err != nil {
			return
		}
		r.cli.WriteFile(p, cres.File, 2*1024*1024)
	})
	r.sim.Spawn("super", func(p *sim.Proc) { r.fs.WriteSuper(p) })
	r.sim.Run(cutoff)

	replied := *acked
	if len(replied) == 0 {
		t.Fatal("no replies before the cutoff; test is vacuous")
	}
	// NVRAM is stable storage: its post-crash recovery flushes to disk.
	r.presto.Recover(r.disk)
	r.fs.DropCaches()
	s2 := sim.New(99)
	s2.Spawn("audit", func(p *sim.Proc) {
		m, err := ufs.Mount(s2, p, r.disk, nil)
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		for _, rec := range replied {
			got := make([]byte, rec.length)
			n, err := m.Read(p, rec.ino, rec.offset, got)
			if err != nil || n != rec.length {
				t.Errorf("replied write @%d unreadable: n=%d err=%v", rec.offset, n, err)
				return
			}
			want := make([]byte, rec.length)
			client.FillPattern(want, rec.offset)
			if !bytes.Equal(got, want) {
				t.Errorf("replied write @%d corrupt", rec.offset)
				return
			}
		}
	})
	s2.Run(0)
}

// TestGatheredRepliesShareMTime: four WRITEs to one file that arrive
// together are committed as one batch, so every reply carries the same
// post-commit attributes. The calls come from a raw endpoint, and each
// reply's attrstat is decoded as it arrives.
func TestGatheredRepliesShareMTime(t *testing.T) {
	r := newRig(t, 5, rigOpts{gathering: true, biods: 7, fddi: true})
	raw := r.net.Attach("rawcli", 0, 0)
	root := r.srv.RootFH()
	var mtimes []nfsproto.TimeVal
	r.sim.Spawn("rawrecv", func(p *sim.Proc) {
		for {
			dg := raw.Inbox.Get(p)
			var reply oncrpc.ReplyMsg
			var res nfsproto.AttrStat
			if oncrpc.DecodeReplyInto(dg.Payload, &reply) == nil &&
				nfsproto.DecodeAttrStatInto(reply.Results, &res) == nil && res.Status == nfsproto.OK {
				mtimes = append(mtimes, res.Attr.MTime)
			}
			dg.Release()
		}
	})
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "f", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("Create: %v", err)
			return
		}
		// Four back-to-back WRITEs, to land in one batch.
		for i := 0; i < 4; i++ {
			enc, n := writeCall(uint32(500+i), cres.File, uint32(i*8192), 8192)
			body := r.cli.GetWriteBuf()
			sendWrite(p, r.net, "rawcli", enc, body, n)
			body.Release()
		}
	})
	r.sim.Run(0)
	if len(mtimes) != 4 {
		t.Fatalf("got %d write replies", len(mtimes))
	}
	for _, mt := range mtimes[1:] {
		if mt != mtimes[0] {
			t.Fatalf("gathered replies carry different mtimes: %v", mtimes)
		}
	}
}

func TestStandardServerNoEngine(t *testing.T) {
	r := newRig(t, 1, rigOpts{})
	if r.srv.Engine() != nil {
		t.Fatal("standard server has a gathering engine")
	}
}

func TestSocketBufferDropsRecovered(t *testing.T) {
	// A socket buffer with room for one WRITE forces drops; retransmission
	// must still complete the file, and the duplicate cache must keep it
	// exactly-once: the server runs each of the file's 64 WRITEs and its
	// CREATE once, however often the client sent them.
	for _, nfsds := range []int{1, 2} {
		s := sim.New(21)
		n := netsim.New(s, hw.FDDI())
		costs := hw.DEC3000CPU()
		srvCPU := sim.NewResource(s, 1)
		d := disk.New(s, hw.RZ26(), nil)
		charged := NewChargedDevice(d, srvCPU, costs.DriverTrip)
		fs, _ := ufs.Format(s, charged, 1, 128, nil)
		cfg := Config{
			NumNfsds: nfsds, Gathering: true,
			Gather:       core.DefaultConfig(false, hw.FDDI().Procrastinate),
			Costs:        costs,
			SockBufBytes: 9000, // fits one 8K write
		}
		srv := New(s, n, fs, cfg)
		srv.cpu = srvCPU
		cli := client.New(s, n, "c", "server", fastRetransClient(), 7, nil)
		root := srv.RootFH()
		var err error
		s.Spawn("app", func(p *sim.Proc) {
			cres, cerr := cli.Create(p, root, "f", 0644)
			if cerr != nil {
				err = cerr
				return
			}
			_, err = cli.WriteFile(p, cres.File, 512*1024)
		})
		s.Run(0)
		if err != nil {
			t.Fatalf("%d nfsds: WriteFile with drops: %v", nfsds, err)
		}
		if srv.Endpoint().Drops() == 0 {
			t.Fatalf("%d nfsds: no drops provoked", nfsds)
		}
		if cli.Retransmissions == 0 {
			t.Fatalf("%d nfsds: drops happened but client never retransmitted", nfsds)
		}
		if w := srv.OpCounts[nfsproto.ProcWrite].Ops; w != 512*1024/8192 {
			t.Errorf("%d nfsds: server ran %d WRITEs, want %d", nfsds, w, 512*1024/8192)
		}
		if c := srv.OpCounts[nfsproto.ProcCreate].Ops; c != 1 {
			t.Errorf("%d nfsds: server ran %d CREATEs, want 1", nfsds, c)
		}
		if srv.Engine().PendingReplies() != 0 {
			t.Fatalf("%d nfsds: descriptors leaked under retransmission", nfsds)
		}
		t.Logf("%d nfsds: %d drops, %d retransmissions", nfsds, srv.Endpoint().Drops(), cli.Retransmissions)
	}
}

// fastRetransClient shortens the retransmission timer so drop tests finish
// quickly.
func fastRetransClient() hw.ClientParams {
	p := hw.DEC3000Client()
	p.RetransTimeout = 50 * sim.Millisecond
	return p
}

func TestDupCacheEviction(t *testing.T) {
	c := newDupCache(nil, 2)
	k1 := dupKey{"a", 1}
	k2 := dupKey{"a", 2}
	k3 := dupKey{"a", 3}
	c.begin(k1)
	c.done(k1, netsim.Head{Bytes: []byte{1}}, nil, 0)
	c.begin(k2)
	c.done(k2, netsim.Head{Bytes: []byte{2}}, nil, 0)
	c.begin(k3) // evicts k1
	if c.contains(k1) {
		t.Fatal("k1 survived eviction")
	}
	if !c.contains(k2) || !c.contains(k3) {
		t.Fatal("wrong eviction victim")
	}
}

func TestDupCacheNeverEvictsInProgress(t *testing.T) {
	c := newDupCache(nil, 1)
	k1 := dupKey{"a", 1}
	c.begin(k1) // in progress
	c.begin(dupKey{"a", 2})
	c.begin(dupKey{"a", 3})
	if !c.contains(k1) {
		t.Fatal("in-progress entry evicted")
	}
}

var _ = vfs.ErrNoEnt // keep import when test bodies change
