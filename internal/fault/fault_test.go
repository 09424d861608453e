package fault

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// runDurability streams file copies from two clients through a gathering
// server that crashes mid-stream, then verifies the acked-write journal
// against the recovered filesystem.
func runDurability(t *testing.T, presto bool) { runDurabilityDisks(t, presto, 1) }

func runDurabilityDisks(t *testing.T, presto bool, disks int) {
	c := cluster.New(cluster.Config{
		Net: hw.FDDI(), Clients: 2, Servers: 1,
		Gathering: true, Presto: presto, Biods: 4,
		StripeDisks: disks,
		Seed:        42, ClientRetries: 30,
	})
	j := NewJournal()
	for _, cli := range c.Clients {
		j.Attach(cli)
	}
	in := NewInjector(c)
	// Presto absorbs the stream at NVRAM speed, so its crash must come
	// sooner to land mid-stream.
	crashAt := 1 * sim.Second
	if presto {
		crashAt = 250 * sim.Millisecond
	}
	in.Add(ServerCrash{Node: 0, Train: Train{At: crashAt, Outage: 500 * sim.Millisecond, Count: 1}})
	in.ScheduleAll()

	roots := c.Roots()
	const size = 1 << 20
	done := 0
	for i, cli := range c.Clients {
		i, cli := i, cli
		c.Sim.Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			name := fmt.Sprintf("stream-%d.dat", i)
			cres, err := cli.Create(p, roots[0], name, 0644)
			if err != nil || cres.Status != nfsproto.OK {
				t.Errorf("client %d create: %v %v", i, err, cres)
				return
			}
			if _, err := cli.WriteFile(p, cres.File, size); err != nil {
				t.Errorf("client %d stream: %v", i, err)
				return
			}
			done++
		})
	}
	c.Sim.Run(0)
	if done != 2 {
		t.Fatalf("only %d/2 streams completed (writes did not ride out the outage)", done)
	}
	if in.Crashes != 1 || in.Reboots != 1 {
		t.Fatalf("crashes=%d reboots=%d, want 1/1 (failures: %v)", in.Crashes, in.Reboots, in.Failures)
	}
	if len(j.Entries) == 0 {
		t.Fatal("journal is empty; nothing was audited")
	}

	var res CheckResult
	c.Sim.Spawn("verify", func(p *sim.Proc) { res = j.Verify(p, c) })
	c.Sim.Run(0)
	if res.AckedWrites != len(j.Entries) || res.AckedBytes == 0 {
		t.Fatalf("checker did not cover the journal: %+v", res)
	}
	if res.LostBytes != 0 {
		t.Fatalf("durability violated: %d acked bytes lost (first: %s)", res.LostBytes, res.FirstLoss)
	}

	st := c.IntervalStats()
	if st.RebootsSeen == 0 {
		t.Error("no client observed the boot-verifier change")
	}
	var retrans uint64
	for _, cli := range c.Clients {
		retrans += cli.Retransmissions
	}
	if retrans == 0 {
		t.Error("no retransmissions; the crash did not interrupt the stream")
	}
	if presto && c.Nodes[0].RecoveredBlocks == 0 {
		t.Error("crash left no dirty NVRAM to replay; the recovery path went unexercised")
	}
	t.Logf("presto=%v: %d acked writes (%d KB), %d retrans, %d NVRAM blocks replayed, recovery=%v",
		presto, res.AckedWrites, res.AckedBytes/1024, retrans, c.Nodes[0].RecoveredBlocks, in.RecoveryTimes)
}

// TestDurabilityAcrossCrash: with gathering on, no acked byte is lost to a
// mid-stream crash — the engine never acks before stable storage.
func TestDurabilityAcrossCrash(t *testing.T)       { runDurability(t, false) }
func TestDurabilityAcrossCrashPresto(t *testing.T) { runDurability(t, true) }

// TestDurabilityAcrossCrashStripedPresto adds a stripe set under the
// Presto board: a crash can now catch multi-member transfers (drain
// clusters fanned out by stripe-io children) mid-air, and those children
// must die with the host — a surviving one could overwrite the NVRAM
// recovery replay with an older snapshot after the reboot.
func TestDurabilityAcrossCrashStripedPresto(t *testing.T) {
	runDurabilityDisks(t, true, 2)
}

// probe is a raw RPC endpoint that controls its own XIDs, for exercising
// retransmission against the duplicate cache across a reboot.
type probe struct {
	net *netsim.Network
	ep  *netsim.Endpoint
	to  string
}

// rpc sends raw and waits for the reply.
func (pr *probe) rpc(p *sim.Proc, raw []byte) *oncrpc.ReplyMsg {
	return pr.rpcBody(p, raw, nil, 0)
}

// rpcBody sends raw followed by bodyLen bytes of body, as a WRITE travels,
// and waits for the reply.
func (pr *probe) rpcBody(p *sim.Proc, raw []byte, body *block.Buf, bodyLen int) *oncrpc.ReplyMsg {
	pr.net.SendHead(p, "probe", pr.to, netsim.Head{Bytes: raw}, body, bodyLen)
	dg := pr.ep.Inbox.Get(p)
	defer dg.Release()
	r := new(oncrpc.ReplyMsg)
	if err := oncrpc.DecodeReplyInto(dg.Payload, r); err != nil {
		panic("probe: bad reply: " + err.Error())
	}
	res := make([]byte, len(r.Results))
	copy(res, r.Results)
	r.Results = res
	verf := make([]byte, len(r.Verf.Body))
	copy(verf, r.Verf.Body)
	r.Verf.Body = verf
	return r
}

func encodeCall(xid uint32, proc nfsproto.Proc, args xdr.Record) []byte {
	return encodeCallArgs(xid, proc, xdr.Marshal(args))
}

// encodeCallArgs is encodeCall for arguments already encoded, such as a
// WRITE's head.
func encodeCallArgs(xid uint32, proc nfsproto.Proc, args []byte) []byte {
	return xdr.Marshal(&oncrpc.CallMsg{
		XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version,
		Proc: uint32(proc), Cred: oncrpc.NullAuth(), Verf: oncrpc.NullAuth(),
		Args: args,
	})
}

// TestDupCacheAcrossReboot pins the volatile-dup-cache semantics: before a
// crash a retransmission is answered from the cache without re-execution;
// after a reboot the cache is gone, so the same bytes re-execute — which
// must be observably safe for acked writes (idempotent re-write of
// identical data) and observably anomalous for non-idempotent ops (the
// classic re-executed CREATE turning into ErrExist).
func TestDupCacheAcrossReboot(t *testing.T) {
	c := cluster.New(cluster.Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1,
		Gathering: true, Seed: 9,
	})
	node := c.Nodes[0]
	lan := c.Fabric.Segment("")
	pr := &probe{net: lan, ep: lan.Attach("probe", 0, 0), to: node.Name}
	root := c.Roots()[0]

	data := make([]byte, 8192)
	client.FillPattern(data, 0)

	ok := false
	c.Sim.Spawn("script", func(p *sim.Proc) {
		// Target file.
		cres := pr.rpc(p, encodeCall(99, nfsproto.ProcCreate, &nfsproto.CreateArgs{
			Where: nfsproto.DirOpArgs{Dir: root, Name: "w.dat"},
			Attr:  nfsproto.DefaultSAttr(0644),
		}))
		var dres nfsproto.DirOpRes
		err := nfsproto.DecodeDirOpResInto(cres.Results, &dres)
		if err != nil || dres.Status != nfsproto.OK {
			t.Errorf("setup create: %v %v", err, dres)
			return
		}
		fh := dres.File

		// Acked WRITE, then a pre-crash retransmission: served from the
		// dup cache, byte-identical, not re-executed.
		writeHead := xdr.NewEncoder(nil)
		bodyLen := nfsproto.AppendWriteArgsHead(writeHead, fh, 0, len(data))
		writeRaw := encodeCallArgs(100, nfsproto.ProcWrite, writeHead.Bytes())
		body := c.Clients[0].GetWriteBuf()
		defer body.Release()
		copy(body.Data(), data)
		first := pr.rpcBody(p, writeRaw, body, bodyLen)
		var ws nfsproto.AttrStat
		err = nfsproto.DecodeAttrStatInto(first.Results, &ws)
		if err != nil || ws.Status != nfsproto.OK {
			t.Errorf("write: %v %v", err, ws)
			return
		}
		resent := pr.rpcBody(p, writeRaw, body, bodyLen)
		if !bytes.Equal(first.Results, resent.Results) {
			t.Error("pre-crash dup resend differs from the cached reply")
		}
		if node.Server.DupResends != 1 {
			t.Errorf("DupResends = %d, want 1", node.Server.DupResends)
		}

		// A completed non-idempotent op.
		createRaw := encodeCall(101, nfsproto.ProcCreate, &nfsproto.CreateArgs{
			Where: nfsproto.DirOpArgs{Dir: root, Name: "once.dat"},
			Attr:  nfsproto.DefaultSAttr(0644),
		})
		c1 := pr.rpc(p, createRaw)
		var d1 nfsproto.DirOpRes
		err = nfsproto.DecodeDirOpResInto(c1.Results, &d1)
		if err != nil || d1.Status != nfsproto.OK {
			t.Errorf("create once.dat: %v %v", err, d1)
			return
		}
		bootBefore, hasVerf := oncrpc.BootVerf(c1.Verf)
		if !hasVerf {
			t.Error("pre-crash reply carries no boot verifier")
		}

		// Crash; the dup cache dies with the server instance.
		node.Crash()
		p.Sleep(300 * sim.Millisecond)
		if err := node.Reboot(p); err != nil {
			t.Errorf("reboot: %v", err)
			return
		}

		// Retransmitted WRITE re-executes (no cache), and that is safe:
		// identical bytes land on identical offsets.
		re := pr.rpcBody(p, writeRaw, body, bodyLen)
		var rs nfsproto.AttrStat
		err = nfsproto.DecodeAttrStatInto(re.Results, &rs)
		if err != nil || rs.Status != nfsproto.OK {
			t.Errorf("re-executed write: %v %v", err, rs)
			return
		}
		if node.Server.DupResends != 0 {
			t.Errorf("post-reboot write was served from a dup cache that should be gone")
		}
		bootAfter, _ := oncrpc.BootVerf(re.Verf)
		if hasVerf && bootAfter == bootBefore {
			t.Error("boot verifier did not change across reboot")
		}

		// Retransmitted CREATE re-executes and turns into ErrExist — the
		// observable anomaly a volatile dup cache permits.
		c2 := pr.rpc(p, createRaw)
		var d2 nfsproto.DirOpRes
		err = nfsproto.DecodeDirOpResInto(c2.Results, &d2)
		if err != nil {
			t.Errorf("re-executed create decode: %v", err)
			return
		}
		if d2.Status != nfsproto.ErrExist {
			t.Errorf("re-executed create status = %v, want ErrExist", d2.Status)
		}
		ok = true
	})
	c.Sim.Run(0)
	if !ok {
		t.Fatal("script did not complete")
	}

	// The acked write's bytes survived the crash and the re-execution.
	var clean bool
	c.Sim.Spawn("verify", func(p *sim.Proc) {
		ino, err := node.FS.Lookup(p, node.FS.Root(), "w.dat")
		if err != nil {
			t.Errorf("w.dat missing after reboot: %v", err)
			return
		}
		got := make([]byte, len(data))
		if _, err := node.FS.Read(p, ino, 0, got); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("acked write corrupted by crash + re-execution")
			return
		}
		clean = true
	})
	c.Sim.Run(0)
	if !clean {
		t.Fatal("verification did not complete")
	}
}
