package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// The release-path audit for READ replies that ride by reference, in the
// style of netsim.TestSplitDatagramReleasePaths: a reply's block is
// referenced by the sending nfsd, the datagram, the dup cache and the
// client's READ scratch, and each test below kills one of those holders
// mid-stream. Afterwards every reference on the cluster's private ledger
// must be one AccountedRefs names.

// readStorm is a cluster with one 16-block file on shard 0 and reader
// processes on every client reading and checking blocks until stop.
type readStorm struct {
	t     *testing.T
	c     *Cluster
	acct  *block.Accounting
	fh    nfsproto.FH
	stop  sim.Time
	reads int // READs answered
}

const stormBlocks = 16

func newReadStorm(t *testing.T, cfg Config, stop sim.Duration) *readStorm {
	t.Helper()
	acct := block.NewAccounting()
	cfg.Acct = acct
	cfg.ClientRetries = 40
	rs := &readStorm{t: t, c: New(cfg), acct: acct}
	ready := false
	rs.c.Sim.Spawn("setup", func(p *sim.Proc) {
		cli := rs.c.Clients[0]
		cres, err := cli.Create(p, rs.c.Roots()[0], "storm.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		rs.fh = cres.File
		if _, err := cli.WriteFile(p, rs.fh, stormBlocks*nfsproto.MaxData); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		ready = true
	})
	rs.c.Sim.Run(0)
	if !ready {
		t.Fatal("setup did not finish")
	}
	rs.stop = rs.c.Sim.Now().Add(stop)
	return rs
}

// readers starts n reader processes on cli, registered as its
// applications so a client crash takes them down with the host.
func (rs *readStorm) readers(cli *client.Client, n int) {
	for i := 0; i < n; i++ {
		i := i
		cli.AdoptApp(rs.c.Sim.Spawn(fmt.Sprintf("%s-reader%d", cli.Name(), i), func(p *sim.Proc) {
			want := make([]byte, nfsproto.MaxData)
			for b := i; p.Now() < rs.stop; b++ {
				off := uint32(b%stormBlocks) * nfsproto.MaxData
				res, err := cli.Read(p, rs.fh, off, nfsproto.MaxData)
				if err != nil {
					continue // gave up on an outage; the next one may get through
				}
				fillPattern(want, off)
				if res.Status != nfsproto.OK || !bytes.Equal(res.Data, want) {
					rs.t.Errorf("%s: wrong READ result at %d", cli.Name(), off)
					return
				}
				rs.reads++
			}
		}))
	}
}

// audit runs the cluster dry and checks the ledger.
func (rs *readStorm) audit(what string) {
	rs.t.Helper()
	rs.c.Sim.Run(0)
	if got, want := rs.acct.TotalRefs(), rs.c.AccountedRefs(); got != want {
		rs.t.Fatalf("%s: %d block refs outstanding, %d accounted — %+d leaked", what, got, want, got-want)
	}
	if rs.reads == 0 {
		rs.t.Fatalf("%s: no READ completed", what)
	}
}

// TestServerCrashReleasesReadReplies crashes the server at a sweep of
// instants across the storm, so that over the sweep the crash finds READ
// replies in every state — a reference in a killed nfsd's hands, in a
// datagram serializing or in flight, in the dup cache — and reboots it.
func TestServerCrashReleasesReadReplies(t *testing.T) {
	for k := 0; k < 24; k++ {
		at := 20*sim.Millisecond + sim.Duration(k)*137*sim.Microsecond
		rs := newReadStorm(t, Config{
			Net: hw.FDDI(), Clients: 2, Servers: 1, Gathering: true, Presto: k%2 == 1, Seed: int64(40 + k),
		}, 400*sim.Millisecond)
		for _, cli := range rs.c.Clients {
			rs.readers(cli, 3)
		}
		node := rs.c.Nodes[0]
		dupBodies := 0
		rs.c.Sim.Spawn("crash", func(p *sim.Proc) {
			p.Sleep(at)
			dupBodies = node.Server.DupBodies()
			node.Crash()
			p.Sleep(100 * sim.Millisecond)
			if err := node.Reboot(p); err != nil {
				t.Errorf("reboot: %v", err)
			}
		})
		rs.audit(fmt.Sprintf("server crash at +%v", at))
		if dupBodies == 0 {
			t.Fatalf("crash at +%v found no reply body in the dup cache", at)
		}
		if node.Boots != 2 {
			t.Fatalf("crash at +%v: boots = %d", at, node.Boots)
		}
	}
}

// TestClientRebootReleasesReadReplies crashes a client at a fine sweep of
// instants across its READ round trips — request out, reply serializing,
// reply in flight toward the dead interface, reply in the inbox, reply
// taken over by a pending call whose caller never wakes, reply held as
// READ scratch — and reboots it; new readers then use the host again.
func TestClientRebootReleasesReadReplies(t *testing.T) {
	for k := 0; k < 64; k++ {
		at := 10*sim.Millisecond + sim.Duration(k)*29*sim.Microsecond
		rs := newReadStorm(t, Config{
			Net: hw.FDDI(), Clients: 2, Servers: 1, Seed: int64(80 + k),
		}, 200*sim.Millisecond)
		for _, cli := range rs.c.Clients {
			rs.readers(cli, 2)
		}
		victim := rs.c.Clients[1]
		rs.c.Sim.Spawn("reboot", func(p *sim.Proc) {
			p.Sleep(at)
			victim.Crash()
			if victim.HeldBodies() != 0 {
				t.Errorf("crashed client still holds its READ scratch")
			}
			p.Sleep(50 * sim.Millisecond)
			victim.Reboot()
			rs.readers(victim, 2)
		})
		rs.audit(fmt.Sprintf("client reboot at +%v", at))
		if victim.AppsKilled() == 0 {
			t.Fatalf("reboot at +%v killed no reader", at)
		}
	}
}

// TestUplinkOutageReleasesReadReplies puts the clients behind a bridge and
// takes its uplink down mid-storm: replies queued in the bridge and in
// flight toward its severed port die there. The storm then finishes over
// the restored link, still by reference.
func TestUplinkOutageReleasesReadReplies(t *testing.T) {
	rs := newReadStorm(t, Config{
		Segments: []netsim.SegmentSpec{
			{Name: "core", Params: hw.FDDI()},
			{Name: "leaf", Params: hw.Ethernet(), Uplink: "core",
				Bridge: netsim.BridgeParams{ForwardLatency: 50 * sim.Microsecond}},
		},
		ServerSegment: "core",
		ClientGroups:  []ClientGroup{{Count: 3, MaxRetries: 40, Segment: "leaf"}},
		Servers:       1, Seed: 7,
	}, 900*sim.Millisecond)
	for _, cli := range rs.c.Clients {
		rs.readers(cli, 3)
	}
	rs.c.Sim.Spawn("outage", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(40*sim.Millisecond + sim.Duration(i)*313*sim.Microsecond)
			rs.c.Fabric.SetUplinkDown("leaf", true)
			p.Sleep(60 * sim.Millisecond)
			rs.c.Fabric.SetUplinkDown("leaf", false)
		}
	})
	copies := rs.acct.Copies()
	rs.audit("uplink outage")
	var dropped uint64
	for _, bp := range rs.c.Fabric.Uplink("leaf").Ports {
		dropped += bp.DropsLinkDown()
	}
	if dropped == 0 {
		t.Fatal("the outages dropped nothing at the bridge")
	}
	if got := rs.acct.Copies() - copies; got != 0 {
		t.Fatalf("READs across the bridge copied %d payload bytes, want 0", got)
	}
}
