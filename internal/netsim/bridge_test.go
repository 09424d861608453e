package netsim

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// twoSegFabric builds root "core" (fddi) + leaf "lan" (ethernet) joined
// by an uplink bridge, with a server on core and a client on lan.
func twoSegFabric(s *sim.Sim, bp BridgeParams) (*Fabric, *Endpoint, *Endpoint) {
	f := NewFabric(s, []SegmentSpec{
		{Name: "core", Params: hw.FDDI()},
		{Name: "lan", Params: hw.Ethernet(), Uplink: "core", Bridge: bp},
	})
	srv := f.Segment("core").Attach("server", 0, 0)
	cli := f.Segment("lan").Attach("client", 0, 0)
	f.Place("server", "core")
	f.Place("client", "lan")
	return f, srv, cli
}

func TestBridgeStoreAndForward(t *testing.T) {
	s := sim.New(1)
	f, srv, cli := twoSegFabric(s, BridgeParams{ForwardLatency: 50 * sim.Microsecond})
	var atServer, atClient *Datagram
	s.Spawn("srv", func(p *sim.Proc) {
		atServer = srv.Inbox.Get(p)
		// Reply crosses back over the bridge.
		f.Segment("core").Send(p, "server", "client", []byte("pong"))
	})
	s.Spawn("cli", func(p *sim.Proc) {
		f.Segment("lan").Send(p, "client", "server", []byte("ping"))
		atClient = cli.Inbox.Get(p)
	})
	end := s.Run(0)
	if atServer == nil || string(atServer.Payload) != "ping" {
		t.Fatalf("request not forwarded: %+v", atServer)
	}
	if atServer.From != "client" || atServer.To != "server" {
		t.Fatalf("forwarding rewrote addressing: %s -> %s", atServer.From, atServer.To)
	}
	if atClient == nil || string(atClient.Payload) != "pong" {
		t.Fatalf("reply not forwarded back: %+v", atClient)
	}
	// Both segments carried wire traffic, and the bridge counted both
	// directions.
	if f.Segment("lan").SentDatagrams != 2 || f.Segment("core").SentDatagrams != 2 {
		t.Fatalf("wire accounting: lan=%d core=%d, want 2/2",
			f.Segment("lan").SentDatagrams, f.Segment("core").SentDatagrams)
	}
	br := f.Uplink("lan")
	if got := br.Ports[0].Forwarded + br.Ports[1].Forwarded; got != 2 {
		t.Fatalf("bridge forwarded %d datagrams, want 2", got)
	}
	// Store-and-forward is slower than one segment: request pays lan
	// serialization + forward latency + core serialization.
	if end < sim.Time(200*sim.Microsecond) {
		t.Fatalf("round trip implausibly fast: %v", end)
	}
}

// TestBridgeQueueFullDrops floods a one-deep bridge output queue faster
// than the slow downstream segment drains it, and checks every datagram
// is either forwarded or charged to the port's queue-full budget.
func TestBridgeQueueFullDrops(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, []SegmentSpec{
		{Name: "slow", Params: hw.Ethernet()},
		{Name: "fast", Params: hw.FDDI(), Uplink: "slow", Bridge: BridgeParams{QueueItems: 1}},
	})
	f.Segment("slow").Attach("sink", 0, 0)
	f.Segment("fast").Attach("src", 0, 0)
	f.Place("sink", "slow")
	f.Place("src", "fast")
	const burst = 32
	s.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < burst; i++ {
			f.Segment("fast").Send(p, "src", "sink", make([]byte, 8192))
		}
	})
	s.Run(0)
	// The outbound port is the parent-side port (index 1).
	out := f.Uplink("fast").Ports[1]
	if out.DropsQueueFull() == 0 {
		t.Fatal("no queue-full drops despite a 1-deep FIFO and an 8x rate mismatch")
	}
	if got := out.Forwarded + out.DropsQueueFull(); got != burst {
		t.Fatalf("forwarded(%d) + dropped(%d) = %d, want %d",
			out.Forwarded, out.DropsQueueFull(), got, burst)
	}
	if out.Forwarded != f.Segment("slow").SentDatagrams {
		t.Fatalf("forwarded %d but slow segment carried %d", out.Forwarded, f.Segment("slow").SentDatagrams)
	}
}

// TestBridgeUplinkDown severs a leaf's uplink mid-stream: datagrams
// sent during the outage die at the bridge (counted as link-down
// drops), and traffic flows again after restoration.
func TestBridgeUplinkDown(t *testing.T) {
	s := sim.New(1)
	f, srv, _ := twoSegFabric(s, BridgeParams{})
	var delivered int
	s.Spawn("srv", func(p *sim.Proc) {
		for {
			srv.Inbox.Get(p).Release()
			delivered++
		}
	})
	s.Spawn("cli", func(p *sim.Proc) {
		lan := f.Segment("lan")
		lan.Send(p, "client", "server", make([]byte, 1024)) // before: delivered
		p.Sleep(5 * sim.Millisecond)                        // let it propagate through
		f.SetUplinkDown("lan", true)
		lan.Send(p, "client", "server", make([]byte, 1024)) // during: dropped
		lan.Send(p, "client", "server", make([]byte, 1024)) // during: dropped
		p.Sleep(10 * sim.Millisecond)
		f.SetUplinkDown("lan", false)
		lan.Send(p, "client", "server", make([]byte, 1024)) // after: delivered
	})
	s.Run(0)
	if delivered != 2 {
		t.Fatalf("delivered %d datagrams, want 2 (outage should eat the middle two)", delivered)
	}
	br := f.Uplink("lan")
	drops := br.Ports[0].DropsLinkDown() + br.Ports[1].DropsLinkDown() + f.Segment("lan").DropsLinkDown
	if drops != 2 {
		t.Fatalf("link-down drops = %d, want 2", drops)
	}
	if !f.SetUplinkDown("core", true) == false {
		t.Fatal("root segment must report no uplink")
	}
}

// TestFabricMultiHop routes leaf-to-leaf across a three-deep chain:
// core <- mid <- leaf, with hosts on leaf and core, plus a sibling
// branch to prove next-hop selection descends correctly.
func TestFabricMultiHop(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, []SegmentSpec{
		{Name: "core", Params: hw.FDDI()},
		{Name: "mid", Params: hw.Ethernet(), Uplink: "core"},
		{Name: "leaf", Params: hw.Ethernet(), Uplink: "mid"},
		{Name: "side", Params: hw.Ethernet(), Uplink: "core"},
	})
	f.Segment("core").Attach("server", 0, 0)
	deep := f.Segment("leaf").Attach("deep", 0, 0)
	side := f.Segment("side").Attach("peer", 0, 0)
	f.Place("server", "core")
	f.Place("deep", "leaf")
	f.Place("peer", "side")
	var atDeep, atPeer *Datagram
	s.Spawn("deep", func(p *sim.Proc) {
		// deep -> peer crosses leaf, mid, core, side: three bridges.
		f.Segment("leaf").Send(p, "deep", "peer", []byte("x"))
		atDeep = deep.Inbox.Get(p)
	})
	s.Spawn("peer", func(p *sim.Proc) {
		atPeer = side.Inbox.Get(p)
		f.Segment("side").Send(p, "peer", "deep", []byte("y"))
	})
	s.Run(0)
	if atPeer == nil || atPeer.From != "deep" {
		t.Fatalf("leaf->side delivery failed: %+v", atPeer)
	}
	if atDeep == nil || atDeep.From != "peer" {
		t.Fatalf("side->leaf delivery failed: %+v", atDeep)
	}
	// Every segment on the path carried the datagram once per direction.
	for _, seg := range []string{"leaf", "mid", "core", "side"} {
		if got := f.Segment(seg).SentDatagrams; got != 2 {
			t.Fatalf("segment %s carried %d datagrams, want 2", seg, got)
		}
	}
}
