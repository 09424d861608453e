package netsim

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// TestDatagramLedger sends datagrams down every path a segment has — a
// delivery, a destination nobody serves, a severed sender and a severed
// receiver, a full socket buffer, a host that crashes while its datagram
// is in flight — and checks that the segment's identity holds at quiesce
// with every cause counted. Then one datagram goes missing uncounted, and
// the identity names the numbers. A bridge's ports get the same treatment:
// datagrams forwarded, filtered for want of a route, dropped at a full
// FIFO and at a down port balance at quiesce, and an arrival that vanishes
// uncounted is named with its bridge and port.
func TestDatagramLedger(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := New(s, hw.Ethernet())
	n.Attach("cli", 0, 0)
	n.Attach("srv", 0, 0)
	n.Attach("tiny", 1, 0) // a socket buffer of one datagram
	n.Attach("down", 0, 0)
	n.Attach("doomed", 0, 0)
	s.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, 100)
		n.Send(p, "cli", "srv", msg)    // delivered
		n.Send(p, "cli", "nobody", msg) // no destination
		n.Send(p, "cli", "tiny", msg)   // delivered
		n.Send(p, "cli", "tiny", msg)   // socket buffer full
		n.Send(p, "cli", "doomed", msg) // the host crashes before it lands
		n.Detach("doomed")
		n.Send(p, "cli", "down", msg) // severed at arrival
		n.SetLinkDown("down", true)
		n.Send(p, "down", "cli", msg) // severed in the driver
	})
	s.Run(0)

	if err := n.CheckDatagrams(); err != nil {
		t.Fatal(err)
	}
	if n.SentDatagrams != 6 || n.delivered != 2 || n.DropsNoDest != 1 || n.dropsSocket != 1 ||
		n.dropsHostDown != 1 || n.DropsLinkDown != 2 || n.severedSends != 1 {
		t.Fatalf("sent %d, delivered %d, no destination %d, socket buffer %d, host down %d, link down %d (%d severed sends)",
			n.SentDatagrams, n.delivered, n.DropsNoDest, n.dropsSocket, n.dropsHostDown, n.DropsLinkDown, n.severedSends)
	}

	n.SentDatagrams++ // planted: a datagram left the medium uncounted
	err := n.CheckDatagrams()
	if err == nil || !strings.Contains(err.Error(), "sent 7 != delivered 2 + no destination 1 + link down 1 + socket buffer full 1 + host down 1") {
		t.Fatalf("planted violation: %v", err)
	}

	// FDDI feeding Ethernet through a one-deep FIFO: a burst overflows it.
	// A port taken down drops what it dequeues, and what it was
	// processing when it went down.
	f := NewFabric(s, []SegmentSpec{
		{Name: "wan", Params: hw.Ethernet()},
		{Name: "lan", Params: hw.FDDI(), Uplink: "wan",
			Bridge: BridgeParams{QueueItems: 1, ForwardLatency: 10 * sim.Millisecond}},
	})
	lan, wan := f.Segment("lan"), f.Segment("wan")
	br := f.Uplink("lan")
	in, out := br.Ports[0], br.Ports[1]
	lan.Attach("src", 0, 0)
	wan.Attach("sink", 0, 0)
	f.Place("src", "lan")
	f.Place("sink", "wan")
	s.Spawn("bridged", func(p *sim.Proc) {
		msg := make([]byte, 8192)
		// Addressed to the bridge itself: it arrives on the lan port, and
		// the fabric knows no way onward.
		lan.Send(p, "src", br.Name, msg)
		for i := 0; i < 8; i++ {
			lan.Send(p, "src", "sink", msg)
		}
		p.Sleep(sim.Second)
		out.SetDown(true)
		lan.Send(p, "src", "sink", msg)
		p.Sleep(sim.Second)
		out.SetDown(false)
		lan.Send(p, "src", "sink", msg)
		p.Sleep(5 * sim.Millisecond) // inside the bridge's 10 ms of processing
		out.SetDown(true)
		p.Sleep(sim.Second)
		out.SetDown(false)
	})
	s.Run(0)
	if err := br.CheckDatagrams(); err != nil {
		t.Fatal(err)
	}
	if in.received != 11 || in.DropsNoRoute != 1 || out.Forwarded == 0 || out.DropsQueueFull() == 0 || out.DropsLinkDown() != 2 ||
		out.Forwarded+out.DropsQueueFull()+out.DropsLinkDown() != 10 {
		t.Fatalf("received %d, no route %d, forwarded %d, queue full %d, link down %d",
			in.received, in.DropsNoRoute, out.Forwarded, out.DropsQueueFull(), out.DropsLinkDown())
	}

	in.received++ // planted: an arrival on the lan port vanished uncounted
	err = br.CheckDatagrams()
	if err == nil || !strings.Contains(err.Error(), "bridge bridge:lan port 0 (lan): received 12 != no route 1 + routed 10") {
		t.Fatalf("planted bridge violation: %v", err)
	}
	in.received--
	out.Forwarded-- // planted: a datagram left the wan port's FIFO uncounted
	err = br.CheckDatagrams()
	if err == nil || !strings.Contains(err.Error(), "bridge bridge:lan port 1 (wan): queued ") {
		t.Fatalf("planted bridge violation: %v", err)
	}
}
