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
// the identity names the numbers.
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
}
