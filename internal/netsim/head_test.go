package netsim

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/sim"
)

// carve returns a head carved on n holding msg, with the caller's
// reference.
func carve(n *Network, msg []byte) Head {
	h := n.wireBuf(len(msg))
	h.Bytes = append(h.Bytes, msg...)
	return h
}

// spares lists n's spare slabs in the order they were recycled.
func spares(n *Network) []*slab {
	var out []*slab
	for s := n.spare; s != nil; s = s.next {
		out = append([]*slab{s}, out...)
	}
	return out
}

// retire carves and releases heads on n until the slab h was carved from
// is no longer current, so h's last release recycles it.
func retire(n *Network, h Head) {
	for n.slab == h.slab {
		n.wireBuf(wireHeadMax).Release()
	}
}

// TestHeadReleasePaths sends carved heads down every path a datagram can
// die on — consumed (and taken over with TakeHead), dropped at a full
// socket buffer, at a crashed host while in flight, queued at a detach,
// sent to nobody, severed at arrival and in the driver — with the sender
// releasing its own reference as each send returns. Every path lets go of
// the datagram's reference, so what is left is the consumer's, and its
// release frees the slab.
func TestHeadReleasePaths(t *testing.T) {
	acct := block.NewAccounting()
	s := sim.New(1)
	defer s.Close()
	n := New(s, hw.Ethernet())
	n.SetAccounting(acct)
	n.Attach("cli", 0, 0)
	srv := n.Attach("srv", 1, 0) // a socket buffer of one datagram
	n.Attach("down", 0, 0)
	n.Attach("doomed", 0, 0)
	n.Attach("queued", 0, 0)
	msg := bytes.Repeat([]byte{7}, 100)
	var first Head
	s.Spawn("sender", func(p *sim.Proc) {
		send := func(from, to string) {
			h := carve(n, msg)
			if first.slab == nil {
				first = h
			}
			n.SendHead(p, from, to, h, nil, 0)
			h.Release()
		}
		send("cli", "srv")    // delivered, then taken over
		send("cli", "srv")    // socket buffer full
		send("cli", "nobody") // no destination
		send("cli", "doomed") // the host crashes before it lands
		n.Detach("doomed")
		send("cli", "queued") // queued, then lost with its host
		p.Sleep(sim.Millisecond)
		n.Detach("queued")
		send("cli", "down") // severed at arrival
		n.SetLinkDown("down", true)
		send("down", "cli") // severed in the driver
	})
	s.Run(0)
	if n.delivered != 2 || n.dropsSocket != 1 || n.DropsNoDest != 1 || n.dropsHostDown != 1 || n.DropsLinkDown != 2 {
		t.Fatalf("delivered %d, socket buffer %d, no destination %d, host down %d, link down %d; want 2, 1, 1, 1, 2",
			n.delivered, n.dropsSocket, n.DropsNoDest, n.dropsHostDown, n.DropsLinkDown)
	}
	if n.HeadRefs() != 1 || acct.TotalRefs() != 1 {
		t.Fatalf("at quiesce: %d head refs, %d ledger refs; want the queued delivery's 1", n.HeadRefs(), acct.TotalRefs())
	}
	dg, _ := srv.Inbox.TryGet()
	h := dg.TakeHead()
	dg.Release()
	if !h.Carved() || !bytes.Equal(h.Bytes, msg) || n.HeadRefs() != 1 {
		t.Fatalf("TakeHead: carved %v, %d head refs; the consumer's reference did not survive Release", h.Carved(), n.HeadRefs())
	}
	retire(n, first)
	h.Release()
	if n.HeadRefs() != 0 || acct.TotalRefs() != 0 || len(spares(n)) != 1 || spares(n)[0] != first.slab {
		t.Fatalf("after the last release: %d head refs, %d ledger refs, %d spares; want 0, 0 and the head's slab",
			n.HeadRefs(), acct.TotalRefs(), len(spares(n)))
	}
}

// TestForwardedHeadHoldsItsOwnReference: a carved head sent across a
// bridge is held by each datagram that carries it — on its own segment,
// in the bridge's FIFO and on the next segment — so the sender may let go
// as its send returns, and its bytes still arrive. The last release
// returns the slab to the segment it was carved on, scribbled under the
// ledger's Debug flag, so a reader of the dead head reads garbage.
func TestForwardedHeadHoldsItsOwnReference(t *testing.T) {
	acct := block.NewAccounting()
	acct.Debug = true
	s := sim.New(1)
	defer s.Close()
	f, srv, _ := twoSegFabric(s, BridgeParams{ForwardLatency: 50 * sim.Microsecond})
	lan, core := f.Segment("lan"), f.Segment("core")
	lan.SetAccounting(acct)
	core.SetAccounting(acct)
	msg := bytes.Repeat([]byte("head"), 100)
	var sent Head
	s.Spawn("cli", func(p *sim.Proc) {
		sent = carve(lan, msg)
		lan.SendHead(p, "client", "server", sent, nil, 0)
		sent.Release()
		retire(lan, sent)
	})
	var got *Datagram
	s.Spawn("srv", func(p *sim.Proc) { got = srv.Inbox.Get(p) })
	s.Run(0)
	if got == nil || !bytes.Equal(got.Payload, msg) {
		t.Fatal("the forwarded head did not arrive intact")
	}
	if lan.HeadRefs() != 1 || core.HeadRefs() != 0 || acct.TotalRefs() != 1 || len(spares(lan)) != 0 {
		t.Fatalf("delivered on core: lan %d head refs, core %d, ledger %d, lan spares %d; want 1, 0, 1, 0",
			lan.HeadRefs(), core.HeadRefs(), acct.TotalRefs(), len(spares(lan)))
	}
	dead := got.Payload
	got.Release()
	if lan.HeadRefs() != 0 || acct.TotalRefs() != 0 {
		t.Fatalf("released: lan %d head refs, ledger %d", lan.HeadRefs(), acct.TotalRefs())
	}
	if len(spares(lan)) != 1 || spares(lan)[0] != sent.slab || len(spares(core)) != 0 {
		t.Fatalf("the slab went back to lan %d / core %d spares; want lan's own", len(spares(lan)), len(spares(core)))
	}
	if !bytes.Equal(dead, bytes.Repeat([]byte{scribble}, len(msg))) {
		t.Fatal("a recycled slab was not scribbled under Debug")
	}
}
