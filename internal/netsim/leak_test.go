package netsim

import (
	"testing"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/sim"
)

// TestSplitDatagramReleasePaths audits every way a body-carrying datagram
// can die — consumed by the receiver, dropped at a full socket buffer,
// dropped on arrival at a crashed endpoint, scrubbed out of a detached
// inbox, and sent to a nonexistent destination — and asserts each path
// returns the payload reference, so the pool drains to exactly the
// sender's own reference.
func TestSplitDatagramReleasePaths(t *testing.T) {
	live0 := block.Live()
	s := sim.New(3)
	n := New(s, hw.Ethernet())
	n.Attach("cli", 0, 0)
	// A one-datagram inbox: the second queued delivery overflows.
	srv := n.Attach("srv", 1, 0)

	pool := block.NewPool()
	body := pool.Get()

	// Path 1+2: two back-to-back sends; the first is consumed, the second
	// overflows the one-slot inbox.
	s.Spawn("sender", func(p *sim.Proc) {
		n.SendHead(p, "cli", "srv", Head{Bytes: []byte("head1")}, body, block.Size)
		n.SendHead(p, "cli", "srv", Head{Bytes: []byte("head2")}, body, block.Size)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		// Start draining only after both deliveries have arrived, so the
		// second one finds the one-slot inbox full and drops.
		p.Sleep(100 * sim.Millisecond)
		dg := srv.Inbox.Get(p)
		if dg.Body == nil || dg.BodyLen != block.Size {
			t.Errorf("consumed datagram lost its body: %v/%d", dg.Body, dg.BodyLen)
		}
		if dg.Size() != len("head1")+block.Size {
			t.Errorf("Size() = %d", dg.Size())
		}
		dg.Release()
		if dg.Body != nil {
			t.Error("Release did not clear Body")
		}
		dg.Release() // double release of the datagram must be a no-op
	})
	s.Run(0)
	if srv.Drops() != 1 {
		t.Fatalf("overflow drops = %d, want 1", srv.Drops())
	}

	// Path 3: queued at detach. Park a datagram in the inbox, then detach.
	s.Spawn("sender2", func(p *sim.Proc) {
		n.SendHead(p, "cli", "srv", Head{Bytes: []byte("head3")}, body, block.Size)
	})
	s.Run(0)
	if srv.Inbox.Len() != 1 {
		t.Fatalf("inbox len = %d, want 1", srv.Inbox.Len())
	}
	n.Detach("srv")

	// Path 4: in flight toward a crashed endpoint. Reattach, send, and
	// detach the moment serialization completes — the delivery event is
	// still one propagation latency away and must drop on arrival.
	ep2 := n.Attach("srv", 0, 0)
	s.Spawn("sender3", func(p *sim.Proc) {
		n.SendHead(p, "cli", "srv", Head{Bytes: []byte("head4")}, body, block.Size)
		n.Detach("srv") // SendHead returns at end of serialization
	})
	s.Run(0)
	if !ep2.Dead() {
		t.Fatal("endpoint not detached")
	}

	// Path 5: no such destination.
	s.Spawn("sender4", func(p *sim.Proc) {
		if n.SendHead(p, "cli", "ghost", Head{Bytes: []byte("head5")}, body, block.Size) {
			t.Error("send to ghost endpoint reported success")
		}
	})
	s.Run(0)

	// Every datagram reference is gone; only the sender's own remains.
	if got := block.Live() - live0; got != 1 {
		t.Fatalf("%d payload buffers live after the sweep, want 1 (the sender's)", got)
	}
	if body.Refs() != 1 {
		t.Fatalf("body refs = %d, want 1", body.Refs())
	}
	body.Release()
	if got := block.Live() - live0; got != 0 {
		t.Fatalf("%d payload buffers leaked", got)
	}
}

// TestSplitDatagramPadding: a body length the XDR opaque would pad cannot
// ride the split path (the padding bytes would be missing from the wire).
func TestSplitDatagramPadding(t *testing.T) {
	s := sim.New(4)
	n := New(s, hw.Ethernet())
	n.Attach("a", 0, 0)
	n.Attach("b", 0, 0)
	pool := block.NewPool()
	body := pool.Get()
	defer body.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("unpadded split body did not panic")
		}
	}()
	// The length check fires before the medium is touched, so no process
	// context is needed to exercise it.
	n.SendHead(nil, "a", "b", Head{Bytes: []byte("head")}, body, 8190)
	_ = s
}

// TestTakeBodyOutlivesTheDatagram: a consumer that takes the body over
// keeps it past Release, which then has nothing left to drop.
func TestTakeBodyOutlivesTheDatagram(t *testing.T) {
	acct := block.NewAccounting()
	s := sim.New(5)
	n := New(s, hw.FDDI())
	n.Attach("a", 0, 0)
	b := n.Attach("b", 0, 0)
	body := acct.NewPool().Get()
	s.Spawn("sender", func(p *sim.Proc) { n.SendHead(p, "a", "b", Head{Bytes: []byte("head")}, body, 1000) })
	s.Run(0)
	body.Release() // the sender's
	dg, ok := b.Inbox.TryGet()
	if !ok {
		t.Fatal("nothing delivered")
	}
	got, size := dg.TakeBody()
	if got != body || size != 1000 || dg.Body != nil || dg.BodyLen != 0 {
		t.Fatalf("TakeBody = %v, %d; datagram keeps %v, %d", got, size, dg.Body, dg.BodyLen)
	}
	dg.Release()
	if body.Refs() != 1 || acct.TotalRefs() != 1 {
		t.Fatalf("refs after the datagram died: %d (ledger %d), want the taker's 1", body.Refs(), acct.TotalRefs())
	}
	if b, n := dg.TakeBody(); b != nil || n != 0 {
		t.Fatal("a datagram without a body gave one")
	}
	got.Release()
	if acct.TotalRefs() != 0 {
		t.Fatal("body leaked")
	}
}
