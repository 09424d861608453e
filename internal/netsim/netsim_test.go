package netsim

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestDeliverySimple(t *testing.T) {
	s := sim.New(1)
	n := New(s, hw.Ethernet())
	dst := n.Attach("server", 0, 0)
	n.Attach("client", 0, 0)
	var got *Datagram
	s.Spawn("recv", func(p *sim.Proc) { got = dst.Inbox.Get(p) })
	s.Spawn("send", func(p *sim.Proc) {
		n.Send(p, "client", "server", []byte("hello"))
	})
	s.Run(0)
	if got == nil || string(got.Payload) != "hello" {
		t.Fatalf("got = %+v", got)
	}
	if got.From != "client" || got.To != "server" {
		t.Fatalf("addressing = %s -> %s", got.From, got.To)
	}
}

func TestFragmentationCounts(t *testing.T) {
	s := sim.New(1)
	eth := New(s, hw.Ethernet())
	fddi := New(s, hw.FDDI())
	// 8K + 28 header = 8220; Ethernet MTU 1500 -> 6 frags; FDDI 4352 -> 2.
	if f := eth.FragCount(8192); f != 6 {
		t.Fatalf("Ethernet frags = %d, want 6", f)
	}
	if f := fddi.FragCount(8192); f != 2 {
		t.Fatalf("FDDI frags = %d, want 2", f)
	}
	if f := eth.FragCount(100); f != 1 {
		t.Fatalf("small frags = %d, want 1", f)
	}
}

func Test8KTransferTimes(t *testing.T) {
	s := sim.New(1)
	eth := New(s, hw.Ethernet())
	d, _, _ := eth.wireTime(8192)
	// 10 Mb/s Ethernet: an 8K datagram should take roughly 6-9 ms.
	if d < 5*sim.Millisecond || d > 10*sim.Millisecond {
		t.Fatalf("Ethernet 8K wire time = %v", d)
	}
	fddi := New(s, hw.FDDI())
	df, _, _ := fddi.wireTime(8192)
	// 100 Mb/s FDDI: well under a millisecond.
	if df > 1200*sim.Microsecond {
		t.Fatalf("FDDI 8K wire time = %v", df)
	}
	if df >= d {
		t.Fatal("FDDI not faster than Ethernet")
	}
}

func TestMediumSerializesSenders(t *testing.T) {
	s := sim.New(1)
	n := New(s, hw.Ethernet())
	n.Attach("a", 0, 0)
	n.Attach("b", 0, 0)
	n.Attach("dst", 0, 0)
	var aDone, bDone sim.Time
	s.Spawn("a", func(p *sim.Proc) {
		n.Send(p, "a", "dst", make([]byte, 8192))
		aDone = p.Now()
	})
	s.Spawn("b", func(p *sim.Proc) {
		n.Send(p, "b", "dst", make([]byte, 8192))
		bDone = p.Now()
	})
	s.Run(0)
	// Second sender must wait for the first to finish the shared medium.
	if bDone < aDone+sim.Time(5*sim.Millisecond) {
		t.Fatalf("senders overlapped: a=%v b=%v", aDone, bDone)
	}
}

func TestSocketBufferOverflowDrops(t *testing.T) {
	s := sim.New(1)
	n := New(s, hw.FDDI())
	srv := n.Attach("server", 0, 20000) // tiny socket buffer: fits two 8K
	n.Attach("client", 0, 0)
	s.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			n.Send(p, "client", "server", make([]byte, 8192))
		}
	})
	s.Run(0)
	if srv.Drops() != 3 {
		t.Fatalf("drops = %d, want 3", srv.Drops())
	}
	if srv.Inbox.Len() != 2 {
		t.Fatalf("queued = %d, want 2", srv.Inbox.Len())
	}
}

func TestSendToUnknownEndpoint(t *testing.T) {
	s := sim.New(1)
	n := New(s, hw.Ethernet())
	n.Attach("a", 0, 0)
	ok := true
	s.Spawn("send", func(p *sim.Proc) {
		ok = n.Send(p, "a", "nowhere", []byte("x"))
	})
	s.Run(0)
	if ok {
		t.Fatal("send to unknown endpoint reported success")
	}
	if n.DropsNoDest != 1 {
		t.Fatalf("DropsNoDest = %d", n.DropsNoDest)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	s := sim.New(1)
	n := New(s, hw.Ethernet())
	n.Attach("x", 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	n.Attach("x", 0, 0)
}

func TestLatencyOrdering(t *testing.T) {
	s := sim.New(1)
	n := New(s, hw.FDDI())
	dst := n.Attach("dst", 0, 0)
	n.Attach("src", 0, 0)
	var order []int
	s.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			d := dst.Inbox.Get(p)
			order = append(order, int(d.Payload[0]))
		}
	})
	s.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			n.Send(p, "src", "dst", []byte{byte(i)})
		}
	})
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("datagrams reordered: %v", order)
		}
	}
}

func TestUtilizationReflectsTraffic(t *testing.T) {
	s := sim.New(1)
	n := New(s, hw.Ethernet())
	n.Attach("a", 0, 0)
	n.Attach("dst", 0, 0)
	s.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			n.Send(p, "a", "dst", make([]byte, 8192))
		}
	})
	s.Run(0)
	if u := n.Utilization(); u < 0.9 {
		t.Fatalf("back-to-back sends yield utilization %v", u)
	}
	if n.SentDatagrams != 10 {
		t.Fatalf("SentDatagrams = %d", n.SentDatagrams)
	}
}

// TestWireBufCarving pins WireBuf's contract: heads carved from one slab
// are disjoint and cap-limited, so an encoder that outgrows its head
// reallocates rather than writing into the next one; a head too big to
// carve gets its own buffer; and an exhausted slab is replaced, never
// reused.
func TestWireBufCarving(t *testing.T) {
	n := New(sim.New(1), hw.Ethernet())
	a := n.WireBuf(100)
	b := n.WireBuf(60)
	if len(a) != 0 || cap(a) != 100 || len(b) != 0 || cap(b) != 60 {
		t.Fatalf("carved len/cap %d/%d and %d/%d, want 0/100 and 0/60", len(a), cap(a), len(b), cap(b))
	}
	if &a[:1][0] == &b[:1][0] || &a[:100][99] == &b[:1][0] {
		t.Fatal("successive carves overlap")
	}
	b = append(b, bytes.Repeat([]byte{0xBB}, 60)...)
	a = append(a, bytes.Repeat([]byte{0xAA}, 101)...) // one byte past its head
	if !bytes.Equal(b, bytes.Repeat([]byte{0xBB}, 60)) {
		t.Fatal("appending past one head's capacity wrote into the next head")
	}
	if len(a) != 101 {
		t.Fatalf("overgrown head has %d bytes, want 101", len(a))
	}

	// A head over the carving limit bypasses the slab: the next small
	// carve still comes from the same slab, right after b.
	big := n.WireBuf(wireHeadMax + 1)
	c := n.WireBuf(4)
	if cap(big) != wireHeadMax+1 || &c[:1][0] != &n.slab[160] {
		t.Fatal("a head over the carving limit was carved from the slab")
	}

	// Exhaust the slab; the carve that does not fit starts a new one and
	// leaves every byte of the old one where it was.
	old := n.slab[:cap(n.slab)]
	for len(n.slab)+wireHeadMax <= cap(n.slab) {
		copy(n.WireBuf(wireHeadMax)[:wireHeadMax], bytes.Repeat([]byte{0xCC}, wireHeadMax))
	}
	snapshot := append([]byte(nil), old...)
	d := append(n.WireBuf(wireHeadMax), bytes.Repeat([]byte{0xDD}, wireHeadMax)...)
	if &n.slab[0] == &old[0] {
		t.Fatal("an exhausted slab was reused")
	}
	if &d[0] != &n.slab[0] {
		t.Fatal("the carve that did not fit is not the front of the new slab")
	}
	if !bytes.Equal(old, snapshot) {
		t.Fatal("carving from the new slab wrote into the old one")
	}
}
