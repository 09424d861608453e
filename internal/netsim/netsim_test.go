package netsim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/block"
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
// carve gets its own, uncounted buffer; a live head's bytes survive while
// its siblings are released and their slab's successors are carved; and a
// slab is carved again only once it is no longer current and its last
// head is released.
func TestWireBufCarving(t *testing.T) {
	acct := block.NewAccounting()
	n := New(sim.New(1), hw.Ethernet())
	n.SetAccounting(acct)
	a := n.wireBuf(100)
	b := n.wireBuf(60)
	if len(a.Bytes) != 0 || cap(a.Bytes) != 100 || len(b.Bytes) != 0 || cap(b.Bytes) != 60 {
		t.Fatalf("carved len/cap %d/%d and %d/%d, want 0/100 and 0/60", len(a.Bytes), cap(a.Bytes), len(b.Bytes), cap(b.Bytes))
	}
	if &a.Bytes[:1][0] == &b.Bytes[:1][0] || &a.Bytes[:100][99] == &b.Bytes[:1][0] {
		t.Fatal("successive carves overlap")
	}
	b.Bytes = append(b.Bytes, bytes.Repeat([]byte{0xBB}, 60)...)
	grown := append(a.Bytes, bytes.Repeat([]byte{0xAA}, 101)...) // one byte past its head
	if !bytes.Equal(b.Bytes, bytes.Repeat([]byte{0xBB}, 60)) {
		t.Fatal("appending past one head's capacity wrote into the next head")
	}
	if len(grown) != 101 {
		t.Fatalf("overgrown head has %d bytes, want 101", len(grown))
	}
	if n.HeadRefs() != 2 || acct.TotalRefs() != 2 {
		t.Fatalf("two carved heads: %d head refs, %d ledger refs; want 2, 2", n.HeadRefs(), acct.TotalRefs())
	}

	// A head over the carving limit bypasses the slab and carries no
	// count: the next small carve still comes from the same slab, right
	// after b.
	big := n.wireBuf(wireHeadMax + 1)
	c := n.wireBuf(4)
	if cap(big.Bytes) != wireHeadMax+1 || big.Carved() || &c.Bytes[:1][0] != &n.slab.mem[160] {
		t.Fatal("a head over the carving limit was carved from the slab")
	}
	big.Release() // a no-op
	if n.HeadRefs() != 3 {
		t.Fatalf("%d head refs, want 3", n.HeadRefs())
	}

	// Release every head but b, and carve and release 2 KB heads until
	// the first slab is retired: b pins it, so it is not a spare.
	first := n.slab
	a.Release()
	c.Release()
	carveUntilRetired := func() *slab {
		s := n.slab
		for n.slab == s {
			h := n.wireBuf(wireHeadMax)
			h.Bytes = append(h.Bytes, bytes.Repeat([]byte{0xCC}, wireHeadMax)...)
			h.Release()
		}
		return n.slab
	}
	second := carveUntilRetired()
	if second == first || len(spares(n)) != 0 {
		t.Fatalf("first slab retired: current reused %v, %d spares; want a new slab and none", second == first, len(spares(n)))
	}
	// The second slab has no live head when it is retired, so it is the
	// spare the slab after the third is taken from.
	third := carveUntilRetired()
	if third == second || len(spares(n)) != 1 || spares(n)[0] != second {
		t.Fatal("a retired slab nothing references is not a spare")
	}
	if again := carveUntilRetired(); again != second || len(spares(n)) != 1 || spares(n)[0] != third {
		t.Fatal("a slab was made while a spare was waiting")
	}
	if n.slab.used != wireHeadMax {
		t.Fatal("a recycled slab is not carved from its front")
	}
	if !bytes.Equal(b.Bytes, bytes.Repeat([]byte{0xBB}, 60)) {
		t.Fatal("a live head's bytes changed while its siblings were released and recarved")
	}

	// b's release frees the first slab, which is no longer current.
	b.Release()
	if len(spares(n)) != 2 || spares(n)[1] != first {
		t.Fatalf("%d spares; want the third slab and then the first", len(spares(n)))
	}
	if n.HeadRefs() != 0 || acct.TotalRefs() != 0 {
		t.Fatalf("all released: %d head refs, %d ledger refs", n.HeadRefs(), acct.TotalRefs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a head released more often than it was held did not panic")
		}
	}()
	b.Release()
}

// TestSlabIsOneSizeClass: a slab's memory, lent or made, is exactly 16 KB,
// and 16 KB is a whole size class: the runtime rounds the request up by
// nothing, so no byte of the class is wasted. The header is a record of
// its own that holds no bytes.
func TestSlabIsOneSizeClass(t *testing.T) {
	if grown := append([]byte(nil), make([]byte, wireSlab)...); cap(grown) != wireSlab {
		t.Fatalf("a %d-byte allocation is rounded up to %d: not a size class", wireSlab, cap(grown))
	}
	if size := reflect.TypeOf(slab{}).Size(); size > 64 {
		t.Fatalf("a slab header takes %d bytes, want its bookkeeping only", size)
	}
	for name, acct := range map[string]*block.Accounting{"plain": block.NewAccounting(), "arena": block.NewArena().NewAccounting()} {
		n := New(sim.New(1), hw.Ethernet())
		n.SetAccounting(acct)
		n.wireBuf(8).Release()
		if m := n.slab.mem; len(m) != wireSlab || cap(m) != wireSlab {
			t.Fatalf("%s ledger: slab memory has len %d cap %d, want %d", name, len(m), cap(m), wireSlab)
		}
	}
}
