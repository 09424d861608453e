package client

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// Page i is the audit pattern of every aligned block whose offset>>13 is
// i mod 256: at i<<13, one cycle on at (i+256)<<13, and at the top of the
// offset space.
func TestPagesArePatternBlocks(t *testing.T) {
	tb := NewPages(block.NewAccounting())
	want := make([]byte, nfsproto.MaxData)
	for i := uint32(0); i < 256; i++ {
		for _, off := range []uint32{i << 13, (i + 256) << 13, 0xFFE00000 + i<<13} {
			b := tb.Ref(off)
			FillPattern(want, off)
			if !bytes.Equal(b.Data(), want) {
				t.Fatalf("page %d differs from the pattern at offset %#x", i, off)
			}
			b.Release()
		}
	}
	if tb.Refs() != 256 {
		t.Fatalf("table holds %d references, want one per page", tb.Refs())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

// A whole aligned block goes out as its page: each datagram carries a
// reference to the one shared page, which a receiver never finds Unique,
// and when every holder has let go the page keeps the table's reference
// and goes back to no pool. An unaligned block is still a staging buffer
// of its own, returned to the client's pool.
func TestSentPageIsSharedAndKept(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := netsim.New(s, hw.FDDI())
	acct := block.NewAccounting()
	srv := newAttrServer(s, n, sim.Millisecond)
	c := New(s, n, "c", "server", fastParams(), 0, acct)
	var held []*block.Buf // what a buffer cache would keep
	srv.onCall = func(dg *netsim.Datagram) {
		if dg.Body.Unique() {
			t.Error("a receiver holds the only reference to a WRITE payload")
		}
		held = append(held, dg.Body.Ref())
	}
	offs := []uint32{3 << 13, (3 + 256) << 13, 3<<13 + 4096}
	settled := 0
	s.At(0, func() {
		for _, off := range offs {
			c.Go(Req{Proc: nfsproto.ProcWrite, Off: off}, func(_ nfsproto.Status, err error) {
				if err != nil {
					t.Error(err)
				}
				settled++
			})
		}
	})
	s.Run(0)
	if settled != len(offs) || len(held) != len(offs) {
		t.Fatalf("%d calls settled, %d payloads received", settled, len(held))
	}
	page := c.Pages.page[3]
	if held[0] != page || held[1] != page || held[2] == page {
		t.Fatal("the aligned writes did not send page 3, or the unaligned one did")
	}
	if page.Refs() != 3 {
		t.Fatalf("page 3 holds %d references, want the table's and two receivers'", page.Refs())
	}
	for _, b := range held {
		b.Release()
	}
	if page.Refs() != 1 || c.Pages.pool.FreeLen() != 0 || c.Pages.Refs() != 1 {
		t.Fatalf("page 3 holds %d references and its pool %d free buffers, want the table's alone and none",
			page.Refs(), c.Pages.pool.FreeLen())
	}
	if c.pool.FreeLen() != 1 || acct.TotalRefs() != 1 {
		t.Fatalf("client pool has %d free buffers, ledger %d references: the unaligned staging buffer was not returned",
			c.pool.FreeLen(), acct.TotalRefs())
	}
	if err := c.Pages.Check(); err != nil {
		t.Fatal(err)
	}
}

// The pages-intact identity fires on one scribbled byte and on a page
// that lost the table's reference, and names the page.
func TestPagesCheckFires(t *testing.T) {
	tb := NewPages(nil)
	for _, i := range []uint32{7, 9} {
		tb.Ref(i << 13).Release()
	}
	tb.page[7].Data()[100] ^= 0xFF
	if err := tb.Check(); err == nil || !strings.Contains(err.Error(), "pattern page 7: byte 100") {
		t.Fatalf("scribbled page: %v", err)
	}
	tb.page[7].Data()[100] ^= 0xFF
	tb.page[9].Release()
	if err := tb.Check(); err == nil || !strings.Contains(err.Error(), "pattern page 9 holds 0 references") {
		t.Fatalf("released page: %v", err)
	}
}

// PatternBuf hands out the page only for a whole aligned block; a short
// or unaligned one is filled into a staging buffer.
func TestPatternBufShapes(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := netsim.New(s, hw.FDDI())
	c := New(s, n, "c", "server", fastParams(), 0, block.NewAccounting())
	for _, tc := range []struct {
		off  uint32
		n    int
		page bool
	}{{8 << 13, nfsproto.MaxData, true}, {8<<13 + 512, nfsproto.MaxData, false}, {8 << 13, 4096, false}} {
		b := c.PatternBuf(tc.off, tc.n)
		want := make([]byte, tc.n)
		FillPattern(want, tc.off)
		if isPage := c.Pages != nil && b == c.Pages.page[8]; isPage != tc.page || !bytes.Equal(b.Data()[:tc.n], want) {
			t.Errorf("PatternBuf(%#x, %d): page %v, pattern %v", tc.off, tc.n, isPage, bytes.Equal(b.Data()[:tc.n], want))
		}
		b.Release()
	}
}
