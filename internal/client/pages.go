package client

import (
	"bytes"
	"fmt"

	"repro/internal/block"
	"repro/internal/nfsproto"
)

// Pages is a cell's table of pattern pages. At an 8K-aligned offset off
// the audit pattern (FillPattern) is byte(j*2654435761 + off>>13) for
// j < 8192, so a whole aligned block of it is one of 256 pages: page i
// holds FillPattern at i<<13, which is the block at every aligned offset
// whose off>>13 is i mod 256. A whole-block WRITE of the pattern sends a reference to its
// page instead of a freshly filled buffer, and the server's cache, NVRAM
// and platter store keep that reference: a copy of 64 MB holds 2 MB of
// distinct payload.
//
// The table builds a page on first use from its ledger's pool and keeps
// one reference to it for good, so a page is never Unique, never
// recycled and never written: every receiver that mutates a block
// replaces a shared one (copy-on-write). The table belongs to one
// simulation, like its ledger: references are not atomic, and a ledger
// born from an arena poisons the pages' headers when it retires.
type Pages struct {
	pool *block.Pool
	page [256]*block.Buf
}

// NewPages returns an empty table whose pages come from acct's memory
// (nil = the process-global ledger).
func NewPages(acct *block.Accounting) *Pages {
	return &Pages{pool: block.Or(acct).NewPool()}
}

// Ref returns a new reference to the page of the 8K-aligned offset off,
// building the page on first use. The caller releases it; it must not
// write the bytes.
func (t *Pages) Ref(off uint32) *block.Buf {
	i := uint8(off >> 13)
	b := t.page[i]
	if b == nil {
		b = t.pool.Get()
		FillPattern(b.Data(), uint32(i)<<13)
		t.page[i] = b
	}
	return b.Ref()
}

// Refs reports the table's own references, one per page built (the leak
// audit's share of the table). A nil table holds none.
func (t *Pages) Refs() int {
	n := 0
	if t != nil {
		for _, b := range t.page {
			if b != nil {
				n++
			}
		}
	}
	return n
}

// Check is the pages-intact identity: every page built still holds its
// pattern and the table's reference. A page that fails it was written by
// a receiver or released once too often; the error names the page.
func (t *Pages) Check() error {
	var want [nfsproto.MaxData]byte
	for i, b := range t.page {
		if b == nil {
			continue
		}
		if b.Refs() < 1 {
			return fmt.Errorf("pattern page %d holds %d references, want at least the table's", i, b.Refs())
		}
		FillPattern(want[:], uint32(i)<<13)
		if got := b.Data(); !bytes.Equal(got, want[:]) {
			j := 0
			for got[j] == want[j] {
				j++
			}
			return fmt.Errorf("pattern page %d: byte %d is %#02x, want %#02x: a receiver wrote into a shared payload", i, j, got[j], want[j])
		}
	}
	return nil
}

// PatternBuf returns n bytes of the audit pattern at file offset off in a
// buffer with one reference, the caller's: for a whole aligned block, the
// shared page (read-only); otherwise a staging buffer filled for it.
func (c *Client) PatternBuf(off uint32, n int) *block.Buf {
	if n == nfsproto.MaxData && off%nfsproto.MaxData == 0 {
		if c.Pages == nil {
			c.Pages = NewPages(c.pool.Acct())
		}
		return c.Pages.Ref(off)
	}
	b := c.GetWriteBuf()
	FillPattern(b.Data()[:n], off)
	return b
}
