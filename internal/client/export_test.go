package client

import (
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// LeakCallHeads plants a head leak: until restore is called, endCall
// keeps each call head's reference instead of releasing it.
func LeakCallHeads() (restore func()) {
	releaseHead = func(netsim.Head) {}
	return func() { releaseHead = netsim.Head.Release }
}

// Free reports how many records the pool holds.
func (p *CallPool) Free() int {
	n := 0
	for pc := p.free; pc != nil; pc = pc.next {
		n++
	}
	return n
}

// writeSync writes data (at most MaxData bytes) at off as one WRITE,
// staged in a buffer from the client's pool.
func (c *Client) writeSync(p *sim.Proc, fh nfsproto.FH, off uint32, data []byte) error {
	b := c.GetWriteBuf()
	copy(b.Data(), data)
	return c.WriteSyncBufRelease(p, fh, off, b, len(data))
}
