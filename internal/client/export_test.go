package client

import "repro/internal/netsim"

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
