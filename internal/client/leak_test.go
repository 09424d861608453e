package client_test

import (
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// TestPlantedHeadLeakIsCaught plants the head leak, endCall without its
// head release, in a cell whose two clients take their pending-call
// records from the cell's one pool, and holds the cell's quiesce
// identities to catching it: the segments' head references exceed what
// dup caches and clients hold, and the ledger's references exceed what
// the cell accounts for, each by one per call. Unplanted, both balance.
func TestPlantedHeadLeakIsCaught(t *testing.T) {
	const calls = 6
	run := func(leak bool) (headGap, refGap int64) {
		acct := block.NewAccounting()
		c := cluster.New(cluster.Config{Net: hw.FDDI(), Clients: 2, Seed: 1, Acct: acct})
		defer c.Sim.Close()
		c.Sim.Run(0) // the boot
		if leak {
			defer client.LeakCallHeads()()
		}
		c.Sim.Spawn("app", func(p *sim.Proc) {
			// The clients take turns, so one record serves every call.
			for i := 0; i < calls; i++ {
				if res, err := c.Clients[i%2].Getattr(p, c.Roots()[0]); err != nil || res.Status != nfsproto.OK {
					t.Errorf("getattr %d: %v %v", i, err, res)
				}
			}
		})
		c.Sim.Run(0)
		pool := c.Clients[0].CallPool
		if pool == nil || c.Clients[1].CallPool != pool || pool.Free() != 1 {
			t.Fatalf("leak %v: the clients' calls did not share one pooled record", leak)
		}
		if n := c.Clients[0].Replied + c.Clients[1].Replied; n != calls {
			t.Fatalf("leak %v: %d calls replied, want %d", leak, n, calls)
		}
		var wire int64
		for _, name := range c.Fabric.Names() {
			wire += c.Fabric.Segment(name).HeadRefs()
		}
		return wire - c.HeldHeads(), acct.TotalRefs() - c.AccountedRefs()
	}
	if h, r := run(false); h != 0 || r != 0 {
		t.Fatalf("unplanted: head ledger off by %d, reference ledger by %d; want both balanced", h, r)
	}
	if h, r := run(true); h != calls || r != calls {
		t.Errorf("planted leak: head ledger off by %d, reference ledger by %d; want %d each", h, r, calls)
	}
}
