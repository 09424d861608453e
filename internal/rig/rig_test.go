package rig

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/sim"
)

func TestRigAssemblyVariants(t *testing.T) {
	cases := []Config{
		{Net: hw.Ethernet(), Seed: 1},
		{Net: hw.FDDI(), Gathering: true, Seed: 1},
		{Net: hw.FDDI(), Presto: true, Gathering: true, Seed: 1},
		{Net: hw.FDDI(), StripeDisks: 3, Seed: 1},
		{Net: hw.FDDI(), Clients: 3, Biods: 4, Seed: 1},
	}
	for i, cfg := range cases {
		r := New(cfg)
		if len(r.Nodes) != 1 || r.Server != r.Nodes[0].Server {
			t.Fatalf("case %d: a rig is one node, its server at hand", i)
		}
		node := r.Nodes[0]
		if r.Server == nil || node.FS == nil || len(r.Clients) == 0 {
			t.Fatalf("case %d: incomplete rig", i)
		}
		if node.Name != "server" {
			t.Fatalf("case %d: node %q, want the paper boot's \"server\"", i, node.Name)
		}
		if cfg.Presto && node.Presto == nil {
			t.Fatalf("case %d: missing presto", i)
		}
		if cfg.StripeDisks == 3 && (node.Stripe == nil || len(node.Disks) != 3) {
			t.Fatalf("case %d: missing stripe", i)
		}
		if cfg.Gathering != (r.Server.Engine() != nil) {
			t.Fatalf("case %d: gathering mismatch", i)
		}
		r.Sim.Close()
	}
}

func TestIntervalStatsExcludePrehistory(t *testing.T) {
	r := New(Config{Net: hw.FDDI(), Seed: 1})
	defer r.Sim.Close()
	r.Sim.Spawn("app", func(p *sim.Proc) {
		cres, _ := r.Clients[0].Create(p, r.Server.RootFH(), "a", 0644)
		r.Clients[0].WriteSync(p, cres.File, 0, make([]byte, 8192))
		r.MarkInterval()
		// Nothing after the mark.
		p.Sleep(sim.Second)
	})
	r.Sim.Run(0)
	if st := r.IntervalStats(); st != (cluster.Stats{}) {
		t.Fatalf("interval stats include prehistory: %+v", st)
	}
}
