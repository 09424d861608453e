package rig

import (
	"testing"

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
		if r.Server == nil || r.FS == nil || len(r.Clients) == 0 {
			t.Fatalf("case %d: incomplete rig", i)
		}
		if cfg.Presto && r.Presto == nil {
			t.Fatalf("case %d: missing presto", i)
		}
		if cfg.StripeDisks == 3 && (r.Stripe == nil || len(r.Disks) != 3) {
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
	cpu, kbps, tps := r.IntervalStats()
	if cpu != 0 || kbps != 0 || tps != 0 {
		t.Fatalf("interval stats include prehistory: %v %v %v", cpu, kbps, tps)
	}
}
