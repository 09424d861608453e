package fault

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// accountedRefs is the cluster's own leak-audit sum (the scenario runner
// and the fuzzer audit the same quantity per cell).
func accountedRefs(c *cluster.Cluster) int64 { return c.AccountedRefs() }

// TestCrashMidWriteNoBlockLeakOrAckLoss is the kill-safety guard for the
// refcounted block pipeline: a node crashed mid-WRITE-burst unwinds nfsds
// out of device sleeps, kills NVRAM drain workers holding snapshot
// references, scrubs the socket buffer, and drops in-flight datagrams —
// and after recovery and quiesce, (a) every outstanding buffer reference
// is attributable to a long-lived store (nothing leaked through any of
// those unwind paths) and (b) the durability contract still holds: no
// acked byte was lost.
func TestCrashMidWriteNoBlockLeakOrAckLoss(t *testing.T) {
	for _, presto := range []bool{false, true} {
		t.Run(fmt.Sprintf("presto=%v", presto), func(t *testing.T) {
			refs0 := block.TotalRefs()
			c := cluster.New(cluster.Config{
				Net: hw.FDDI(), Clients: 2, Servers: 1,
				Gathering: true, Presto: presto, Biods: 4,
				StripeDisks: 2,
				Seed:        71, ClientRetries: 40,
			})
			j := NewJournal()
			for _, cli := range c.Clients {
				j.Attach(cli)
			}
			in := NewInjector(c)
			crashAt := 800 * sim.Millisecond
			if presto {
				crashAt = 200 * sim.Millisecond
			}
			in.Add(ServerCrash{Node: 0, Train: Train{At: crashAt, Outage: 400 * sim.Millisecond, Count: 1}})
			in.ScheduleAll()

			roots := c.Roots()
			done := 0
			for i, cli := range c.Clients {
				i, cli := i, cli
				c.Sim.Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
					name := fmt.Sprintf("burst-%d.dat", i)
					cres, err := cli.Create(p, roots[0], name, 0644)
					if err != nil || cres.Status != nfsproto.OK {
						t.Errorf("client %d create: %v %v", i, err, cres)
						return
					}
					if _, err := cli.WriteFile(p, cres.File, 1<<20); err != nil {
						t.Errorf("client %d stream: %v", i, err)
						return
					}
					done++
				})
			}
			c.Sim.Run(0)
			if done != 2 {
				t.Fatalf("only %d/2 streams completed", done)
			}
			if in.Crashes != 1 || in.Reboots != 1 {
				t.Fatalf("crashes=%d reboots=%d (failures: %v)", in.Crashes, in.Reboots, in.Failures)
			}

			// (b) Acked-byte durability: verify the journal against the
			// recovered filesystem before the leak accounting, so the check
			// runs on exactly the post-recovery image.
			var res CheckResult
			c.Sim.Spawn("verify", func(p *sim.Proc) { res = j.Verify(p, c) })
			c.Sim.Run(0)
			if res.LostBytes != 0 {
				t.Fatalf("durability regression: %d acked bytes lost (first: %s)",
					res.LostBytes, res.FirstLoss)
			}

			// (a) No block leaks: every outstanding reference is held by a
			// cache, a platter store or the NVRAM dirty map. A reference
			// stranded by a killed nfsd, a dead drain worker or a dropped
			// datagram breaks this equation.
			expected := accountedRefs(c)
			if got := block.TotalRefs() - refs0; got != expected {
				t.Fatalf("block refs after crash sweep: %d outstanding, %d accounted — %+d leaked",
					got, expected, got-expected)
			}
			t.Logf("presto=%v: %d acked writes survived, %d refs all accounted",
				presto, res.AckedWrites, expected)
		})
	}
}
