package cluster

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// TestBoots builds both boots over a table of device stacks and holds
// each to what its boot promises. Every build is complete (server,
// filesystem, clients, the board and stripe it asked for, the engine iff
// gathering) and its interval statistics exclude what ran before
// MarkInterval. The paper boot names its one node "server", touches no
// disk before the first RPC and answers without a boot verifier, so a
// client sees no reboot even across one. The default boot names its
// nodes "server1".., flushes its image at t=0 and says so in every reply.
func TestBoots(t *testing.T) {
	cases := []Config{
		{Net: hw.Ethernet(), Seed: 1, PaperBoot: true},
		{Net: hw.FDDI(), Gathering: true, Seed: 1, PaperBoot: true},
		{Net: hw.FDDI(), Presto: true, Gathering: true, Seed: 1, PaperBoot: true},
		{Net: hw.FDDI(), StripeDisks: 3, Seed: 1, PaperBoot: true},
		{Net: hw.FDDI(), Clients: 3, Biods: 4, Seed: 1, PaperBoot: true},
		{Net: hw.FDDI(), Gathering: true, Seed: 1},
		{Net: hw.FDDI(), Presto: true, StripeDisks: 3, Clients: 2, Seed: 1},
	}
	for i, cfg := range cases {
		c := New(cfg)
		node := c.Nodes[0]
		if node.Server == nil || node.FS == nil || len(c.Clients) != max(cfg.Clients, 1) {
			t.Fatalf("case %d: incomplete build", i)
		}
		if cfg.Presto != (node.Presto != nil) {
			t.Errorf("case %d: presto %v, board %v", i, cfg.Presto, node.Presto)
		}
		if cfg.StripeDisks == 3 && (node.Stripe == nil || len(node.Disks) != 3) {
			t.Errorf("case %d: missing stripe", i)
		}
		if cfg.Gathering != (node.Server.Engine() != nil) {
			t.Errorf("case %d: gathering mismatch", i)
		}
		name := "server1"
		if cfg.PaperBoot {
			name = "server"
		}
		if node.Name != name || node.Server.Name() != name {
			t.Errorf("case %d: node %q, server %q; want %q", i, node.Name, node.Server.Name(), name)
		}

		c.Sim.Run(0) // the boot: daemons park, the default flushes its image
		var booted uint64
		for _, d := range node.Disks {
			booted += d.Stats().Trans()
		}
		if cfg.PaperBoot != (booted == 0) {
			t.Errorf("case %d: %d device transactions before the first RPC", i, booted)
		}

		cli := c.Clients[0]
		var st Stats
		ok := false
		c.Sim.Spawn("app", func(p *sim.Proc) {
			cres, err := cli.Create(p, c.Roots()[0], "a", 0644)
			if err != nil || cres.Status != nfsproto.OK {
				t.Errorf("case %d: create: %v %v", i, err, cres)
				return
			}
			fh := cres.File
			if err := writeSync(cli, p, fh, 0, make([]byte, 8192)); err != nil {
				t.Errorf("case %d: write: %v", i, err)
				return
			}
			p.Sleep(sim.Second) // a Presto board drains the write here
			c.MarkInterval()
			p.Sleep(sim.Second) // nothing after the mark
			st = c.IntervalStats()

			// A crash and reboot: the paper boot's image needs its
			// superblock written by hand first.
			if cfg.PaperBoot {
				if err := node.FS.WriteSuper(p); err != nil {
					t.Errorf("case %d: superblock: %v", i, err)
					return
				}
			}
			node.Crash()
			p.Sleep(10 * sim.Millisecond)
			if err := node.Reboot(p); err != nil {
				t.Errorf("case %d: %v", i, err)
				return
			}
			if res, err := cli.Getattr(p, fh); err != nil || res.Status != nfsproto.OK {
				t.Errorf("case %d: getattr after reboot: %v %v", i, err, res)
				return
			}
			ok = true
		})
		c.Sim.Run(0)
		if !ok {
			t.Fatalf("case %d: the client script did not complete", i)
		}
		if st != (Stats{}) {
			t.Errorf("case %d: interval stats include prehistory: %+v", i, st)
		}
		want := uint64(1)
		if cfg.PaperBoot {
			want = 0 // no verifier, nothing to compare
		}
		if cli.RebootsSeen != want {
			t.Errorf("case %d: client saw %d reboots, want %d", i, cli.RebootsSeen, want)
		}
		c.Sim.Close()
	}
}

// TestCrashRightAfterBoot crashes a node 1 ms after its boot went quiet
// and reboots it. The default boot's image was flushed at t=0 and
// remounts; the paper boot never wrote one, so its remount finds no
// superblock — the reason a faulted cell takes the default boot.
func TestCrashRightAfterBoot(t *testing.T) {
	for _, paper := range []bool{false, true} {
		c := New(Config{Net: hw.FDDI(), Seed: 1, PaperBoot: paper})
		node := c.Nodes[0]
		c.Sim.Run(0)
		var err error
		c.Sim.Spawn("crash", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			node.Crash()
			err = node.Reboot(p)
		})
		c.Sim.Run(0)
		switch {
		case !paper && err != nil:
			t.Errorf("default boot: the flushed image did not remount: %v", err)
		case !paper && node.Boots != 2:
			t.Errorf("default boot: %d boots after the reboot, want 2", node.Boots)
		case paper && (err == nil || !strings.Contains(err.Error(), "bad magic")):
			t.Errorf("paper boot: remount of an unwritten image gave %v, want bad magic", err)
		}
		c.Sim.Close()
	}
}

// TestRebootsSeenPerServer holds a client's boot verifiers to one per
// server: of a two-shard cluster one shard crashes and reboots twice, and
// only that shard's first reply after each boot counts, however the
// client's calls alternate between the shards. The verifier is the
// client's only evidence that a server's duplicate cache is gone.
func TestRebootsSeenPerServer(t *testing.T) {
	c := New(Config{Net: hw.FDDI(), Servers: 2, Seed: 1})
	defer c.Sim.Close()
	c.Sim.Run(0)
	cli, roots, node := c.Clients[0], c.Roots(), c.Nodes[1]
	steps := 0
	c.Sim.Spawn("app", func(p *sim.Proc) {
		// ask GETATTRs the shards' roots in turn, shard 0 first, and
		// checks the count after each reply against want.
		ask := func(step string, want ...uint64) bool {
			for i, w := range want {
				if res, err := cli.Getattr(p, roots[i%2]); err != nil || res.Status != nfsproto.OK {
					t.Errorf("%s: getattr of shard %d: %v %v", step, i%2, err, res)
					return false
				}
				if cli.RebootsSeen != w {
					t.Errorf("%s: after shard %d's reply, %d reboots seen, want %d", step, i%2, cli.RebootsSeen, w)
				}
			}
			steps++
			return true
		}
		reboot := func() bool {
			node.Crash()
			p.Sleep(10 * sim.Millisecond)
			if err := node.Reboot(p); err != nil {
				t.Error(err)
				return false
			}
			return true
		}
		// Shard 1 is the one that reboots.
		if !ask("first replies", 0, 0, 0, 0) || !reboot() ||
			!ask("after one reboot", 0, 1, 1, 1) || !reboot() ||
			!ask("after two reboots", 1, 2, 2, 2) {
			return
		}
	})
	c.Sim.Run(0)
	if steps != 3 {
		t.Fatalf("the client script stopped after %d of 3 steps", steps)
	}
}
