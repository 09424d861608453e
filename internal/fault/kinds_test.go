package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// streamRig builds the standard two-client fault testbed and spawns one
// registered stream per client. It returns the cluster, the journal and
// a pointer to the completion counter.
func streamRig(t *testing.T, cfg cluster.Config, size int) (*cluster.Cluster, *Journal, *int) {
	t.Helper()
	c := cluster.New(cfg)
	j := NewJournal()
	for _, cli := range c.Clients {
		j.Attach(cli)
	}
	roots := c.Roots()
	done := new(int)
	for i, cli := range c.Clients {
		i, cli := i, cli
		root := roots[i%len(roots)]
		pr := c.Sim.Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			name := fmt.Sprintf("stream-%d.dat", i)
			cres, err := cli.Create(p, root, name, 0644)
			if err != nil || cres.Status != nfsproto.OK {
				t.Errorf("client %d create: %v %v", i, err, cres)
				return
			}
			if _, err := cli.WriteFile(p, cres.File, size); err != nil {
				t.Errorf("client %d stream: %v", i, err)
				return
			}
			*done++
		})
		cli.AdoptApp(pr)
	}
	return c, j, done
}

// ptr returns a pointer to v, for a link outage's target fields.
func ptr[T any](v T) *T { return &v }

// verify runs the durability audit on its own process after the run.
func verify(c *cluster.Cluster, j *Journal) CheckResult {
	var res CheckResult
	c.Sim.Spawn("verify", func(p *sim.Proc) { res = j.Verify(p, c) })
	c.Sim.Run(0)
	return res
}

// TestClientRebootDurability is the client-crash half of the durability
// contract: a client power-cycled mid-stream loses its application and
// its dirty write-behind — and ONLY those. Every write the server acked
// before the crash must read back intact (the server never failed), while
// the buffered-but-never-acked writes the reboot dropped are permitted
// loss, excluded from LostBytes. The block-reference accounting closes
// over the crash (queue scrub, staged buffer, unwound biods), proving the
// client kill paths strand nothing.
func TestClientRebootDurability(t *testing.T) {
	refs0 := block.TotalRefs()
	c, j, done := streamRig(t, cluster.Config{
		Net: hw.FDDI(), Clients: 2, Servers: 1,
		Gathering: true, Biods: 4,
		Seed: 31, ClientRetries: 40,
	}, 2<<20)

	in := NewInjector(c)
	in.Journal = j
	in.Add(ClientReboot{Client: 1, At: 300 * sim.Millisecond, Outage: 400 * sim.Millisecond})
	in.ScheduleAll()

	c.Sim.Run(0)
	victim := c.Clients[1]
	if *done != 1 {
		t.Fatalf("done=%d, want 1 (client 1's stream survives, client 2's dies)", *done)
	}
	if victim.AppsKilled() != 1 {
		t.Fatalf("AppsKilled=%d, want 1", victim.AppsKilled())
	}
	if in.ClientReboots != 1 || victim.Boots != 2 || victim.Down {
		t.Fatalf("client reboot did not complete: reboots=%d boots=%d down=%v",
			in.ClientReboots, victim.Boots, victim.Down)
	}

	res := verify(c, j)
	if res.LostBytes != 0 {
		t.Fatalf("acked-at-server bytes lost to a CLIENT crash: %d (first: %s)",
			res.LostBytes, res.FirstLoss)
	}
	victimAcked := 0
	for _, e := range j.Entries {
		if e.Client == victim.Name() {
			victimAcked++
		}
	}
	if victimAcked == 0 {
		t.Fatal("crash fired before the victim acked anything; the scenario tests nothing")
	}
	if res.DroppedBuffered == 0 {
		t.Fatal("reboot dropped no dirty write-behind; the crash landed too late to matter")
	}
	if res.UnackedBuffered != 0 {
		t.Errorf("%d unacked buffered writes on untargeted clients", res.UnackedBuffered)
	}

	expected := accountedRefs(c)
	if got := block.TotalRefs() - refs0; got != expected {
		t.Fatalf("block refs after client crash: %d outstanding, %d accounted — %+d leaked",
			got, expected, got-expected)
	}
	t.Logf("victim acked %d writes (all survived), dropped %d buffered writes/%d bytes",
		victimAcked, res.DroppedBuffered, res.DroppedBufferedBytes)
}

// TestBiodLossDegradesWriteBehind: killing biods mid-stream must settle
// flow control exactly — the stream still completes (Close waits on no
// corpse), the pool stays shrunk, and no acked byte is lost even though
// daemons died mid-RPC.
func TestBiodLossDegradesWriteBehind(t *testing.T) {
	refs0 := block.TotalRefs()
	c, j, done := streamRig(t, cluster.Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1,
		Gathering: true, Biods: 4,
		Seed: 17,
	}, 1<<20)

	in := NewInjector(c)
	in.Journal = j
	in.Add(BiodLoss{Client: 0, At: 150 * sim.Millisecond, Lose: 3})
	in.ScheduleAll()

	c.Sim.Run(0)
	if *done != 1 {
		t.Fatal("stream did not complete after biod loss (Close hung on a killed daemon?)")
	}
	if in.BiodsLost != 3 || c.Clients[0].BiodsLost != 3 {
		t.Fatalf("biods lost = %d/%d, want 3", in.BiodsLost, c.Clients[0].BiodsLost)
	}
	if res := verify(c, j); res.LostBytes != 0 {
		t.Fatalf("acked bytes lost to biod deaths: %d (first: %s)", res.LostBytes, res.FirstLoss)
	}
	expected := accountedRefs(c)
	if got := block.TotalRefs() - refs0; got != expected {
		t.Fatalf("block refs after biod loss: %d outstanding, %d accounted — %+d leaked",
			got, expected, got-expected)
	}
}

// TestShardFailoverKeepsAckedReadable: shard 2 dies mid-stream and shard
// 1 adopts its disks. The interrupted stream must finish through the
// adopter (handles keep their FSID; clients reroute mid-call), and every
// byte acked by the dead shard must read back through the migrated
// export.
func TestShardFailoverKeepsAckedReadable(t *testing.T) {
	for _, presto := range []bool{false, true} {
		t.Run(fmt.Sprintf("presto=%v", presto), func(t *testing.T) {
			refs0 := block.TotalRefs()
			c, j, done := streamRig(t, cluster.Config{
				Net: hw.FDDI(), Clients: 2, Servers: 2,
				Gathering: true, Presto: presto, Biods: 4,
				Seed: 53, ClientRetries: 80,
			}, 1<<20)

			in := NewInjector(c)
			in.Journal = j
			in.Add(ShardFailover{Node: 1, To: 0, At: 250 * sim.Millisecond, Takeover: 200 * sim.Millisecond})
			in.ScheduleAll()

			c.Sim.Run(0)
			if *done != 2 {
				t.Fatalf("done=%d, want 2 (the orphaned stream must finish through the adopter)", *done)
			}
			if in.Failovers != 1 || in.Crashes != 1 || in.Reboots != 0 {
				t.Fatalf("failovers=%d crashes=%d reboots=%d, want 1/1/0 (failures: %v)",
					in.Failovers, in.Crashes, in.Reboots, in.Failures)
			}
			dead, adopter := c.Nodes[1], c.Nodes[0]
			if !dead.Down || len(adopter.Exports) != 2 {
				t.Fatalf("adoption state wrong: dead.Down=%v exports=%d", dead.Down, len(adopter.Exports))
			}
			if fs := c.FSByFSID(dead.FSID); fs == nil || fs != adopter.Exports[1].FS {
				t.Fatal("FSByFSID does not resolve the migrated export to the adopter")
			}
			if presto && dead.RecoveredBlocks == 0 {
				t.Error("adoption replayed no NVRAM; the recovery path went unexercised")
			}

			res := verify(c, j)
			if res.LostBytes != 0 {
				t.Fatalf("acked bytes lost across failover: %d (first: %s)", res.LostBytes, res.FirstLoss)
			}

			// Handle stability, end to end: the file created on the dead
			// shard is readable by name through the adopted filesystem.
			found := false
			c.Sim.Spawn("lookup", func(p *sim.Proc) {
				fs := c.FSByFSID(dead.FSID)
				ino, err := fs.Lookup(p, fs.Root(), "stream-1.dat")
				if err != nil {
					t.Errorf("stream-1.dat missing from the adopted export: %v", err)
					return
				}
				got := make([]byte, 8192)
				if _, err := fs.Read(p, vfs.Ino(ino), 0, got); err != nil {
					t.Errorf("read through adopted export: %v", err)
					return
				}
				found = true
			})
			c.Sim.Run(0)
			if !found {
				t.Fatal("adopted-export lookup did not complete")
			}

			expected := accountedRefs(c)
			if got := block.TotalRefs() - refs0; got != expected {
				t.Fatalf("block refs after failover: %d outstanding, %d accounted — %+d leaked",
					got, expected, got-expected)
			}
			t.Logf("presto=%v: %d acked writes survived the migration, %d NVRAM blocks replayed",
				presto, res.AckedWrites, dead.RecoveredBlocks)
		})
	}
}

// TestAdopterCrashCarriesAdoptedNVRAM: the replacement NVRAM board an
// adoption builds lives on the dead peer's disk tray — when the adopter
// itself crashes (reachable through the cluster API; spec validation
// forbids scheduling it), the board's battery-backed dirty map must
// survive on the peer, not vanish with the adopter's volatile state.
// The block-reference equation closing proves no dirty-map reference
// leaked through the teardown.
func TestAdopterCrashCarriesAdoptedNVRAM(t *testing.T) {
	refs0 := block.TotalRefs()
	c := cluster.New(cluster.Config{
		Net: hw.FDDI(), Clients: 2, Servers: 2,
		Gathering: true, Presto: true, Biods: 4,
		Seed: 11, ClientRetries: 6,
	})
	roots := c.Roots()
	for i, cli := range c.Clients {
		i, cli := i, cli
		c.Sim.Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			cres, err := cli.Create(p, roots[i%2], fmt.Sprintf("stream-%d.dat", i), 0644)
			if err != nil || cres.Status != nfsproto.OK {
				return
			}
			// Both servers die for good mid-run; the streams are expected
			// to give up.
			_, _ = cli.WriteFile(p, cres.File, 2<<20)
		})
	}
	in := NewInjector(c)
	in.Add(ShardFailover{Node: 1, To: 0, At: 250 * sim.Millisecond, Takeover: 200 * sim.Millisecond})
	in.ScheduleAll()
	// Crash the adopter at the instant an ack lands on the migrated
	// export: the acked block was just accepted into the adopted board's
	// NVRAM and its drain lingers (IdleFlush), so the dirty map is
	// provably non-empty when the host dies.
	var dirtyAtCrash int
	c.Clients[1].OnWriteAcked = func(fh nfsproto.FH, off uint32, n int) {
		adopter := c.Nodes[0]
		if adopter.Down || len(adopter.Exports) < 2 || fh.FSID() != c.Nodes[1].FSID {
			return
		}
		dirtyAtCrash = adopter.Exports[1].Presto.DirtyBufs()
		adopter.Crash()
	}
	c.Sim.Run(0)

	if in.Failovers != 1 {
		t.Fatalf("failovers=%d, want 1 (failures: %v)", in.Failovers, in.Failures)
	}
	if dirtyAtCrash == 0 {
		t.Fatal("adopted board clean at crash; the carry-over goes unexercised")
	}
	dead := c.Nodes[1]
	if dead.Presto == nil || dead.Presto.DirtyBufs() != dirtyAtCrash {
		t.Fatalf("adopted board (%d dirty blocks) not carried back to the dead peer's tray", dirtyAtCrash)
	}
	if len(c.Nodes[0].Exports) != 1 {
		t.Fatal("adopter crash left adopted exports attached")
	}
	expected := accountedRefs(c)
	if got := block.TotalRefs() - refs0; got != expected {
		t.Fatalf("block refs after adopter crash: %d outstanding, %d accounted — %+d leaked",
			got, expected, got-expected)
	}
	t.Logf("carried board holds %d dirty blocks, refs all accounted", dead.Presto.DirtyBufs())
}

// TestLinkOutageRidesOnRetransmission: severing the server's attachment
// mid-stream loses datagrams, never acked bytes — the client's
// retransmission machinery carries the stream across the windows, and
// the host-survives semantics (socket buffer intact, no reboot) leave no
// server-side trace beyond the stall.
func TestLinkOutageRidesOnRetransmission(t *testing.T) {
	c, j, done := streamRig(t, cluster.Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1,
		Gathering: true, Biods: 4,
		Seed: 97, ClientRetries: 60,
	}, 1<<20)

	in := NewInjector(c)
	in.Journal = j
	in.Add(LinkOutage{Node: ptr(0), Train: Train{At: 150 * sim.Millisecond, Period: 600 * sim.Millisecond,
		Outage: 200 * sim.Millisecond, Count: 2}})
	in.ScheduleAll()

	c.Sim.Run(0)
	if *done != 1 {
		t.Fatal("stream did not ride out the link outages")
	}
	if in.LinkOutages != 2 {
		t.Fatalf("link outages = %d, want 2", in.LinkOutages)
	}
	if c.Clients[0].Retransmissions == 0 {
		t.Error("no retransmissions; the outage windows missed the stream")
	}
	if c.Nodes[0].Boots != 1 {
		t.Error("a link outage must not reboot the host")
	}
	if c.Fabric.Segment("").DropsLinkDown == 0 {
		t.Error("no datagrams died at the severed attachment")
	}
	if res := verify(c, j); res.LostBytes != 0 {
		t.Fatalf("acked bytes lost to a link outage: %d (first: %s)", res.LostBytes, res.FirstLoss)
	}
}

// TestKillAllBiodsDrainsQueuedJobs: losing the whole pool in the same
// instant a job was queued (Put signals a parked daemon, but the job sits
// in the queue until that daemon runs — which it never will) must settle
// the orphaned job's flow-control slot, or Close waits forever on a write
// nothing can perform.
func TestKillAllBiodsDrainsQueuedJobs(t *testing.T) {
	refs0 := block.TotalRefs()
	c := cluster.New(cluster.Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1, Biods: 2, Seed: 5,
	})
	cli := c.Clients[0]
	root := c.Roots()[0]
	closed := false
	c.Sim.Spawn("app", func(p *sim.Proc) {
		cres, err := cli.Create(p, root, "orphan.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		if err := cli.WriteBehind(p, cres.File, 0, cli.PatternBuf(0, 8192), 8192); err != nil {
			t.Errorf("write-behind: %v", err)
			return
		}
		// Same instant, no yield: the queued job has no consumer left.
		if killed := cli.KillBiods(2); killed != 2 {
			t.Errorf("killed %d biods, want 2", killed)
		}
		cli.Close(p) // must return, not hang on the orphaned job
		closed = true
	})
	c.Sim.Run(0)
	if !closed {
		t.Fatal("Close hung on a job queued to a dead pool")
	}
	if cli.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain, want 0", cli.Outstanding())
	}
	if got := block.TotalRefs() - refs0; got != accountedRefs(c) {
		t.Fatalf("block refs: %d outstanding, %d accounted", got, accountedRefs(c))
	}
}

// TestLinkOutageSkipsDownHost: a link-outage cycle that fires while its
// target is still remounting from an earlier crash (the device-timed tail
// runs past the scheduled window) must be skipped whole — no counter, no
// EventsFired record — never reported as a cut that did not happen.
func TestLinkOutageSkipsDownHost(t *testing.T) {
	c, j, done := streamRig(t, cluster.Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1,
		Gathering: true, Biods: 4,
		Seed: 23, ClientRetries: 60,
	}, 1<<20)

	in := NewInjector(c)
	in.Journal = j
	// Crash window [100ms,200ms); the reboot's remount runs ~100ms past
	// it, so the outage at 210ms finds the host still down.
	in.Add(ServerCrash{Node: 0, Train: Train{At: 100 * sim.Millisecond, Outage: 100 * sim.Millisecond, Count: 1}})
	in.Add(LinkOutage{Node: ptr(0), Train: Train{At: 210 * sim.Millisecond, Outage: 50 * sim.Millisecond, Count: 1}})
	in.ScheduleAll()

	c.Sim.Run(0)
	if c.Nodes[0].Rebooting || c.Nodes[0].Down {
		t.Fatal("node did not finish rebooting")
	}
	if *done != 1 {
		t.Fatal("stream did not complete")
	}
	if in.LinkOutages != 0 {
		t.Fatalf("link outages = %d, want 0 (the cycle fired into a down host); events: %v",
			in.LinkOutages, in.EventsFired)
	}
	for _, ev := range in.EventsFired {
		if strings.Contains(ev, "link-") {
			t.Fatalf("skipped outage left a record: %v", in.EventsFired)
		}
	}
	if res := verify(c, j); res.LostBytes != 0 {
		t.Fatalf("lost %d bytes: %s", res.LostBytes, res.FirstLoss)
	}
}

// TestKillSignaledIdleBiodReissuesWake: a Put signals a parked daemon
// before the daemon resumes to pop the job; killing exactly that daemon
// in the same instant consumes the wake-up with the job still queued.
// KillBiods must re-issue the signal to a surviving daemon, or the job
// (and its flow-control slot) strands and Close hangs.
func TestKillSignaledIdleBiodReissuesWake(t *testing.T) {
	refs0 := block.TotalRefs()
	c := cluster.New(cluster.Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1, Biods: 2, Seed: 3,
	})
	cli := c.Clients[0]
	root := c.Roots()[0]
	closed := false
	c.Sim.Spawn("app", func(p *sim.Proc) {
		cres, err := cli.Create(p, root, "race.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		// First write: the pool's first daemon serves it and re-parks at
		// the TAIL of the wait list, leaving the last-spawned daemon at
		// the head — exactly the one a FIFO Signal picks and the one
		// KillBiods (end-first) kills.
		_ = cli.WriteBehind(p, cres.File, 0, cli.PatternBuf(0, 8192), 8192)
		cli.Close(p)
		_ = cli.WriteBehind(p, cres.File, 8192, cli.PatternBuf(8192, 8192), 8192)
		if killed := cli.KillBiods(1); killed != 1 {
			t.Errorf("killed %d, want 1", killed)
		}
		cli.Close(p) // must return: the survivor is re-signaled
		closed = true
	})
	c.Sim.Run(0)
	if !closed {
		t.Fatal("Close hung on a job whose wake-up died with its daemon")
	}
	if cli.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", cli.Outstanding())
	}
	if got := block.TotalRefs() - refs0; got != accountedRefs(c) {
		t.Fatalf("block refs: %d outstanding, %d accounted", got, accountedRefs(c))
	}
}

// TestLinkOutageCutsAdoptedEndpoints: a server host serves one endpoint
// per export — its own and any it adopted. Severing the host's NIC must
// cut them all, or an "outage" of an adopter would leave its migrated
// export reachable and the run would report a cut that mostly did not
// happen.
func TestLinkOutageCutsAdoptedEndpoints(t *testing.T) {
	c, j, done := streamRig(t, cluster.Config{
		Net: hw.FDDI(), Clients: 2, Servers: 2,
		Gathering: true, Biods: 4,
		Seed: 41, ClientRetries: 100,
	}, 1<<20)

	in := NewInjector(c)
	in.Journal = j
	in.Add(ShardFailover{Node: 1, To: 0, At: 250 * sim.Millisecond, Takeover: 200 * sim.Millisecond})
	in.Add(LinkOutage{Node: ptr(0), Train: Train{At: 1200 * sim.Millisecond, Outage: 200 * sim.Millisecond, Count: 1}})
	in.ScheduleAll()

	cutBoth := false
	c.Sim.At(1300*sim.Millisecond, func() {
		adopter := c.Nodes[0]
		if len(adopter.Exports) != 2 {
			t.Error("failover did not complete before the outage window")
			return
		}
		own := adopter.Server.Endpoint().LinkDown()
		adopted := adopter.Exports[1].Server.Endpoint().LinkDown()
		if !own || !adopted {
			t.Errorf("mid-window link state: own=%v adopted=%v, want both down", own, adopted)
			return
		}
		cutBoth = true
	})
	c.Sim.Run(0)
	if !cutBoth {
		t.Fatal("mid-window probe did not confirm both endpoints cut")
	}
	if *done != 2 {
		t.Fatal("streams did not ride out the outage")
	}
	adopter := c.Nodes[0]
	if adopter.Server.Endpoint().LinkDown() || adopter.Exports[1].Server.Endpoint().LinkDown() {
		t.Fatal("link-up did not restore every endpoint")
	}
	if res := verify(c, j); res.LostBytes != 0 {
		t.Fatalf("lost %d bytes: %s", res.LostBytes, res.FirstLoss)
	}
}

// TestBiodLossZeroKillNotRecorded: a loss aimed at an already-empty pool
// changed nothing and must not be counted or logged — EventsFired is the
// what-actually-ran contract.
func TestBiodLossZeroKillNotRecorded(t *testing.T) {
	c, j, done := streamRig(t, cluster.Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1,
		Gathering: true, Biods: 2,
		Seed: 13,
	}, 1<<20)
	in := NewInjector(c)
	in.Journal = j
	in.Add(BiodLoss{Client: 0, At: 150 * sim.Millisecond, Lose: 2})
	in.Add(BiodLoss{Client: 0, At: 300 * sim.Millisecond, Lose: 2})
	in.ScheduleAll()
	c.Sim.Run(0)
	if *done != 1 {
		t.Fatal("stream did not complete")
	}
	if in.BiodsLost != 2 {
		t.Fatalf("biods lost = %d, want 2 (second loss found an empty pool)", in.BiodsLost)
	}
	lossLines := 0
	for _, ev := range in.EventsFired {
		if strings.Contains(ev, "biod-loss") {
			lossLines++
		}
	}
	if lossLines != 1 {
		t.Fatalf("%d biod-loss records, want 1: %v", lossLines, in.EventsFired)
	}
}

// TestEventsFiredDeterministic pins the determinism contract: the same
// kinds over the same seed fire the same transitions at the same times.
func TestEventsFiredDeterministic(t *testing.T) {
	run := func() []string {
		c, j, _ := streamRig(t, cluster.Config{
			Net: hw.FDDI(), Clients: 2, Servers: 2,
			Gathering: true, Biods: 4,
			Seed: 7, ClientRetries: 60,
		}, 1<<20)
		in := NewInjector(c)
		in.Journal = j
		in.Add(ServerCrash{Node: 0, Train: Train{At: 200 * sim.Millisecond, Outage: 150 * sim.Millisecond, Count: 1}})
		in.Add(ClientReboot{Client: 0, At: 450 * sim.Millisecond, Outage: 100 * sim.Millisecond})
		in.Add(LinkOutage{Client: ptr(1), Train: Train{At: 600 * sim.Millisecond,
			Outage: 100 * sim.Millisecond, Count: 1}})
		in.ScheduleAll()
		c.Sim.Run(0)
		if len(in.EventsFired) == 0 {
			t.Fatal("no events fired")
		}
		return in.EventsFired
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("EventsFired differ between identical runs:\n%v\n%v", a, b)
	}
	t.Logf("fired: %v", a)
}
