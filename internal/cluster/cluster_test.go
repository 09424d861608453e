package cluster

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// TestShardMapDeterministic: placement is stable across builds and spreads
// keys over every shard.
func TestShardMapDeterministic(t *testing.T) {
	build := func() []int {
		c := New(Config{Net: hw.FDDI(), Clients: 1, Servers: 4, Seed: 3})
		var idx []int
		for i := 0; i < 64; i++ {
			idx = append(idx, c.Nodes[client.ShardIndex(fmt.Sprintf("file-%d", i), len(c.Nodes))].Index)
		}
		return idx
	}
	a, b := build(), build()
	hit := make(map[int]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement of key %d differs across builds: %d vs %d", i, a[i], b[i])
		}
		hit[a[i]] = true
	}
	if len(hit) != 4 {
		t.Fatalf("64 keys covered only %d of 4 shards", len(hit))
	}
}

// TestMultiClientMultiServerCopies: four clients copy files onto two
// sharded servers concurrently; every byte reads back, and both shards
// carry load.
func TestMultiClientMultiServerCopies(t *testing.T) {
	c := New(Config{
		Net: hw.FDDI(), Clients: 4, Servers: 2,
		Gathering: true, Biods: 4, Seed: 11,
	})
	roots := c.Roots()
	const size = 256 * 1024
	done := 0
	for i, cli := range c.Clients {
		i, cli := i, cli
		c.Sim.Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			name := fmt.Sprintf("copy-%d.dat", i)
			cres, err := cli.Create(p, roots[client.ShardIndex(name, len(roots))], name, 0644)
			if err == nil && cres.Status != nfsproto.OK {
				err = fmt.Errorf("create %s: %v", name, cres.Status)
			}
			if err == nil {
				_, err = cli.WriteFile(p, cres.File, size)
			}
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			done++
		})
	}
	c.Sim.Run(0)
	if done != 4 {
		t.Fatalf("only %d/4 copies completed", done)
	}

	// Both shards should have executed writes.
	for _, n := range c.Nodes {
		if writes := n.Server.OpCounts[nfsproto.ProcWrite].Ops; writes == 0 {
			t.Errorf("%s executed no writes; shard map did not spread load", n.Name)
		}
	}
	if st := c.IntervalStats(); st.DiskTps == 0 || st.CPUMaxPercent < st.CPUMeanPercent {
		t.Fatalf("interval stats since boot: %+v", st)
	}

	// Verify one file's bytes server-side through the owning shard.
	name := "copy-0.dat"
	n := c.Nodes[client.ShardIndex(name, len(c.Nodes))]
	var verified bool
	c.Sim.Spawn("verify", func(p *sim.Proc) {
		ino, err := n.FS.Lookup(p, n.FS.Root(), name)
		if err != nil {
			t.Errorf("lookup on shard: %v", err)
			return
		}
		buf := make([]byte, 8192)
		want := make([]byte, 8192)
		for off := 0; off < size; off += 8192 {
			if _, err := n.FS.Read(p, ino, uint32(off), buf); err != nil {
				t.Errorf("read at %d: %v", off, err)
				return
			}
			fillPattern(want, uint32(off))
			for j := range buf {
				if buf[j] != want[j] {
					t.Errorf("byte %d mismatch", off+j)
					return
				}
			}
		}
		verified = true
	})
	c.Sim.Run(0)
	if !verified {
		t.Fatal("content verification did not complete")
	}
}

// fillPattern mirrors client.FillPattern's reference form.
func fillPattern(buf []byte, off uint32) {
	for i := range buf {
		x := off + uint32(i)
		buf[i] = byte(x*2654435761 + x>>13)
	}
}

// writeSync writes data (at most MaxData bytes) at off as one WRITE,
// staged in a buffer from the client's pool.
func writeSync(c *client.Client, p *sim.Proc, fh nfsproto.FH, off uint32, data []byte) error {
	b := c.GetWriteBuf()
	copy(b.Data(), data)
	return c.WriteSyncBufRelease(p, fh, off, b, len(data))
}

// TestCrashRebootRoundTrip: a node crashes mid-idle, reboots, and serves
// again; pre-crash durable files survive, and the client observes the new
// boot verifier.
func TestCrashRebootRoundTrip(t *testing.T) {
	c := New(Config{
		Net: hw.FDDI(), Clients: 1, Servers: 1,
		Gathering: true, Seed: 5, ClientRetries: 20,
	})
	cli := c.Clients[0]
	node := c.Nodes[0]
	root := c.Roots()[0]

	var phase2 nfsproto.FH
	ok := false
	c.Sim.Spawn("app", func(p *sim.Proc) {
		// Phase 1: durable write before the crash.
		cres, err := cli.Create(p, root, "pre.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		fh := cres.File
		buf := make([]byte, 8192)
		fillPattern(buf, 0)
		if err := writeSync(cli, p, fh, 0, buf); err != nil {
			t.Errorf("write: %v", err)
			return
		}

		// Crash + 200 ms outage + reboot.
		node.Crash()
		if !node.Down {
			t.Error("node not down after crash")
		}
		p.Sleep(200 * sim.Millisecond)
		if err := node.Reboot(p); err != nil {
			t.Errorf("reboot: %v", err)
			return
		}
		if node.Boots != 2 {
			t.Errorf("boots = %d, want 2", node.Boots)
		}

		// Phase 2: the same handle must still resolve (same ino/gen on the
		// remounted fs), and new work must succeed.
		res, err := cli.Getattr(p, fh)
		if err != nil || res.Status != nfsproto.OK {
			t.Errorf("getattr after reboot: %v %v", err, res)
			return
		}
		if res.Attr.Size != 8192 {
			t.Errorf("post-reboot size = %d, want 8192", res.Attr.Size)
		}
		cres2, err := cli.Create(p, root, "post.dat", 0644)
		if err != nil || cres2.Status != nfsproto.OK {
			t.Errorf("create after reboot: %v %v", err, cres2)
			return
		}
		phase2 = cres2.File
		if err := writeSync(cli, p, phase2, 0, buf); err != nil {
			t.Errorf("write after reboot: %v", err)
			return
		}
		ok = true
	})
	c.Sim.Run(0)
	if !ok {
		t.Fatal("crash/reboot round trip did not complete")
	}
	if cli.RebootsSeen != 1 {
		t.Fatalf("client saw %d reboots, want 1 (boot verifier change)", cli.RebootsSeen)
	}

	// The durability core: pre-crash acked bytes are on the remounted fs.
	var bytesOK bool
	c.Sim.Spawn("verify", func(p *sim.Proc) {
		ino, err := node.FS.Lookup(p, node.FS.Root(), "pre.dat")
		if err != nil {
			t.Errorf("pre.dat lost across crash: %v", err)
			return
		}
		buf := make([]byte, 8192)
		want := make([]byte, 8192)
		if _, err := node.FS.Read(p, ino, 0, buf); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		fillPattern(want, 0)
		for j := range buf {
			if buf[j] != want[j] {
				t.Errorf("pre-crash acked byte %d corrupted", j)
				return
			}
		}
		bytesOK = true
	})
	c.Sim.Run(0)
	if !bytesOK {
		t.Fatal("post-crash verification did not complete")
	}
}

// TestAdoptionIsOneExportRecord: a failover adoption goes through the
// boot path into one Export record on the adopter, rewrites the one route
// table every client reads, and leaves the home's boot count alone; the
// adopter's crash takes the record down and hands its board back to the
// home's tray.
func TestAdoptionIsOneExportRecord(t *testing.T) {
	c := New(Config{Net: hw.FDDI(), Clients: 3, Servers: 2, Presto: true, Seed: 7})
	defer c.Sim.Close()
	adopter, dead := c.Nodes[0], c.Nodes[1]
	for _, cli := range c.Clients {
		if cli.Routes[dead.FSID] != dead.Name {
			t.Fatalf("%s routes FSID %d to %q before the failover, want %q", cli.Name(), dead.FSID, cli.Routes[dead.FSID], dead.Name)
		}
	}
	var err error
	c.Sim.Spawn("failover", func(p *sim.Proc) {
		p.Sleep(50 * sim.Millisecond) // the image flush lands first
		dead.Crash()
		err = adopter.Adopt(p, dead)
	})
	c.Sim.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopter.Exports) != 2 || adopter.Exports[0] != &adopter.Export {
		t.Fatalf("adopter serves %d exports, want its own first and the adopted one", len(adopter.Exports))
	}
	ex := adopter.Exports[1]
	if ex.Home != dead || ex.FSID != dead.FSID || ex.Name != "server1+server2" || ex.Server.Endpoint().Name != ex.Name {
		t.Fatalf("adopted export home %s, FSID %d, endpoint %q", ex.Home.Name, ex.FSID, ex.Name)
	}
	if c.FSByFSID(dead.FSID) != ex.FS || ex.Presto == nil || dead.Presto != nil {
		t.Fatal("the adopted export does not own its filesystem and board")
	}
	if dead.Boots != 1 {
		t.Errorf("the dead node counts %d boots after the adoption, want 1", dead.Boots)
	}
	for _, cli := range c.Clients {
		if got := cli.Routes[dead.FSID]; got != ex.Name {
			t.Errorf("%s routes FSID %d to %q, want the adopter's %q", cli.Name(), dead.FSID, got, ex.Name)
		}
	}

	board := ex.Presto
	adopter.Crash()
	if len(adopter.Exports) != 1 || ex.FS != nil || ex.Server != nil || ex.Presto != nil {
		t.Fatal("the adopter's crash left the adopted export up")
	}
	if dead.Presto != board || adopter.Presto == nil {
		t.Fatal("a board did not stay on its home's tray across the adopter's crash")
	}
	if c.FSByFSID(dead.FSID) != nil || c.FSByFSID(adopter.FSID) != nil {
		t.Fatal("FSByFSID resolves an export nobody serves")
	}
}
