package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/openload"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/vfs"
)

// TestOpenloadSetupBudget holds open-loop set-up to a deterministic cost:
// the simulator's event count at the instant the window opens is bounded
// by a small constant per object built — population blocks plus scratch
// directories. The image costs 7.2 events per object on this shape (1,888
// for 262) where the wire set-up it replaced cost 32 (8,466) without a
// single retransmission, and bridgedsat's seg50 cells 649,260 where they
// now cost 82,395. An event count cannot flake the way a wall time does,
// so the storm cannot come back unnoticed.
func TestOpenloadSetupBudget(t *testing.T) {
	spec, c := smokeCell(t)
	w := spec.Workload.Openload
	objects := uint64(w.Files*w.FileBlocks + len(c.OpenloadClients))
	const perObject = 12
	if c.setupEvents == 0 {
		t.Fatal("the runner did not record the event count at the barrier")
	}
	if c.setupEvents > perObject*objects {
		t.Errorf("set-up fired %d events for %d objects (%.1f each), budget %d each",
			c.setupEvents, objects, float64(c.setupEvents)/float64(objects), perObject)
	}
	t.Logf("set-up: %d events for %d objects (%.1f each)", c.setupEvents, objects,
		float64(c.setupEvents)/float64(objects))
}

// TestOpenloadClosingCheck runs a cell whose window sees no arrival and
// wants exactly one RPC in it all the same: the closing GETATTR of the
// last scratch directory, answered, two datagrams on that client's leaf.
// bench/'s set-up twins are such cells and need the span.
func TestOpenloadClosingCheck(t *testing.T) {
	spec := OpenloadBridged("closing-check", "a window too short for an arrival",
		3, 2, 8, 1, 1, sim.Millisecond, 12)
	spec.Cells = []Cell{BridgedCell(spec.Seed, 3, false)}
	spec.Observe = &Observe{Trace: true}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	for i, oc := range c.OpenloadClients {
		if oc.Offered != 0 {
			t.Fatalf("client %d offered %d ops in a 1 ms window at 1 op/s; the test wants none", i, oc.Offered)
		}
	}
	var spans []string
	for _, ev := range c.Trace.Events {
		if ev.Phase == 'X' && ev.Cat == "rpc" {
			spans = append(spans, ev.Name)
		}
	}
	if len(spans) != 1 || !strings.Contains(strings.ToLower(spans[0]), "getattr") {
		t.Errorf("rpc spans = %v, want the one closing GETATTR", spans)
	}
	for _, sg := range c.Segments {
		want := uint64(0)
		if sg.Name == "core" || sg.Name == "lan3" {
			want = 2
		}
		if sg.Datagrams != want {
			t.Errorf("segment %s carried %d datagrams, want %d", sg.Name, sg.Datagrams, want)
		}
	}
	if c.Errors != 0 || c.Retransmissions != 0 {
		t.Errorf("errors=%d retransmissions=%d, want none", c.Errors, c.Retransmissions)
	}
}

// TestSilentSetupAuditFires plants the violation the audit exists for —
// one RPC before the window — and wants the panic.
func TestSilentSetupAuditFires(t *testing.T) {
	c := cluster.New(cluster.Config{Net: hw.FDDI(), Clients: 2, Seed: 1})
	defer c.Sim.Close()
	audit := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		assertSilentSetup(c)
		return ""
	}
	c.Sim.Run(0) // the boot-time image flush
	if msg := audit(); msg != "" {
		t.Fatalf("audit fired on an untouched cluster: %s", msg)
	}
	c.Sim.Spawn("early", func(p *sim.Proc) {
		if _, err := c.Clients[1].Getattr(p, c.Roots()[0]); err != nil {
			t.Errorf("getattr: %v", err)
		}
	})
	c.Sim.Run(0)
	if msg := audit(); !strings.Contains(msg, "client2 issued 1 RPCs") {
		t.Errorf("audit after one early RPC said %q", msg)
	}
}

// lateImageSpec is an open-loop cell whose image takes over a simulated
// minute to build (400 files of four synchronous blocks on one spindle):
// its window opens at 68s and stays open for 30s.
func lateImageSpec() Spec {
	spec := OpenloadRig("late-image", "a population that pushes the window out", false,
		2, 8, 1, ArrivalPoisson, PopFlat, MixLADDIS, 30*sim.Second, 77)
	spec.Workload.Openload.TargetOps = 20
	spec.Workload.Openload.Files = 400
	spec.Workload.Openload.FileBlocks = 4
	return spec
}

func crashAt(at sim.Duration) FaultEvent {
	return serverCrash(0, at, 0, 100*sim.Millisecond, 1)
}

// TestOpenloadFaultOnHalfBuiltImage pins the one constraint the image
// set-up adds: the populate process holds the servers' filesystems, so a
// crash or storage fault may not fire before the window opens. Scheduled
// before the 20s mark it is a static spec error; when the population
// pushes the window past it, the run fails with the same typed error
// (not a nil dereference in a process holding a dead filesystem), and the
// fuzzer files it under invalid specs, not panics.
func TestOpenloadFaultOnHalfBuiltImage(t *testing.T) {
	wantErr := func(t *testing.T, err error, mentions ...string) {
		t.Helper()
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("error is %T (%v), want *ValidationError", err, err)
		}
		if ve.Field != "faults.events[0]" {
			t.Errorf("field = %q, want faults.events[0]", ve.Field)
		}
		for _, m := range mentions {
			if !strings.Contains(err.Error(), m) {
				t.Errorf("error %q does not mention %q", err.Error(), m)
			}
		}
	}
	seg := "lan1"
	static := []struct {
		name string
		ev   FaultEvent
	}{
		{"server-crash", crashAt(5 * sim.Second)},
		{"disk-degraded", FaultEvent{Kind: fault.KindDiskDegraded, DiskDegraded: &fault.DiskDegraded{
			Node: 0, Disk: 0, At: 19900 * sim.Millisecond, Duration: sim.Second, Factor: 4}}},
		{"disk-torn-write", FaultEvent{Kind: fault.KindDiskTornWrite, DiskTornWrite: &fault.DiskTornWrite{
			Node: 0, Disk: 0, At: 0}}},
	}
	for _, tc := range static {
		t.Run("static/"+tc.name, func(t *testing.T) {
			spec := lateImageSpec()
			spec.Faults.Events = []FaultEvent{tc.ev}
			wantErr(t, spec.Validate(), tc.name, tc.ev.Fault().Start().String(), "none opens before 20.000s")
		})
	}
	t.Run("static/link-outage-is-fine", func(t *testing.T) {
		// Set-up sends nothing, so a severed uplink cannot hurt it.
		spec := OpenloadBridged("early-outage", "", 2, 2, 8, 1, 100, sim.Second, 3)
		spec.Faults.Events = []FaultEvent{{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
			Segment: &seg, Train: fault.Train{At: sim.Second, Outage: 2 * sim.Second, Count: 1}}}}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
	})

	late := lateImageSpec()
	late.Faults.Events = []FaultEvent{crashAt(25 * sim.Second)}
	t.Run("run-time", func(t *testing.T) {
		if err := late.Validate(); err != nil {
			t.Fatalf("25s is past the static mark: %v", err)
		}
		res, err := Run(late)
		if res != nil {
			t.Error("a failed cell still returned a result")
		}
		wantErr(t, err, "server-crash", "25.000s", "still half-built")
	})
	t.Run("run-time/inside-the-window", func(t *testing.T) {
		spec := lateImageSpec()
		spec.Faults.Events = []FaultEvent{crashAt(80 * sim.Second)}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Cells[0].Durability; d == nil || d.Crashes != 1 {
			t.Errorf("the crash inside the window did not fire: %+v", d)
		}
	})
	t.Run("fuzzer", func(t *testing.T) {
		if class, detail, _ := checkSpec(late); class != FailInvalid || !strings.Contains(detail, "still half-built") {
			t.Errorf("planted spec classified %q (%s), want %q", class, detail, FailInvalid)
		}
	})
	t.Run("run-time/built-but-not-open", func(t *testing.T) {
		// The window opens on a whole second; a fault a microsecond before
		// it finds the image built and is still refused, by name.
		spec := lateImageSpec()
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		opened := (res.Cells[0].SimTime - spec.Workload.Openload.Measure) / sim.Second * sim.Second
		spec.Faults.Events = []FaultEvent{crashAt(opened - 1)}
		_, err = Run(spec)
		wantErr(t, err, "server-crash", (opened - 1).String(), "it opened at "+opened.String())
	})
}

// TestMountStormOnColdCache keeps the one bug the over-the-wire set-up
// found: 200 clients sending their scratch MKDIRs at once into a root
// directory nobody has loaded since boot (the server crashed and
// remounted, so the first loads race across device reads) once failed
// with "corrupt directory". The registry no longer runs a mount storm, so
// the storm lives here, on Gen.Setup, the wire path kept for it.
func TestMountStormOnColdCache(t *testing.T) {
	const clients, files = 200, 300 // 300 entries: a root of two blocks
	c := cluster.New(cluster.Config{
		Net: hw.FDDI(), Clients: clients, NumNfsds: 16, Inodes: 1024,
		ClientRetries: 100, Seed: 9,
	})
	defer c.Sim.Close()
	pop, err := openload.NewPopulation(files, 1, openload.PopFlat, 0, c.Roots())
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]*openload.Gen, clients)
	for i, cli := range c.Clients {
		gens[i] = openload.NewGen(cli, pop, openload.Config{})
	}
	node := c.Nodes[0]
	c.Sim.Spawn("build-then-reboot", func(p *sim.Proc) {
		if err := pop.Build(p, c.Clients[0]); err != nil {
			t.Errorf("build: %v", err)
			return
		}
		node.Crash() // DropCaches: what comes back knows nothing of the root
		if err := node.Reboot(p); err != nil {
			t.Errorf("reboot: %v", err)
		}
	})
	c.Sim.Run(0)
	if t.Failed() {
		return
	}
	if n := node.FS.CachedBufs(); n > 64 {
		t.Fatalf("the remounted cache holds %d blocks; the storm needs it cold", n)
	}

	failed := 0
	for _, g := range gens {
		c.Sim.Spawn("storm", func(p *sim.Proc) {
			if err := g.Setup(p); err != nil {
				failed++
				t.Errorf("setup: %v", err)
			}
		})
	}
	c.Sim.Run(0)
	if failed > 0 {
		return
	}

	c.Sim.Spawn("check", func(p *sim.Proc) {
		fs := node.FS
		inos := make(map[vfs.Ino]string, clients)
		for _, cli := range c.Clients {
			name := "olscratch-" + cli.Name()
			ino, err := fs.Lookup(p, fs.Root(), name)
			if err != nil {
				t.Errorf("lookup %s: %v", name, err)
				continue
			}
			if other, dup := inos[ino]; dup {
				t.Errorf("%s and %s share inode %d", name, other, ino)
			}
			inos[ino] = name
		}
		if n := len(listRoot(t, p, fs)); n != files+clients {
			t.Errorf("root lists %d entries, want %d", n, files+clients)
		}
	})
	c.Sim.Run(0)
}

// listRoot reads the whole root directory through Readdir.
func listRoot(t *testing.T, p *sim.Proc, fs *ufs.FS) []vfs.DirEntry {
	t.Helper()
	var all []vfs.DirEntry
	for cookie := uint32(0); ; {
		n := len(all)
		ents, eof, err := fs.Readdir(p, fs.Root(), cookie, 4096, all)
		if err != nil {
			t.Errorf("readdir: %v", err)
			return all
		}
		all, ents = ents, ents[n:]
		if eof || len(ents) == 0 {
			return all
		}
		cookie = ents[len(ents)-1].Cookie
	}
}

// TestRPCLedgerAuditFires holds the runner's client identity to both
// sides: books with a call answered and a call its crashed host abandoned
// balance, and a planted violation (a reply that never reached its
// caller) panics with the numbers.
func TestRPCLedgerAuditFires(t *testing.T) {
	c := cluster.New(cluster.Config{Net: hw.FDDI(), Clients: 2, Seed: 1})
	defer c.Sim.Close()
	audit := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		assertRPCLedger(c.Clients)
		return ""
	}
	for i, cli := range c.Clients {
		app := c.Sim.Spawn("app", func(p *sim.Proc) {
			if _, err := cli.Getattr(p, c.Roots()[0]); err != nil {
				t.Errorf("getattr: %v", err)
			}
		})
		if i == 1 {
			cli.AdoptApp(app)
			c.Sim.At(sim.Microsecond, cli.Crash) // mid-call
		}
	}
	c.Sim.Run(0)
	if a, b := c.Clients[0], c.Clients[1]; a.Replied != 1 || b.Abandoned != 1 {
		t.Fatalf("replied %d on the first client, abandoned %d on the crashed one; want 1 and 1", a.Replied, b.Abandoned)
	}
	if msg := audit(); msg != "" {
		t.Fatalf("audit fired on balanced books: %s", msg)
	}
	c.Clients[0].Replied--
	want := "scenario: RPC ledger does not balance: client1 issued 1 != replied 0 + timed out 0 + abandoned 0, 0 pending"
	if msg := audit(); msg != want {
		t.Errorf("audit after a lost reply said %q, want %q", msg, want)
	}
}

// TestWriteLedgerAuditFires holds the runner's server identity to both
// sides. While a gathered write stream is in flight the live server owes
// replies and has parse records out, so the audit fires and names it; at
// quiesce the same books balance. A server crashed mid-stream is not
// audited: its records died with it.
func TestWriteLedgerAuditFires(t *testing.T) {
	audit := func(c *cluster.Cluster) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		assertWriteLedger(c.Nodes)
		return ""
	}
	// stream builds a gathering server and one write-behind client, starts
	// a 64-block file write and runs until the audit first fires.
	stream := func() (*cluster.Cluster, string) {
		c := cluster.New(cluster.Config{Net: hw.FDDI(), Clients: 1, Biods: 4, Gathering: true, Seed: 1})
		c.Sim.Spawn("app", func(p *sim.Proc) {
			cli := c.Clients[0]
			cres, err := cli.Create(p, c.Roots()[0], "f", 0644)
			if err != nil || cres.Status != nfsproto.OK {
				t.Errorf("create: %v %v", err, cres)
				return
			}
			if _, err := cli.WriteFile(p, cres.File, 64*nfsproto.MaxData); err != nil {
				t.Errorf("WriteFile: %v", err)
			}
		})
		var msg string
		for now := sim.Time(sim.Millisecond); msg == "" && now < sim.Time(sim.Second); now += sim.Time(sim.Millisecond) {
			c.Sim.Run(now)
			if c.Nodes[0].Server.Engine().Stats().Writes > 0 {
				msg = audit(c)
			}
		}
		return c, msg
	}

	c, msg := stream()
	defer c.Sim.Close()
	want := "scenario: write-descriptor ledger does not balance: " + c.Nodes[0].Name + " owes "
	if !strings.HasPrefix(msg, want) {
		t.Fatalf("audit mid-stream said %q, want it to start %q", msg, want)
	}
	c.Sim.Run(0)
	if msg := audit(c); msg != "" {
		t.Fatalf("audit fired at quiesce: %s", msg)
	}

	crashed, msg := stream()
	defer crashed.Sim.Close()
	if msg == "" {
		t.Fatal("audit never fired mid-stream")
	}
	crashed.Nodes[0].Crash()
	if msg := audit(crashed); msg != "" {
		t.Fatalf("audit read a crashed server's books: %s", msg)
	}
}

// TestPayloadAndDatagramAuditsFire holds the runner's quiesce identities
// for payloads, datagrams and bridges to both sides. A write-behind
// stream lands on a gathering Presto server as pattern pages (buffer
// cache, NVRAM, platters), then an unaligned write and a read-back touch
// the same blocks: at quiesce every page is intact and every segment's
// datagrams are accounted for. Mid-stream, with datagrams in flight, the
// datagram audit fires; a planted uncounted datagram and one scribbled
// page byte each fire a message that names the segment or the page. The
// same stream from behind a bridge leaves every bridge port balanced at
// quiesce, and a datagram that leaves a port's FIFO uncounted fires a
// message that names the bridge and the port.
func TestPayloadAndDatagramAuditsFire(t *testing.T) {
	audit := func(fn func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
		return ""
	}
	c := cluster.New(cluster.Config{Net: hw.FDDI(), Clients: 1, Biods: 4, Gathering: true, Presto: true, Seed: 1})
	defer c.Sim.Close()
	c.Sim.Spawn("app", func(p *sim.Proc) {
		cli := c.Clients[0]
		cres, err := cli.Create(p, c.Roots()[0], "f", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		fh := cres.File
		if _, err := cli.WriteFile(p, fh, 300*nfsproto.MaxData); err != nil {
			t.Errorf("WriteFile: %v", err)
		}
		b := cli.GetWriteBuf()
		clear(b.Data())
		if err := cli.WriteSyncBufRelease(p, fh, 4096, b, 512); err != nil {
			t.Errorf("unaligned write: %v", err)
		}
		if _, err := cli.Read(p, fh, 0, nfsproto.MaxData); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	var msg string
	for now := sim.Time(sim.Millisecond); msg == "" && now < sim.Time(sim.Second); now += sim.Time(100 * sim.Microsecond) {
		c.Sim.Run(now)
		msg = audit(func() { assertDatagramLedger(c) })
	}
	if want := "scenario: datagram ledger does not balance on segment medium: "; !strings.HasPrefix(msg, want) {
		t.Fatalf("audit mid-stream said %q, want it to start %q", msg, want)
	}
	c.Sim.Run(0)
	if got := c.Pages.Refs(); got != 256 {
		t.Fatalf("the 300-block file built %d pattern pages, want all 256", got)
	}
	if msg := audit(func() { assertDatagramLedger(c) }); msg != "" {
		t.Fatalf("datagram audit fired at quiesce: %s", msg)
	}
	if msg := audit(func() { assertPagesIntact(c.Pages) }); msg != "" {
		t.Fatalf("pages audit fired at quiesce: %s", msg)
	}

	c.Fabric.Segment("").SentDatagrams++
	msg = audit(func() { assertDatagramLedger(c) })
	if want := "scenario: datagram ledger does not balance on segment medium: sent "; !strings.HasPrefix(msg, want) {
		t.Errorf("audit after an uncounted datagram said %q, want it to start %q", msg, want)
	}
	page := c.Pages.Ref(5 << 13)
	page.Data()[17] ^= 1
	page.Release()
	msg = audit(func() { assertPagesIntact(c.Pages) })
	if want := "scenario: pattern page 5: byte 17 is "; !strings.HasPrefix(msg, want) {
		t.Errorf("audit after a scribbled page said %q, want it to start %q", msg, want)
	}

	b := cluster.New(cluster.Config{
		Segments: []netsim.SegmentSpec{
			{Name: "core", Params: hw.FDDI()},
			{Name: "leaf", Params: hw.Ethernet(), Uplink: "core"},
		},
		ServerSegment: "core",
		ClientGroups:  []cluster.ClientGroup{{Count: 1, Biods: 4, Segment: "leaf"}},
		Gathering:     true, Presto: true, Seed: 1,
	})
	defer b.Sim.Close()
	b.Sim.Spawn("app", func(p *sim.Proc) {
		cli := b.Clients[0]
		cres, err := cli.Create(p, b.Roots()[0], "f", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("bridged create: %v %v", err, cres)
			return
		}
		if _, err := cli.WriteFile(p, cres.File, 30*nfsproto.MaxData); err != nil {
			t.Errorf("bridged WriteFile: %v", err)
		}
	})
	b.Sim.Run(0)
	if msg := audit(func() { assertBridgeLedger(b) }); msg != "" {
		t.Fatalf("bridge audit fired at quiesce: %s", msg)
	}
	up := b.Fabric.Uplink("leaf").Ports[1]
	if up.Forwarded < 30 {
		t.Fatalf("the uplink forwarded %d datagrams toward the server, want the 30 WRITEs at least", up.Forwarded)
	}
	up.Forwarded-- // planted: a datagram left the port's FIFO uncounted
	msg = audit(func() { assertBridgeLedger(b) })
	if want := "scenario: bridge ledger does not balance: bridge bridge:leaf port 1 (core): queued "; !strings.HasPrefix(msg, want) {
		t.Errorf("audit after an uncounted forward said %q, want it to start %q", msg, want)
	}
}
