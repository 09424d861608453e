package scenario

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestFailoverScenario runs the shard-failover registry scenario: shard 2
// dies mid-stream and never reboots, shard 1 adopts its disks under the
// same FSID. The acceptance contract: the interrupted streams finish
// through the adopting node and every acked byte reads back through the
// migrated export, on both the plain and the Presto build.
func TestFailoverScenario(t *testing.T) {
	spec, ok := Lookup("failover")
	if !ok {
		t.Fatal("failover not registered")
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		d := c.Durability
		if d == nil {
			t.Fatalf("%s: no durability audit", c.Label)
		}
		if d.Failovers != 1 || d.Crashes != 1 || d.Reboots != 0 {
			t.Errorf("%s: failovers=%d crashes=%d reboots=%d, want 1/1/0",
				c.Label, d.Failovers, d.Crashes, d.Reboots)
		}
		// Both 2MB streams completed: 4MB of acked audit bytes means the
		// orphaned stream finished through the adopter.
		if d.AckedBytes < 4<<20 {
			t.Errorf("%s: only %d bytes acked; the orphaned stream did not finish through the adopter",
				c.Label, d.AckedBytes)
		}
		if d.LostBytes != 0 {
			t.Errorf("%s: DURABILITY VIOLATED across failover: lost %d bytes: %s",
				c.Label, d.LostBytes, d.FirstLoss)
		}
		if c.Retransmissions == 0 {
			t.Errorf("%s: the takeover window left no client-side trace", c.Label)
		}
		if len(d.EventsFired) == 0 {
			t.Errorf("%s: no fault transitions recorded", c.Label)
		}
	}
	if res.Cells[1].Durability.RecoveredNVRAMBlocks == 0 {
		t.Error("presto cell: adoption replayed no NVRAM blocks")
	}
	if res.Cells[0].Durability.RecoveredNVRAMBlocks != 0 {
		t.Error("plain cell replayed NVRAM blocks without a board")
	}
}

// TestClientRebootScenario runs the client-crash registry scenario. The
// acceptance contract: a client reboot loses ONLY never-acked
// write-behind — LostBytes stays 0 (the server never failed) while the
// dropped buffered writes are reported as permitted loss — and the
// surviving client rides out its biod loss.
func TestClientRebootScenario(t *testing.T) {
	spec, ok := Lookup("clientreboot")
	if !ok {
		t.Fatal("clientreboot not registered")
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		d := c.Durability
		if d == nil {
			t.Fatalf("%s: no durability audit", c.Label)
		}
		if d.ClientReboots != 1 {
			t.Errorf("%s: client reboots = %d, want 1", c.Label, d.ClientReboots)
		}
		if d.BiodsLost != 2 {
			t.Errorf("%s: biods lost = %d, want 2", c.Label, d.BiodsLost)
		}
		if d.Crashes != 0 || d.Reboots != 0 {
			t.Errorf("%s: server transitions %d/%d in a client-only scenario", c.Label, d.Crashes, d.Reboots)
		}
		if d.AckedWrites == 0 {
			t.Errorf("%s: checker audited nothing", c.Label)
		}
		if d.LostBytes != 0 {
			t.Errorf("%s: acked-at-server bytes lost to a CLIENT crash: %d: %s",
				c.Label, d.LostBytes, d.FirstLoss)
		}
		if d.DroppedBuffered == 0 {
			t.Errorf("%s: the reboot dropped no dirty write-behind; it landed too late to matter", c.Label)
		}
		// The surviving client's 2MB stream completed despite losing half
		// its biod pool.
		if d.AckedBytes < 2<<20 {
			t.Errorf("%s: surviving stream did not complete (%d bytes acked)", c.Label, d.AckedBytes)
		}
	}
}

// TestLinkOutageSpecDeterministic runs a hand-built link-outage spec
// twice: same seed, same EventsFired, same metrics — the determinism
// contract for the fifth fault kind, which has no registry entry of its
// own.
func TestLinkOutageSpecDeterministic(t *testing.T) {
	node0 := 0
	clientIdx := 1
	spec := Spec{
		Name: "linkflap",
		Seed: 6161,
		Topology: Topology{
			Net:      "fddi",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 60}},
			Servers:  Servers{Count: 1, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}},
		Faults: Faults{
			CheckDurability: true,
			Events: []FaultEvent{
				{Kind: FaultLinkOutage, LinkOutage: &LinkOutageFault{
					Node: &node0, At: 150 * sim.Millisecond, Outage: 150 * sim.Millisecond, Count: 1,
				}},
				{Kind: FaultLinkOutage, LinkOutage: &LinkOutageFault{
					Client: &clientIdx, At: 400 * sim.Millisecond, Outage: 100 * sim.Millisecond, Count: 1,
				}},
			},
		},
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.Cells[0].Durability, b.Cells[0].Durability
	if da.LinkOutages != 2 {
		t.Fatalf("link outages = %d, want 2", da.LinkOutages)
	}
	if da.LostBytes != 0 {
		t.Fatalf("acked bytes lost to link outages: %d: %s", da.LostBytes, da.FirstLoss)
	}
	if a.Cells[0].Retransmissions == 0 {
		t.Error("outage windows left no client-side trace")
	}
	if !reflect.DeepEqual(da.EventsFired, db.EventsFired) {
		t.Fatalf("EventsFired differ between identical runs:\n%v\n%v", da.EventsFired, db.EventsFired)
	}
	if !reflect.DeepEqual(a.Cells[0].Metrics, b.Cells[0].Metrics) {
		t.Fatalf("metrics differ between identical runs")
	}
}

// faultSpec is a minimal cluster stream spec fault-validation tests
// decorate.
func faultSpec() Spec {
	return Spec{
		Name: "t",
		Topology: Topology{
			Net:      "fddi",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 2, Biods: 4}},
			Servers:  Servers{Count: 2},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}},
	}
}

func TestValidateFaultEventKinds(t *testing.T) {
	// Unknown kind.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{Kind: "meteor-strike"}}
	wantInvalid(t, s, "faults.events[0]")

	// Kind without its variant.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{Kind: FaultClientReboot}}
	wantInvalid(t, s, "faults.events[0]")

	// Kind with a mismatched variant.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:         FaultServerCrash,
		ClientReboot: &ClientRebootFault{Client: 0, At: sim.Second, Outage: sim.Millisecond},
	}}
	wantInvalid(t, s, "faults.events[0]")
}

func TestValidateClientFaultTargets(t *testing.T) {
	// Unknown client index.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:         FaultClientReboot,
		ClientReboot: &ClientRebootFault{Client: 5, At: sim.Second, Outage: sim.Millisecond},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Client faults outside the stream workload.
	s = faultSpec()
	s.Topology.Clients = []ClientGroup{{Count: 1, Biods: 4}}
	s.Workload = Workload{Kind: KindCopy, Copy: &CopyWorkload{FileMB: 1}}
	s.Faults.Events = []FaultEvent{{
		Kind:         FaultClientReboot,
		ClientReboot: &ClientRebootFault{Client: 0, At: sim.Second, Outage: sim.Millisecond},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Biod loss beyond the client's pool.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:     FaultBiodLoss,
		BiodLoss: &BiodLossFault{Client: 0, At: sim.Second, Lose: 9},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Biod loss inside the same client's reboot window.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: FaultClientReboot, ClientReboot: &ClientRebootFault{
			Client: 0, At: 100 * sim.Millisecond, Outage: 200 * sim.Millisecond}},
		{Kind: FaultBiodLoss, BiodLoss: &BiodLossFault{
			Client: 0, At: 150 * sim.Millisecond, Lose: 1}},
	}
	wantInvalid(t, s, "faults.events[1]")
}

func TestValidateFailoverTargets(t *testing.T) {
	// Failover to self.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:          FaultShardFailover,
		ShardFailover: &ShardFailoverFault{Node: 1, To: 1, At: sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Failover to a node scheduled to die: the adopter must stay up.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		serverCrash(0, 2*sim.Second, 0, 100*sim.Millisecond, 1),
		{Kind: FaultShardFailover, ShardFailover: &ShardFailoverFault{Node: 1, To: 0, At: sim.Second}},
	}
	wantInvalid(t, s, "faults.events[1]")

	// A second event aimed at the failed-over source overlaps its
	// open-ended down-window.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: FaultShardFailover, ShardFailover: &ShardFailoverFault{Node: 1, To: 0, At: sim.Second}},
		{Kind: FaultServerCrash, ServerCrash: &ServerCrashFault{
			Node: 1, At: 3 * sim.Second, Outage: 100 * sim.Millisecond, Count: 1}},
	}
	wantInvalid(t, s, "faults.events[0]")

	// An adopter crash fully recovered before the failover is fine (the
	// takeover waits out a remount tail).
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		serverCrash(0, 100*sim.Millisecond, 0, 100*sim.Millisecond, 1),
		{Kind: FaultShardFailover, ShardFailover: &ShardFailoverFault{Node: 1, To: 0, At: sim.Second}},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("pre-failover adopter crash rejected: %v", err)
	}

	// A link outage never takes the adopter down; any timing is fine.
	zero := 0
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: FaultLinkOutage, LinkOutage: &LinkOutageFault{
			Node: &zero, At: 2 * sim.Second, Outage: 100 * sim.Millisecond, Count: 1}},
		{Kind: FaultShardFailover, ShardFailover: &ShardFailoverFault{Node: 1, To: 0, At: sim.Second}},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("link outage on the adopter rejected: %v", err)
	}

	// Failover under LADDIS: the generators' statfs goes to the default
	// server by name and cannot follow a migrated export.
	s = faultSpec()
	s.Workload = Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{
		OfferedOpsPerSec: 10, Measure: sim.Second,
	}}
	s.Faults.Events = []FaultEvent{{
		Kind:          FaultShardFailover,
		ShardFailover: &ShardFailoverFault{Node: 1, To: 0, At: sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")
}

// TestFailoverWaitsOutRemountTail is the race regression: a crash
// train's reboot is still remounting (device-timed, past the scheduled
// window) when the failover fires. The takeover must wait the remount
// out, power the source back off, and adopt — not silently skip the
// failover or race the mount.
func TestFailoverWaitsOutRemountTail(t *testing.T) {
	s := faultSpec()
	s.Seed = 99
	s.Topology.Clients[0].MaxRetries = 100
	s.Topology.Servers.Gathering = true
	s.Workload.Stream.Shard = true
	s.Faults.CheckDurability = true
	// Window [100ms,200ms): the reboot starts at 200ms and remounts for
	// ~100ms more; the failover at 210ms lands inside that tail.
	s.Faults.Events = []FaultEvent{
		serverCrash(1, 100*sim.Millisecond, 0, 100*sim.Millisecond, 1),
		{Kind: FaultShardFailover, ShardFailover: &ShardFailoverFault{
			Node: 1, To: 0, At: 210 * sim.Millisecond, Takeover: 50 * sim.Millisecond}},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Cells[0].Durability
	if d.Failovers != 1 {
		t.Fatalf("failovers=%d, want 1 (the declared failover must happen despite the remount tail); events: %v",
			d.Failovers, d.EventsFired)
	}
	// crash + reboot + post-reboot re-crash by the takeover.
	if d.Crashes != 2 || d.Reboots != 1 {
		t.Errorf("crashes=%d reboots=%d, want 2/1; events: %v", d.Crashes, d.Reboots, d.EventsFired)
	}
	if d.LostBytes != 0 {
		t.Errorf("lost %d bytes across reboot+failover: %s", d.LostBytes, d.FirstLoss)
	}
}

func TestValidateLinkOutageTargets(t *testing.T) {
	// Neither target set.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:       FaultLinkOutage,
		LinkOutage: &LinkOutageFault{At: sim.Second, Outage: sim.Millisecond, Count: 1},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Both targets set.
	zero := 0
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind: FaultLinkOutage,
		LinkOutage: &LinkOutageFault{
			Node: &zero, Client: &zero, At: sim.Second, Outage: sim.Millisecond, Count: 1,
		},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// A link outage overlapping a crash window on the same node.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		serverCrash(0, sim.Second, 0, 200*sim.Millisecond, 1),
		{Kind: FaultLinkOutage, LinkOutage: &LinkOutageFault{
			Node: &zero, At: sim.Second + 100*sim.Millisecond, Outage: sim.Millisecond, Count: 1}},
	}
	wantInvalid(t, s, "faults.events[0]")
}
