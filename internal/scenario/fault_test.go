package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
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
				{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
					Node: &node0, At: 150 * sim.Millisecond, Outage: 150 * sim.Millisecond, Count: 1,
				}},
				{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
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
	s.Faults.Events = []FaultEvent{{Kind: fault.KindClientReboot}}
	wantInvalid(t, s, "faults.events[0]")

	// Kind with a mismatched variant.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:         fault.KindServerCrash,
		ClientReboot: &fault.ClientReboot{Client: 0, At: sim.Second, Outage: sim.Millisecond},
	}}
	wantInvalid(t, s, "faults.events[0]")
}

func TestValidateClientFaultTargets(t *testing.T) {
	// Unknown client index.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:         fault.KindClientReboot,
		ClientReboot: &fault.ClientReboot{Client: 5, At: sim.Second, Outage: sim.Millisecond},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Client faults outside the stream workload.
	s = faultSpec()
	s.Topology.Clients = []ClientGroup{{Count: 1, Biods: 4}}
	s.Workload = Workload{Kind: KindCopy, Copy: &CopyWorkload{FileMB: 1}}
	s.Faults.Events = []FaultEvent{{
		Kind:         fault.KindClientReboot,
		ClientReboot: &fault.ClientReboot{Client: 0, At: sim.Second, Outage: sim.Millisecond},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Biod loss beyond the client's pool.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:     fault.KindBiodLoss,
		BiodLoss: &fault.BiodLoss{Client: 0, At: sim.Second, Lose: 9},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Biod loss inside the same client's reboot window.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: fault.KindClientReboot, ClientReboot: &fault.ClientReboot{
			Client: 0, At: 100 * sim.Millisecond, Outage: 200 * sim.Millisecond}},
		{Kind: fault.KindBiodLoss, BiodLoss: &fault.BiodLoss{
			Client: 0, At: 150 * sim.Millisecond, Lose: 1}},
	}
	wantInvalid(t, s, "faults.events[1]")
}

func TestValidateFailoverTargets(t *testing.T) {
	// Failover to self.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:          fault.KindShardFailover,
		ShardFailover: &fault.ShardFailover{Node: 1, To: 1, At: sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Failover to a node scheduled to die: the adopter must stay up.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		serverCrash(0, 2*sim.Second, 0, 100*sim.Millisecond, 1),
		{Kind: fault.KindShardFailover, ShardFailover: &fault.ShardFailover{Node: 1, To: 0, At: sim.Second}},
	}
	wantInvalid(t, s, "faults.events[1]")

	// A second event aimed at the failed-over source overlaps its
	// open-ended down-window.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: fault.KindShardFailover, ShardFailover: &fault.ShardFailover{Node: 1, To: 0, At: sim.Second}},
		{Kind: fault.KindServerCrash, ServerCrash: &fault.ServerCrash{
			Node: 1, At: 3 * sim.Second, Outage: 100 * sim.Millisecond, Count: 1}},
	}
	wantInvalid(t, s, "faults.events[0]")

	// An adopter crash fully recovered before the failover is fine (the
	// takeover waits out a remount tail).
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		serverCrash(0, 100*sim.Millisecond, 0, 100*sim.Millisecond, 1),
		{Kind: fault.KindShardFailover, ShardFailover: &fault.ShardFailover{Node: 1, To: 0, At: sim.Second}},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("pre-failover adopter crash rejected: %v", err)
	}

	// A link outage never takes the adopter down; any timing is fine.
	zero := 0
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
			Node: &zero, At: 2 * sim.Second, Outage: 100 * sim.Millisecond, Count: 1}},
		{Kind: fault.KindShardFailover, ShardFailover: &fault.ShardFailover{Node: 1, To: 0, At: sim.Second}},
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
		Kind:          fault.KindShardFailover,
		ShardFailover: &fault.ShardFailover{Node: 1, To: 0, At: sim.Second},
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
		{Kind: fault.KindShardFailover, ShardFailover: &fault.ShardFailover{
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
		Kind:       fault.KindLinkOutage,
		LinkOutage: &fault.LinkOutage{At: sim.Second, Outage: sim.Millisecond, Count: 1},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Both targets set.
	zero := 0
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind: fault.KindLinkOutage,
		LinkOutage: &fault.LinkOutage{
			Node: &zero, Client: &zero, At: sim.Second, Outage: sim.Millisecond, Count: 1,
		},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// A link outage overlapping a crash window on the same node.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		serverCrash(0, sim.Second, 0, 200*sim.Millisecond, 1),
		{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
			Node: &zero, At: sim.Second + 100*sim.Millisecond, Outage: sim.Millisecond, Count: 1}},
	}
	wantInvalid(t, s, "faults.events[0]")
}

// registryDigests pins every registry scenario's whole result: a sha256
// over its Result JSON (every metric column, events_fired, the durability
// audit, the segments and bridges roll-up) followed by every cell's kernel
// event count, run at -j 1. The golden prints only rendered text, neither
// the fault log nor the fabric's JSON nor event counts, so a kill
// reordered in a crash, a moved replay, a lost wake-up or a moved bridge
// counter passes it and fails here. A deliberate model change re-records
// these once, with sim_digests.txt and the golden.
var registryDigests = map[string]string{
	"table1":       "c2ce0b7774cc1de313c753aef71cf86b923036d5cef9ab5d32110e076c18330a",
	"table2":       "8d98a8c32ca789d7681355838117675d4ed69e2ba612d96c3c9d4349da25e7fd",
	"table3":       "549140d9d149deb1b4a55c20ea45d80956423c28e11117094f454b4461f9c98f",
	"table4":       "36d9ed32c1ab6736ca9915bbfb0d2adb3e11c818742872840f2024b6281b15e9",
	"table5":       "a39323617738b3387d79445e066da04377c20ab8fa48b2eac53d63c18354049a",
	"table6":       "dd5c2bcd7c233238d4433a0bbf93778ae320b4c6369b1af4cf60e1fbe10af68b",
	"figure1":      "3aae9bf35fd78fdbce6517c0cfd9c3c7ce25e3a656f95c7f7e0a03cfb0a32dcd",
	"figure2":      "e783fdbf4739a6637a99dedba77b52fe1fdbf1457af39fa0b907fabdd300c07c",
	"figure3":      "5f002cd4b4a5986b90233757db09056226629866d490b68dd075c26e7cabab6d",
	"scale":        "9da94e50f015f84c4a75ff1de9d4e08e5b70325a129089b74183afeaa033ae44",
	"bridged":      "30d38c92120db0a4937d19fc510307ee93716086786f6f97ccb147833468693d",
	"crash":        "242fabd755ad14f1f2a1f2bba6c249baf273d902fccf69ca6e63ffdf9cc41fc8",
	"partialcrash": "288922f671e11d291db5e06f02ac64e3cd2caf34d090aa20a936f2c49d864f47",
	"flapstorm":    "b57a032ab0b1a83145bc806e19ad98d5f98e15df9af907f23331d4f7432c7dbc",
	"failover":     "847952b65b1d45226dfcd5946a3ee60917b79bcbf42191d8f3e167b4abe971bf",
	"clientreboot": "181d8c804cb800f6d01ba5f9fd59e0f44f6a6a5a2080956c77074bff4221a858",
	"mediastorm":   "ad6f4836c918e25bb8a3edf88ace895cf7926a4dad1e3518ce1f8c5996a86b1d",
	"kneecurve":    "4cc88b06fe88c1213aaa4f64054828ba54a6c2c5088814f83105de093d2c2eb5",
	"bridgedsat":   "5326d9a97897eeefb29ba97e8e9e4d42bbbf5d69e29d96531fc82d08c020f3a2",
}

func TestRegistryDigests(t *testing.T) {
	reg := Registry()
	if len(reg) != len(registryDigests) {
		t.Errorf("%d registry scenarios, %d recorded digests", len(reg), len(registryDigests))
	}
	for _, e := range reg {
		res, err := RunWorkers(e.Build(), 1)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(js)
		for _, c := range res.Cells {
			fmt.Fprintf(h, "\n%s events=%d", c.Label, c.Events)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != registryDigests[e.Name] {
			t.Errorf("%s: result digest %s, recorded %s", e.Name, got, registryDigests[e.Name])
		}
	}
}

// TestFaultScenariosLoseNothingOverSeeds runs the durability-checked
// fault scenarios at ten seeds per cell (the cell's seed + k*7919): each
// must lose no acked byte, leak no block reference, and actually fire its
// faults. partialcrash has no journal and is not here.
func TestFaultScenariosLoseNothingOverSeeds(t *testing.T) {
	for _, name := range []string{"crash", "failover", "clientreboot", "flapstorm"} {
		base, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for k := int64(0); k < 10; k++ {
			res, err := Run(seedShifted(base, k))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Cells {
				d := c.Durability
				if d == nil {
					t.Fatalf("%s/%s seed %d: no durability audit", name, c.Label, c.Seed)
				}
				if d.LostBytes != 0 || d.UnaccountedRefs != 0 {
					t.Errorf("%s/%s seed %d: lost %d bytes (%s), %d unaccounted refs",
						name, c.Label, c.Seed, d.LostBytes, d.FirstLoss, d.UnaccountedRefs)
				}
				switch name {
				case "failover":
					if d.Failovers != 1 {
						t.Errorf("%s/%s seed %d: failovers = %d, want 1", name, c.Label, c.Seed, d.Failovers)
					}
				case "clientreboot":
					if d.ClientReboots != 1 || d.BiodsLost != 2 {
						t.Errorf("%s/%s seed %d: client reboots = %d, biods lost = %d, want 1 and 2",
							name, c.Label, c.Seed, d.ClientReboots, d.BiodsLost)
					}
				}
				if name != "clientreboot" && d.Crashes < 1 {
					t.Errorf("%s/%s seed %d: no crash fired", name, c.Label, c.Seed)
				}
			}
		}
	}
}
