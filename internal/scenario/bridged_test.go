package scenario

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// bridgedSweepSpec is the bridged registry scenario with the LADDIS
// measure trimmed for test runtime.
func bridgedSweepSpec(t *testing.T) Spec {
	t.Helper()
	spec, ok := Lookup("bridged")
	if !ok {
		t.Fatal("bridged not registered")
	}
	l := *spec.Workload.LADDIS
	l.Measure = 1 * sim.Second
	spec.Workload.LADDIS = &l
	return spec
}

// TestBridgedByteIdentical is the store-and-forward determinism
// contract at the engine level: the bridged segment-count sweep run
// sequentially and across a worker pool yields identical output —
// Render bytes, the serialized result, every metric column — and the
// multi-segment columns are actually populated.
func TestBridgedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweeps in -short mode")
	}
	spec := bridgedSweepSpec(t)
	seq, err := RunWorkers(spec, 1)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	par, err := RunWorkers(spec, 4)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	a, b := seq.Render(), par.Render()
	if a != b {
		t.Errorf("Render differs between workers=1 and workers=4:\n--- sequential\n%s\n--- parallel\n%s", a, b)
	}
	aj, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("serialized results differ between workers=1 and workers=4")
	}
	for i := range seq.Cells {
		if !reflect.DeepEqual(seq.Cells[i].Metrics, par.Cells[i].Metrics) {
			t.Errorf("cell %s: metric columns differ:\n%+v\n%+v",
				seq.Cells[i].Label, seq.Cells[i].Metrics, par.Cells[i].Metrics)
		}
	}
	// The fabric columns are part of the scenario's output contract.
	for _, col := range SegmentColumns() {
		if !strings.Contains(a, col) {
			t.Errorf("Render missing fabric column %q", col)
		}
	}
	for _, c := range seq.Cells {
		if len(c.Segments) < 2 {
			t.Errorf("cell %s: %d segment stats, want the core plus every leaf", c.Label, len(c.Segments))
		}
		if len(c.Bridges) < 1 {
			t.Errorf("cell %s: no bridge stats", c.Label)
		}
		if c.Metrics.NetMaxUtilPct <= 0 {
			t.Errorf("cell %s: net_max_util_pct = %v, want > 0", c.Label, c.Metrics.NetMaxUtilPct)
		}
		for _, b := range c.Bridges {
			if b.Forwarded == 0 {
				t.Errorf("cell %s: bridge %s forwarded nothing — clients did not cross it", c.Label, b.Name)
			}
		}
	}
	// The sweep axis works: seg4 cells carry more segments than seg1.
	if n1, n4 := len(seq.Cells[0].Segments), len(seq.Cells[4].Segments); n4 <= n1 {
		t.Errorf("segment sweep did not grow the fabric: %d -> %d segments", n1, n4)
	}
}

// bridgedStreamSpec is a two-segment durability testbed: both clients on
// an Ethernet leaf, the server across a store-and-forward bridge on the
// FDDI core, every write audited.
func bridgedStreamSpec() Spec {
	return Spec{
		Name: "bridgedstream",
		Seed: 3131,
		Topology: Topology{
			Media: []Medium{
				{Name: "core", Net: "fddi"},
				{Name: "lan1", Net: "ethernet", Uplink: "core"},
			},
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 200, Segment: "lan1"}},
			Servers:  Servers{Count: 1, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}},
		Faults:   Faults{CheckDurability: true},
	}
}

// TestBridgedPartitionRideout severs the leaf segment's uplink
// mid-stream: every host on lan1 partitions from the server at once.
// The contract is the NFS one — clients ride the partition out with
// retransmission and every acked byte survives; the severed uplink
// fires as a recorded fault transition on the way down and up.
func TestBridgedPartitionRideout(t *testing.T) {
	seg := "lan1"
	spec := bridgedStreamSpec()
	spec.Faults.Events = []FaultEvent{{
		Kind: fault.KindLinkOutage,
		LinkOutage: &fault.LinkOutage{
			Segment: &seg, Train: fault.Train{At: 150 * sim.Millisecond, Outage: 150 * sim.Millisecond, Count: 1},
		},
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	d := c.Durability
	if d == nil {
		t.Fatal("no durability audit")
	}
	if d.LinkOutages != 1 {
		t.Fatalf("link outages = %d, want 1; events: %v", d.LinkOutages, d.EventsFired)
	}
	var down, up bool
	for _, ev := range d.EventsFired {
		down = down || strings.Contains(ev, "link-down segment lan1")
		up = up || strings.Contains(ev, "link-up segment lan1")
	}
	if !down || !up {
		t.Errorf("uplink transitions not recorded (down=%v up=%v): %v", down, up, d.EventsFired)
	}
	if c.Retransmissions == 0 {
		t.Error("the partition left no client-side trace")
	}
	if d.AckedBytes < 2<<20 {
		t.Errorf("streams did not finish across the partition: %d bytes acked", d.AckedBytes)
	}
	if d.LostBytes != 0 {
		t.Errorf("DURABILITY VIOLATED across the partition: lost %d bytes: %s", d.LostBytes, d.FirstLoss)
	}
}

// TestBridgedFailoverAcrossSegments moves the failover scenario onto a
// bridged fabric: both shards on the core, every client behind a leaf
// bridge. Shard 2 dies and shard 1 adopts its disks — the adopted
// export must stay reachable from the leaf segment (the fabric's routes
// repoint to the survivor), the orphaned stream finishes through it,
// and every acked byte reads back.
func TestBridgedFailoverAcrossSegments(t *testing.T) {
	spec := bridgedStreamSpec()
	spec.Name = "bridgedfailover"
	spec.Seed = 4747
	spec.Topology.Servers.Count = 2
	spec.Workload.Stream.Shard = true
	spec.Faults.Events = []FaultEvent{{
		Kind: fault.KindShardFailover,
		ShardFailover: &fault.ShardFailover{
			Node: 1, To: 0, At: 400 * sim.Millisecond, Takeover: 250 * sim.Millisecond,
		},
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	d := c.Durability
	if d == nil {
		t.Fatal("no durability audit")
	}
	if d.Failovers != 1 || d.Crashes != 1 || d.Reboots != 0 {
		t.Errorf("failovers=%d crashes=%d reboots=%d, want 1/1/0; events: %v",
			d.Failovers, d.Crashes, d.Reboots, d.EventsFired)
	}
	// Both 1MB streams completed: the orphaned stream reached the
	// adopted export across the bridge.
	if d.AckedBytes < 2<<20 {
		t.Errorf("only %d bytes acked; the orphaned stream did not finish through the adopter across the fabric",
			d.AckedBytes)
	}
	if d.LostBytes != 0 {
		t.Errorf("DURABILITY VIOLATED across failover: lost %d bytes: %s", d.LostBytes, d.FirstLoss)
	}
	if c.Retransmissions == 0 {
		t.Error("the takeover window left no client-side trace")
	}
}

// TestValidateBridgedPlacement is the placement/typology validation
// table: every malformed fabric or placement is rejected with a typed
// error on the right field.
func TestValidateBridgedPlacement(t *testing.T) {
	base := func() Spec { return bridgedStreamSpec() }

	// Net and Media both set — the error names the known media kinds.
	s := base()
	s.Topology.Net = "fddi"
	err := s.Validate()
	if err == nil {
		t.Fatal("net+media spec validated")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Field != "topology.net" {
		t.Fatalf("net+media error = %v, want ValidationError on topology.net", err)
	}
	if !strings.Contains(verr.Reason, "ethernet") || !strings.Contains(verr.Reason, "fddi") {
		t.Errorf("net+media error does not list the known media kinds: %s", verr.Reason)
	}

	// Placement on an undeclared segment.
	s = base()
	s.Topology.Clients[0].Segment = "lan9"
	wantInvalid(t, s, "topology.clients[0].segment")

	s = base()
	s.Topology.Servers.Segment = "nowhere"
	wantInvalid(t, s, "topology.servers.segment")

	// Segment placement without a media list.
	s = base()
	s.Topology.Net, s.Topology.Media = "fddi", nil
	s.Topology.Clients[0].Segment = ""
	s.Topology.Servers.Segment = "core"
	wantInvalid(t, s, "topology.servers.segment")

	// Duplicate segment name.
	s = base()
	s.Topology.Media[1].Name = "core"
	wantInvalid(t, s, "topology.media[1]")

	// Unknown medium kind.
	s = base()
	s.Topology.Media[1].Net = "token-ring"
	wantInvalid(t, s, "topology.media[1]")

	// Two roots: the second is an orphan.
	s = base()
	s.Topology.Media[1].Uplink = ""
	wantInvalid(t, s, "topology.media[1]")

	// No root at all: the uplinks cycle.
	s = base()
	s.Topology.Media[0].Uplink = "lan1"
	wantInvalid(t, s, "topology.media")

	// Uplink to itself.
	s = base()
	s.Topology.Media[1].Uplink = "lan1"
	wantInvalid(t, s, "topology.media[1]")

	// Uplink to an undeclared segment.
	s = base()
	s.Topology.Media[1].Uplink = "backbone"
	wantInvalid(t, s, "topology.media[1]")

	// Negative bridge parameters.
	s = base()
	s.Topology.Media[1].BridgeLatency = -1
	wantInvalid(t, s, "topology.media[1]")
	s = base()
	s.Topology.Media[1].BridgeQueue = -1
	wantInvalid(t, s, "topology.media[1]")

	// Empty per-node segment override.
	s = base()
	empty := ""
	s.Topology.Servers.Nodes = []NodeOverride{{Segment: &empty}}
	wantInvalid(t, s, "topology.servers.nodes[0].segment")

	// Segment outage on the root: no uplink to sever.
	s = base()
	root := "core"
	s.Faults.Events = []FaultEvent{{
		Kind: fault.KindLinkOutage,
		LinkOutage: &fault.LinkOutage{
			Segment: &root, Train: fault.Train{At: sim.Millisecond, Outage: sim.Millisecond, Count: 1},
		},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Segment outage on a flat single-medium topology.
	s = base()
	seg := "lan1"
	s.Topology.Net, s.Topology.Media = "fddi", nil
	s.Topology.Clients[0].Segment = ""
	s.Faults.Events = []FaultEvent{{
		Kind: fault.KindLinkOutage,
		LinkOutage: &fault.LinkOutage{
			Segment: &seg, Train: fault.Train{At: sim.Millisecond, Outage: sim.Millisecond, Count: 1},
		},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Segment-count cell override on a flat topology.
	s = base()
	s.Topology.Net, s.Topology.Media = "fddi", nil
	s.Topology.Clients[0].Segment = ""
	one := 1
	s.Cells = []Cell{{Label: "seg1", Segments: &one}}
	wantInvalid(t, s, "cells.segments")

	// Segment-count override beyond the declared leaves.
	s = base()
	three := 3
	s.Cells = []Cell{{Label: "seg3", Segments: &three}}
	wantInvalid(t, s, "cells.segments")
}

// TestFuzzGeneratesBridgedTopologies pins the fuzzer's fabric coverage:
// the generator must emit multi-segment topologies (clients placed off
// the root) and segment-targeted outage events, so the campaign
// actually exercises the bridged datagram path.
func TestFuzzGeneratesBridgedTopologies(t *testing.T) {
	multi, segEvents := 0, 0
	for i := 0; i < 150; i++ {
		rng := rand.New(rand.NewSource(1_000_003 + int64(i)))
		spec := genSpec(rng, i)
		if len(spec.Topology.Media) > 1 {
			multi++
			if spec.Topology.Clients[0].Segment == "" {
				t.Errorf("run %d: bridged topology with the client group on the root — nothing crosses a bridge", i)
			}
		}
		for _, ev := range spec.Faults.Events {
			if ev.Kind == fault.KindLinkOutage && ev.LinkOutage.Segment != nil {
				segEvents++
			}
		}
	}
	if multi == 0 {
		t.Error("150 generated specs, none on a bridged fabric")
	}
	if segEvents == 0 {
		t.Error("150 generated specs, no segment-targeted link outage")
	}
	t.Logf("fuzz coverage: %d/150 bridged specs, %d segment outages", multi, segEvents)
}
