package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// wireEvents is one event of each fault kind with every field set. A
// link-outage target is one of three exclusive fields, so that kind
// appears once per target.
func wireEvents() []FaultEvent {
	one, seg := 1, "lan1"
	return []FaultEvent{
		{Kind: fault.KindServerCrash, ServerCrash: &fault.ServerCrash{
			Node: 1, Train: fault.Train{At: 300 * sim.Millisecond, Period: 400 * sim.Millisecond,
				Outage: 100 * sim.Millisecond, Count: 2}}},
		{Kind: fault.KindClientReboot, ClientReboot: &fault.ClientReboot{
			Client: 1, At: 300 * sim.Millisecond, Outage: 200 * sim.Millisecond}},
		{Kind: fault.KindBiodLoss, BiodLoss: &fault.BiodLoss{
			Client: 1, At: 250 * sim.Millisecond, Lose: 3}},
		{Kind: fault.KindShardFailover, ShardFailover: &fault.ShardFailover{
			Node: 1, To: 0, At: 400 * sim.Millisecond, Takeover: 250 * sim.Millisecond}},
		{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
			Node: &one, Train: fault.Train{At: 150 * sim.Millisecond, Period: 500 * sim.Millisecond,
				Outage: 50 * sim.Millisecond, Count: 2}}},
		{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
			Client: &one, Train: fault.Train{At: 150 * sim.Millisecond, Period: 500 * sim.Millisecond,
				Outage: 50 * sim.Millisecond, Count: 2}}},
		{Kind: fault.KindLinkOutage, LinkOutage: &fault.LinkOutage{
			Segment: &seg, Train: fault.Train{At: 150 * sim.Millisecond, Period: 500 * sim.Millisecond,
				Outage: 50 * sim.Millisecond, Count: 2}}},
		{Kind: fault.KindDiskReadError, DiskReadError: &fault.DiskReadError{
			Node: 1, Disk: 1, At: 200 * sim.Millisecond,
			BlockFrom: 16, BlockTo: 64, AfterOps: 2, Times: 3}},
		{Kind: fault.KindDiskDegraded, DiskDegraded: &fault.DiskDegraded{
			Node: 1, Disk: -1, At: 300 * sim.Millisecond,
			Duration: 250 * sim.Millisecond, Factor: 6.5}},
		{Kind: fault.KindDiskTornWrite, DiskTornWrite: &fault.DiskTornWrite{
			Node: 1, Disk: 1, At: 100 * sim.Millisecond}},
		{Kind: fault.KindNVRAMLyingSync, NVRAMLyingSync: &fault.NVRAMLyingSync{
			Node: 1, At: 100 * sim.Millisecond}},
	}
}

// wireJSON is the recorded encoding of wireEvents, one event a line.
const wireJSON = `
{"kind":"server-crash","server_crash":{"node":1,"at_ns":300000,"period_ns":400000,"outage_ns":100000,"count":2}}
{"kind":"client-reboot","client_reboot":{"client":1,"at_ns":300000,"outage_ns":200000}}
{"kind":"biod-loss","biod_loss":{"client":1,"at_ns":250000,"lose":3}}
{"kind":"shard-failover","shard_failover":{"node":1,"to":0,"at_ns":400000,"takeover_ns":250000}}
{"kind":"link-outage","link_outage":{"node":1,"at_ns":150000,"period_ns":500000,"outage_ns":50000,"count":2}}
{"kind":"link-outage","link_outage":{"client":1,"at_ns":150000,"period_ns":500000,"outage_ns":50000,"count":2}}
{"kind":"link-outage","link_outage":{"segment":"lan1","at_ns":150000,"period_ns":500000,"outage_ns":50000,"count":2}}
{"kind":"disk-read-error","disk_read_error":{"node":1,"disk":1,"at_ns":200000,"block_from":16,"block_to":64,"after_ops":2,"times":3}}
{"kind":"disk-degraded","disk_degraded":{"node":1,"disk":-1,"at_ns":300000,"duration_ns":250000,"factor":6.5}}
{"kind":"disk-torn-write","disk_torn_write":{"node":1,"disk":1,"at_ns":100000}}
{"kind":"nvram-lying-sync","nvram_lying_sync":{"node":1,"at_ns":100000}}
`

// TestFaultEventWireFormat pins the fault schema byte for byte: every
// kind's field names, order and units. Each event decodes back to itself
// and validates on a topology that can carry every kind, so no kind
// reaches validation without a case.
func TestFaultEventWireFormat(t *testing.T) {
	var lines []string
	for _, ev := range wireEvents() {
		blob, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(blob))

		var back FaultEvent
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("%s: decode: %v", blob, err)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Errorf("%s: decodes to %+v", blob, back)
		}

		spec := Spec{
			Name: "t-wire",
			Seed: 1,
			Topology: Topology{
				Media: []Medium{
					{Name: "core", Net: "fddi"},
					{Name: "lan1", Net: "ethernet", Uplink: "core"},
				},
				Clients: []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 50, Segment: "lan1"}},
				Servers: Servers{Count: 2, StripeDisks: 2, Presto: true, Gathering: true},
			},
			Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}},
			Faults:   Faults{CheckDurability: true, Events: []FaultEvent{ev}},
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", ev.Kind, err)
		}
	}
	if got := strings.Join(lines, "\n"); got != strings.TrimSpace(wireJSON) {
		t.Errorf("fault events encode as\n%s\nwant\n%s", got, strings.TrimSpace(wireJSON))
	}
}

// TestBenchWorkloadsRoundTrip reads every checked-in benchmark workload
// (bench/ is a module of its own, which `go test ./...` here does not
// reach): each decodes strictly, validates, and re-marshals in the file
// format, two-space indent and a final newline, to its own bytes. A
// schema change that would break the benchmark's specs fails here. The
// files are only read.
func TestBenchWorkloadsRoundTrip(t *testing.T) {
	files, err := filepath.Glob("../../bench/workloads/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark workloads found (%v)", err)
	}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Decode(blob)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		again, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if again = append(again, '\n'); !bytes.Equal(again, blob) {
			t.Errorf("%s does not re-marshal to its own bytes:\n%s", f, again)
		}
	}
}
