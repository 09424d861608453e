package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// validSpec is a minimal runnable copy spec tests mutate.
func validSpec() Spec {
	return Spec{
		Name: "t",
		Topology: Topology{
			Net:     "fddi",
			Clients: []ClientGroup{{Count: 1}},
			Servers: Servers{Count: 1},
		},
		Workload: Workload{Kind: KindCopy, Copy: &CopyWorkload{FileMB: 1}},
	}
}

func wantInvalid(t *testing.T, s Spec, field string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Fatalf("spec validated; want error on %s", field)
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error %v is not a *ValidationError", err)
	}
	if !strings.HasPrefix(verr.Field, field) {
		t.Fatalf("error on field %q (%s); want %q", verr.Field, verr.Reason, field)
	}
}

func TestValidateAcceptsMinimalSpec(t *testing.T) {
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateZeroClients(t *testing.T) {
	s := validSpec()
	s.Topology.Clients[0].Count = 0
	wantInvalid(t, s, "topology.clients")

	s = validSpec()
	s.Topology.Clients = nil
	wantInvalid(t, s, "topology.clients")
}

func TestValidateUnknownFaultNode(t *testing.T) {
	s := validSpec()
	s.Workload = Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}}
	s.Faults.Events = []FaultEvent{serverCrash(3, sim.Second, 0, sim.Millisecond, 1)}
	wantInvalid(t, s, "faults.events[0]")
}

func TestValidateOverlappingCrashWindows(t *testing.T) {
	s := validSpec()
	s.Workload = Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}}
	// Two trains on node 0 whose scheduled outage windows collide.
	s.Faults.Events = []FaultEvent{
		serverCrash(0, 100*sim.Millisecond, 0, 50*sim.Millisecond, 1),
		serverCrash(0, 120*sim.Millisecond, 0, 50*sim.Millisecond, 1),
	}
	wantInvalid(t, s, "faults.events")

	// A single train overlapping itself: period shorter than the outage.
	s.Faults.Events = []FaultEvent{
		serverCrash(0, 100*sim.Millisecond, 20*sim.Millisecond, 50*sim.Millisecond, 2),
	}
	wantInvalid(t, s, "faults.events")

	// Disjoint windows on distinct nodes are fine.
	s.Topology.Servers.Count = 2
	s.Faults.Events = []FaultEvent{
		serverCrash(0, 100*sim.Millisecond, 0, 50*sim.Millisecond, 1),
		serverCrash(1, 120*sim.Millisecond, 0, 50*sim.Millisecond, 1),
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint per-node windows rejected: %v", err)
	}
}

func TestValidateUnknownNet(t *testing.T) {
	s := validSpec()
	s.Topology.Net = "token-ring"
	wantInvalid(t, s, "topology.net")
}

func TestValidateMultipleMediaUnsupported(t *testing.T) {
	s := validSpec()
	s.Topology.Net = ""
	s.Topology.Media = []Medium{{Name: "a", Net: "fddi"}, {Name: "b", Net: "ethernet"}}
	wantInvalid(t, s, "topology.media")

	// A single declared medium stands in for Net.
	s.Topology.Media = s.Topology.Media[:1]
	if err := s.Validate(); err != nil {
		t.Fatalf("single medium rejected: %v", err)
	}
}

func TestValidateRigAssemblyConflicts(t *testing.T) {
	s := validSpec()
	s.Topology.Assembly = AssemblyRig
	s.Topology.Servers.Count = 2
	s.Workload = Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{
		OfferedOpsPerSec: 10, Measure: sim.Second,
	}}
	wantInvalid(t, s, "topology.assembly")
}

func TestValidateWorkloadParameters(t *testing.T) {
	s := validSpec()
	s.Workload = Workload{Kind: "mixed-up"}
	wantInvalid(t, s, "workload.kind")

	s = validSpec()
	s.Workload = Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{OfferedOpsPerSec: 0, Measure: sim.Second}}
	wantInvalid(t, s, "workload.laddis.offered_ops_per_sec")

	s = validSpec()
	s.Workload = Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{OfferedOpsPerSec: 5}}
	wantInvalid(t, s, "workload.laddis.measure_ns")
}

func TestValidateNodeOverrideValues(t *testing.T) {
	bad := -5
	s := validSpec()
	s.Topology.Servers.Nodes = []NodeOverride{{Nfsds: &bad}}
	wantInvalid(t, s, "topology.servers.nodes[0]")

	zero := 0
	s = validSpec()
	s.Topology.Servers.Nodes = []NodeOverride{{StripeDisks: &zero}}
	wantInvalid(t, s, "topology.servers.nodes[0]")
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	spec, _ := Lookup("flapstorm")
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatalf("strict decode rejected a dumped spec: %v", err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatal("strict decode altered the spec")
	}
	typo := strings.Replace(string(blob), `"check_durability"`, `"check_durabilty"`, 1)
	if typo == string(blob) {
		t.Fatal("typo not injected")
	}
	if _, err := Decode([]byte(typo)); err == nil {
		t.Fatal("strict decode accepted a typo'd field name")
	}
}

// TestLegacyCrashesFailDecode: the crash-train list is gone from the
// schema, so a spec that still spells faults.crashes is an unknown field
// to the strict decoder, not a schedule that silently runs without its
// crashes. The same train written as a server-crash event decodes.
func TestLegacyCrashesFailDecode(t *testing.T) {
	const spec = `{"name": "t", "seed": 0,
		"topology": {"net": "fddi", "clients": [{"count": 1}], "servers": {"count": 1}},
		"workload": {"kind": "stream", "stream": {"file_mb": 1}},
		"faults": {%s}}`
	legacy := `"crashes": [{"node": 0, "at_ns": 500000, "outage_ns": 100000, "count": 1}]`
	if _, err := Decode([]byte(fmt.Sprintf(spec, legacy))); err == nil || !strings.Contains(err.Error(), `"crashes"`) {
		t.Fatalf("a faults.crashes spec decoded (err %v); the strict decoder must name the field", err)
	}
	typed := `"events": [{"kind": "server-crash", "server_crash": {"node": 0, "at_ns": 500000, "outage_ns": 100000, "count": 1}}]`
	s, err := Decode([]byte(fmt.Sprintf(spec, typed)))
	if err != nil {
		t.Fatal(err)
	}
	if want := serverCrash(0, 500*sim.Millisecond, 0, 100*sim.Millisecond, 1); !reflect.DeepEqual(s.Faults.Events, []FaultEvent{want}) {
		t.Fatalf("decoded events %+v, want %+v", s.Faults.Events, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	s := validSpec()
	s.Topology.Clients[0].Count = 0
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
}

// TestRegistrySpecsValidateAndRoundTrip guards the declarative contract:
// every registered scenario validates, JSON-encodes, decodes back to a
// deeply equal spec, and survives a second encode byte-identically.
func TestRegistrySpecsValidateAndRoundTrip(t *testing.T) {
	entries := Registry()
	if len(entries) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Description == "" {
			t.Errorf("%s: no description", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate registry name %s", e.Name)
		}
		seen[e.Name] = true
		spec := e.Build()
		if spec.Name != e.Name {
			t.Errorf("%s: spec name %q differs from registry key", e.Name, spec.Name)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Errorf("%s: marshal: %v", e.Name, err)
			continue
		}
		var back Spec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Errorf("%s: unmarshal: %v", e.Name, err)
			continue
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: spec did not survive a JSON round trip:\n%s", e.Name, blob)
		}
		blob2, err := json.Marshal(back)
		if err != nil || string(blob) != string(blob2) {
			t.Errorf("%s: re-encode differs (err=%v)", e.Name, err)
		}
		if _, ok := Lookup(e.Name); !ok {
			t.Errorf("%s: Lookup missed a registered name", e.Name)
		}
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Error("Lookup invented a scenario")
	}
}

func TestMetricColumnsComplete(t *testing.T) {
	cols := MetricColumns()
	if len(cols) != 15 {
		t.Fatalf("got %d uniform metric columns, want 15", len(cols))
	}
	var m Metrics
	m.Errors = 3
	for _, c := range cols {
		if _, ok := m.Column(c); !ok {
			t.Errorf("column %q not resolvable", c)
		}
	}
	if v, _ := m.Column("errors"); v != 3 {
		t.Errorf("errors column = %v, want 3", v)
	}
	if _, ok := m.Column("bogus"); ok {
		t.Error("unknown column resolved")
	}
}
