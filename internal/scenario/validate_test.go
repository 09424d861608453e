package scenario

import (
	"encoding/json"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestFaultValidationMessages pins the whole text (field path and
// reason) of every fault-plane validation error: the tagged-union
// checks, each kind's checks on its own fields, and the rules that span
// events. Each case decodes its events from spec JSON onto one of a few
// base specs and expects exactly one error.
func TestFaultValidationMessages(t *testing.T) {
	bases := map[string]func() Spec{
		"stream":  faultSpec,
		"bridged": bridgedStreamSpec,
		"copy": func() Spec {
			s := faultSpec()
			s.Topology.Clients = []ClientGroup{{Count: 1, Biods: 4}}
			s.Workload = Workload{Kind: KindCopy, Copy: &CopyWorkload{FileMB: 1}}
			return s
		},
		"laddis": func() Spec {
			s := faultSpec()
			s.Workload = Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{OfferedOpsPerSec: 10, Measure: sim.Second}}
			return s
		},
		"trace": func() Spec {
			s := faultSpec()
			s.Topology.Clients = []ClientGroup{{Count: 1, Biods: 4}}
			s.Workload = Workload{Kind: KindTrace, Trace: &TraceWorkload{FileKB: 8}}
			s.Faults.CheckDurability = true
			return s
		},
		"openload": func() Spec {
			s := OpenloadRig("t", "", false, 2, 8, 1, ArrivalPoisson, PopFlat, MixLADDIS, 30*sim.Second, 77)
			s.Workload.Openload.TargetOps = 20
			return s
		},
	}
	for _, tc := range []struct{ base, events, want string }{
		{"stream", `{"kind":"meteor-strike"}`,
			`faults.events[0]: unknown fault kind "meteor-strike" (want one of "server-crash", "client-reboot", "biod-loss", "shard-failover", "link-outage", "disk-read-error", "disk-degraded", "disk-torn-write", "nvram-lying-sync")`},
		{"stream", `{"kind":"client-reboot"}`,
			`faults.events[0]: kind "client-reboot" declared but its client_reboot variant is missing`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":1000000,"outage_ns":1000,"count":1},"client_reboot":{"client":0,"at_ns":1000000,"outage_ns":1000}}`,
			`faults.events[0]: kind "server-crash" set alongside a client-reboot variant`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":3,"at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: fault targets unknown node 3 (topology has 2 servers)`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":1000000,"outage_ns":1000,"count":0}}`,
			`faults.events[0]: crash count must be at least 1`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":1000000,"outage_ns":0,"count":1}}`,
			`faults.events[0]: outage must be positive`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":-1,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: first crash time must not be negative`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":1000000,"outage_ns":1000,"count":2}}`,
			`faults.events[0]: repeating trains need a positive period`},
		{"stream", `{"kind":"client-reboot","client_reboot":{"client":5,"at_ns":1000000,"outage_ns":1000}}`,
			`faults.events[0]: fault targets unknown client 5 (topology has 2 clients)`},
		{"stream", `{"kind":"client-reboot","client_reboot":{"client":0,"at_ns":1000000,"outage_ns":0}}`,
			`faults.events[0]: outage must be positive`},
		{"stream", `{"kind":"client-reboot","client_reboot":{"client":0,"at_ns":-1,"outage_ns":1000}}`,
			`faults.events[0]: reboot time must not be negative`},
		{"copy", `{"kind":"client-reboot","client_reboot":{"client":0,"at_ns":1000000,"outage_ns":1000}}`,
			`faults.events[0]: client faults require the stream workload (the copy runner cannot lose a client)`},
		{"stream", `{"kind":"biod-loss","biod_loss":{"client":2,"at_ns":1000000,"lose":1}}`,
			`faults.events[0]: fault targets unknown client 2 (topology has 2 clients)`},
		{"stream", `{"kind":"biod-loss","biod_loss":{"client":0,"at_ns":-1,"lose":1}}`,
			`faults.events[0]: loss time must not be negative`},
		{"copy", `{"kind":"biod-loss","biod_loss":{"client":0,"at_ns":1000000,"lose":1}}`,
			`faults.events[0]: client faults require the stream workload (the copy runner cannot lose a client)`},
		{"stream", `{"kind":"biod-loss","biod_loss":{"client":0,"at_ns":1000000,"lose":9}}`,
			`faults.events[0]: lose must be between 1 and the client's 4 biods`},
		{"stream", `{"kind":"shard-failover","shard_failover":{"node":2,"to":0,"at_ns":1000000,"takeover_ns":0}}`,
			`faults.events[0]: fault targets unknown node 2 (topology has 2 servers)`},
		{"stream", `{"kind":"shard-failover","shard_failover":{"node":1,"to":-1,"at_ns":1000000,"takeover_ns":0}}`,
			`faults.events[0]: failover to unknown node -1 (topology has 2 servers)`},
		{"stream", `{"kind":"shard-failover","shard_failover":{"node":1,"to":1,"at_ns":1000000,"takeover_ns":0}}`,
			`faults.events[0]: a shard cannot fail over to itself`},
		{"stream", `{"kind":"shard-failover","shard_failover":{"node":1,"to":0,"at_ns":1000000,"takeover_ns":-1}}`,
			`faults.events[0]: failover and takeover times must not be negative`},
		{"laddis", `{"kind":"shard-failover","shard_failover":{"node":1,"to":0,"at_ns":1000000,"takeover_ns":0}}`,
			`faults.events[0]: shard failover requires a fully handle-routed workload; the laddis generators issue statfs to the default server by name, which cannot follow a migrated export`},
		{"stream", `{"kind":"link-outage","link_outage":{"at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: exactly one of node, client and segment selects the outage target`},
		{"stream", `{"kind":"link-outage","link_outage":{"node":0,"client":0,"at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: exactly one of node, client and segment selects the outage target`},
		{"stream", `{"kind":"link-outage","link_outage":{"node":0,"at_ns":1000000,"outage_ns":1000,"count":0}}`,
			`faults.events[0]: outage count must be at least 1`},
		{"stream", `{"kind":"link-outage","link_outage":{"node":0,"at_ns":1000000,"outage_ns":0,"count":1}}`,
			`faults.events[0]: outage must be positive`},
		{"stream", `{"kind":"link-outage","link_outage":{"node":0,"at_ns":-1,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: first outage time must not be negative`},
		{"stream", `{"kind":"link-outage","link_outage":{"node":0,"at_ns":1000000,"outage_ns":1000,"count":2}}`,
			`faults.events[0]: repeating trains need a positive period`},
		{"stream", `{"kind":"link-outage","link_outage":{"node":2,"at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: fault targets unknown node 2`},
		{"stream", `{"kind":"link-outage","link_outage":{"client":-1,"at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: fault targets unknown client -1`},
		{"stream", `{"kind":"link-outage","link_outage":{"segment":"lan1","at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: segment outages require a multi-segment topology.media`},
		{"bridged", `{"kind":"link-outage","link_outage":{"segment":"","at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: segment target must name a segment (declared: "core", "lan1")`},
		{"bridged", `{"kind":"link-outage","link_outage":{"segment":"lan9","at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: unknown segment "lan9" (declared: "core", "lan1")`},
		{"bridged", `{"kind":"link-outage","link_outage":{"segment":"core","at_ns":1000000,"outage_ns":1000,"count":1}}`,
			`faults.events[0]: segment "core" is the root and has no uplink to sever`},
		{"stream", `{"kind":"disk-read-error","disk_read_error":{"node":2,"at_ns":1000000}}`,
			`faults.events[0]: fault targets unknown node 2 (topology has 2 servers)`},
		{"stream", `{"kind":"disk-read-error","disk_read_error":{"node":0,"disk":1,"at_ns":1000000}}`,
			`faults.events[0]: fault targets unknown disk 1 on node 0 (1 spindles; -1 means all)`},
		{"stream", `{"kind":"disk-read-error","disk_read_error":{"node":0,"disk":-2,"at_ns":1000000}}`,
			`faults.events[0]: fault targets unknown disk -2 on node 0 (1 spindles; -1 means all)`},
		{"stream", `{"kind":"disk-read-error","disk_read_error":{"node":0,"at_ns":-1}}`,
			`faults.events[0]: injection time must not be negative`},
		{"stream", `{"kind":"disk-read-error","disk_read_error":{"node":0,"at_ns":1000000,"block_from":-1}}`,
			`faults.events[0]: negative block range`},
		{"stream", `{"kind":"disk-read-error","disk_read_error":{"node":0,"at_ns":1000000,"block_from":8,"block_to":8}}`,
			`faults.events[0]: empty block range [8,8) (block_to 0 means end of disk)`},
		{"stream", `{"kind":"disk-read-error","disk_read_error":{"node":0,"at_ns":1000000,"times":-1}}`,
			`faults.events[0]: negative after_ops or times`},
		{"laddis", `{"kind":"disk-read-error","disk_read_error":{"node":0,"at_ns":1000000}}`,
			`faults.events[0]: disk read errors require the stream workload (the laddis runner cannot absorb I/O-error replies)`},
		{"stream", `{"kind":"disk-degraded","disk_degraded":{"node":-1,"at_ns":1000000,"duration_ns":1000,"factor":2}}`,
			`faults.events[0]: fault targets unknown node -1 (topology has 2 servers)`},
		{"stream", `{"kind":"disk-degraded","disk_degraded":{"node":0,"disk":3,"at_ns":1000000,"duration_ns":1000,"factor":2}}`,
			`faults.events[0]: fault targets unknown disk 3 on node 0 (1 spindles; -1 means all)`},
		{"stream", `{"kind":"disk-degraded","disk_degraded":{"node":0,"at_ns":-1,"duration_ns":1000,"factor":2}}`,
			`faults.events[0]: window start must not be negative`},
		{"stream", `{"kind":"disk-degraded","disk_degraded":{"node":0,"at_ns":1000000,"duration_ns":0,"factor":2}}`,
			`faults.events[0]: window duration must be positive`},
		{"stream", `{"kind":"disk-degraded","disk_degraded":{"node":0,"at_ns":1000000,"duration_ns":1000,"factor":1}}`,
			`faults.events[0]: degrade factor must exceed 1 (got 1)`},
		{"stream", `{"kind":"disk-torn-write","disk_torn_write":{"node":5,"at_ns":1000000}}`,
			`faults.events[0]: fault targets unknown node 5 (topology has 2 servers)`},
		{"stream", `{"kind":"disk-torn-write","disk_torn_write":{"node":0,"disk":1,"at_ns":1000000}}`,
			`faults.events[0]: fault targets unknown disk 1 on node 0 (1 spindles; -1 means all)`},
		{"stream", `{"kind":"disk-torn-write","disk_torn_write":{"node":0,"at_ns":-1}}`,
			`faults.events[0]: arm time must not be negative`},
		{"stream", `{"kind":"nvram-lying-sync","nvram_lying_sync":{"node":2,"at_ns":1000000}}`,
			`faults.events[0]: fault targets unknown node 2 (topology has 2 servers)`},
		{"stream", `{"kind":"nvram-lying-sync","nvram_lying_sync":{"node":0,"at_ns":1000000}}`,
			`faults.events[0]: node 0 runs no NVRAM board (set topology.servers.presto or the node override)`},
		{"stream", `{"kind":"disk-degraded","disk_degraded":{"node":0,"at_ns":1000000,"duration_ns":100000,"factor":2}},{"kind":"disk-degraded","disk_degraded":{"node":0,"disk":-1,"at_ns":1050000,"duration_ns":100000,"factor":3}}`,
			`faults.events[0]: overlapping degraded windows on node 0 disk 0 (faults.events[0] [1.000s,1.100s] and faults.events[1] [1.050s,1.150s])`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":1,"at_ns":100000,"outage_ns":50000,"count":1}},{"kind":"server-crash","server_crash":{"node":1,"at_ns":120000,"outage_ns":50000,"count":1}}`,
			`faults.events[0]: overlapping fault windows on target 1 (faults.events[0] [100.000ms,150.000ms] and faults.events[1] [120.000ms,170.000ms])`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":100000,"period_ns":20000,"outage_ns":50000,"count":2}}`,
			`faults.events[0]: overlapping fault windows on target 0 (faults.events[0] [100.000ms,150.000ms] and faults.events[0] [120.000ms,170.000ms])`},
		{"stream", `{"kind":"client-reboot","client_reboot":{"client":1,"at_ns":100000,"outage_ns":50000}},{"kind":"link-outage","link_outage":{"client":1,"at_ns":120000,"outage_ns":10000,"count":1}}`,
			`faults.events[0]: overlapping fault windows on target 1 (faults.events[0] [100.000ms,150.000ms] and faults.events[1] [120.000ms,130.000ms])`},
		{"bridged", `{"kind":"link-outage","link_outage":{"segment":"lan1","at_ns":100000,"period_ns":200000,"outage_ns":50000,"count":2}},{"kind":"link-outage","link_outage":{"segment":"lan1","at_ns":320000,"outage_ns":50000,"count":1}}`,
			`faults.events[0]: overlapping outage windows on segment "lan1" (faults.events[0] [300.000ms,350.000ms] and faults.events[1] [320.000ms,370.000ms])`},
		{"stream", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":2000000,"outage_ns":100000,"count":1}},{"kind":"shard-failover","shard_failover":{"node":1,"to":0,"at_ns":1000000,"takeover_ns":0}}`,
			`faults.events[1]: failover to node 0, which faults.events[0] schedules down at 2.000s — the adopter must stay up from the failover on`},
		{"stream", `{"kind":"shard-failover","shard_failover":{"node":1,"to":0,"at_ns":1000000,"takeover_ns":0}},{"kind":"server-crash","server_crash":{"node":1,"at_ns":3000000,"outage_ns":100000,"count":1}}`,
			`faults.events[0]: overlapping fault windows on target 1 (faults.events[0] [1.000s,9223372036854.775s] and faults.events[1] [3.000s,3.100s])`},
		{"stream", `{"kind":"client-reboot","client_reboot":{"client":0,"at_ns":100000,"outage_ns":200000}},{"kind":"biod-loss","biod_loss":{"client":0,"at_ns":150000,"lose":1}}`,
			`faults.events[1]: biod loss at 150.000ms lands inside faults.events[0]'s down-window [100.000ms,300.000ms]`},
		{"trace", ``,
			`faults.check_durability: the trace workload has no durability journal`},
		{"openload", `{"kind":"server-crash","server_crash":{"node":0,"at_ns":1000000,"outage_ns":100000,"count":1}}`,
			`faults.events[0]: server-crash at 1.000s lands ahead of the measured window (none opens before 20.000s): open-loop set-up builds the export through ufs and holds the servers' filesystems until the window opens; schedule the fault inside it`},
		{"openload", `{"kind":"link-outage","link_outage":{"node":0,"at_ns":1000000,"outage_ns":100000,"count":1}},{"kind":"disk-torn-write","disk_torn_write":{"node":0,"at_ns":5000000}},{"kind":"disk-degraded","disk_degraded":{"node":0,"at_ns":3000000,"duration_ns":1000,"factor":2}}`,
			`faults.events[2]: disk-degraded at 3.000s lands ahead of the measured window (none opens before 20.000s): open-loop set-up builds the export through ufs and holds the servers' filesystems until the window opens; schedule the fault inside it`},
	} {
		s := bases[tc.base]()
		if tc.events != "" {
			if err := json.Unmarshal([]byte("["+tc.events+"]"), &s.Faults.Events); err != nil {
				t.Fatalf("%s: %v", tc.events, err)
			}
		}
		err := s.Validate()
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s %s: error %v is not a *ValidationError", tc.base, tc.events, err)
			continue
		}
		if got := verr.Error(); got != "scenario: invalid spec: "+tc.want {
			t.Errorf("%s %s:\n got %q\nwant %q", tc.base, tc.events, got, "scenario: invalid spec: "+tc.want)
		}
	}
}

// overlapsOnTwoNodes is a two-server stream spec with overlapping crash
// windows on both nodes and overlapping degraded windows on both nodes:
// four conflicts, of which the first declared is events 0 and 1.
const overlapsOnTwoNodes = `[
	{"kind":"server-crash","server_crash":{"node":0,"at_ns":100000,"outage_ns":50000,"count":1}},
	{"kind":"server-crash","server_crash":{"node":0,"at_ns":120000,"outage_ns":50000,"count":1}},
	{"kind":"server-crash","server_crash":{"node":1,"at_ns":100000,"outage_ns":50000,"count":1}},
	{"kind":"server-crash","server_crash":{"node":1,"at_ns":120000,"outage_ns":50000,"count":1}},
	{"kind":"disk-degraded","disk_degraded":{"node":0,"at_ns":1000000,"duration_ns":100000,"factor":2}},
	{"kind":"disk-degraded","disk_degraded":{"node":0,"at_ns":1050000,"duration_ns":100000,"factor":2}},
	{"kind":"disk-degraded","disk_degraded":{"node":1,"at_ns":1000000,"duration_ns":100000,"factor":2}},
	{"kind":"disk-degraded","disk_degraded":{"node":1,"at_ns":1050000,"duration_ns":100000,"factor":2}}]`

// TestOverlapErrorIsTheFirstDeclared: of several conflicting pairs,
// validation reports the one whose earlier event is declared first, on
// every call.
func TestOverlapErrorIsTheFirstDeclared(t *testing.T) {
	s := faultSpec()
	if err := json.Unmarshal([]byte(overlapsOnTwoNodes), &s.Faults.Events); err != nil {
		t.Fatal(err)
	}
	const want = "scenario: invalid spec: faults.events[0]: overlapping fault windows on target 0 (faults.events[0] [100.000ms,150.000ms] and faults.events[1] [120.000ms,170.000ms])"
	for i := 0; i < 50; i++ {
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: %v\nwant %s", i, err, want)
		}
	}
}

// TestLongTrainOverlapMessage: a 100,000-cycle crash train and one more
// crash that lands in its last cycle are validated by a sweep, not a
// comparison per pair of cycles, and the error names the pair the
// pairwise search names.
func TestLongTrainOverlapMessage(t *testing.T) {
	s := faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: fault.KindServerCrash, ServerCrash: &fault.ServerCrash{Train: fault.Train{At: sim.Second, Period: sim.Second, Outage: 100 * sim.Millisecond, Count: 100000}}},
		{Kind: fault.KindServerCrash, ServerCrash: &fault.ServerCrash{Node: 1, Train: fault.Train{At: sim.Second, Period: sim.Second, Outage: 100 * sim.Millisecond, Count: 100000}}},
		{Kind: fault.KindServerCrash, ServerCrash: &fault.ServerCrash{Train: fault.Train{At: 99999*sim.Second + 950*sim.Millisecond, Outage: 100 * sim.Millisecond, Count: 1}}},
	}
	const want = "scenario: invalid spec: faults.events[0]: overlapping fault windows on target 0 (faults.events[0] [100000.000s,100000.100s] and faults.events[2] [99999.950s,100000.050s])"
	if err := s.Validate(); err == nil || err.Error() != want {
		t.Fatalf("got  %v\nwant %s", err, want)
	}
}

// TestFirstOverlapMatchesPairwise holds the sweep to the search it
// replaced, every pair in declaration order, over random windows on a few
// nodes, spindles (some every-member) and segments, short and empty ones
// included.
func TestFirstOverlapMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pairwise := func(ws []faultWindow) (a, b *faultWindow, ok bool) {
		for i := range ws {
			for j := i + 1; j < len(ws); j++ {
				if meet(&ws[i], &ws[j]) {
					return &ws[i], &ws[j], true
				}
			}
		}
		return nil, nil, false
	}
	for trial := range 20000 {
		ws := make([]faultWindow, 1+rng.IntN(12))
		for i := range ws {
			w := &ws[i]
			w.field = eventField(i)
			w.Target = fault.Target{On: fault.TargetKind(rng.IntN(4)), Index: rng.IntN(2), Disk: rng.IntN(3) - 1}
			if w.Target.On == fault.OnSegment {
				w.Target.Segment = []string{"a", "b"}[rng.IntN(2)]
			}
			w.From = sim.Duration(rng.IntN(200))
			w.To = w.From + sim.Duration(rng.IntN(40)) - 5
		}
		a, b, ok := firstOverlap(ws)
		wa, wb, wok := pairwise(ws)
		if ok != wok || a != wa || b != wb {
			t.Fatalf("trial %d: sweep found %v %v %v, pairwise %v %v %v in %+v", trial, ok, a, b, wok, wa, wb, ws)
		}
	}
}
