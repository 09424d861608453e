package scenario

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// Validation coverage for the four storage fault kinds: every rejection
// must be a typed *ValidationError naming the offending event.

func TestValidateStorageFaultTargets(t *testing.T) {
	// Unknown node.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:          fault.KindDiskReadError,
		DiskReadError: &fault.DiskReadError{Node: 7, At: sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Unknown spindle: the default topology runs one disk per shard.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:          fault.KindDiskReadError,
		DiskReadError: &fault.DiskReadError{Node: 0, Disk: 3, At: sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Disk -1 (all stripe members) is a valid target.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:          fault.KindDiskReadError,
		DiskReadError: &fault.DiskReadError{Node: 0, Disk: -1, At: sim.Second},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("disk -1 rejected: %v", err)
	}
}

func TestValidateDiskReadErrorParameters(t *testing.T) {
	// Empty block range.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:          fault.KindDiskReadError,
		DiskReadError: &fault.DiskReadError{Node: 0, At: sim.Second, BlockFrom: 10, BlockTo: 5},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Media errors outside the stream workload: the copy runner has no
	// error path for I/O-error replies.
	s = faultSpec()
	s.Topology.Clients = []ClientGroup{{Count: 1, Biods: 4}}
	s.Workload = Workload{Kind: KindCopy, Copy: &CopyWorkload{FileMB: 1}}
	s.Faults.Events = []FaultEvent{{
		Kind:          fault.KindDiskReadError,
		DiskReadError: &fault.DiskReadError{Node: 0, At: sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")
}

func TestValidateDiskDegradedWindows(t *testing.T) {
	// Factor must exceed 1.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:         fault.KindDiskDegraded,
		DiskDegraded: &fault.DiskDegraded{Node: 0, At: sim.Second, Duration: sim.Second, Factor: 1},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// Overlapping windows on the same spindle.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: fault.KindDiskDegraded, DiskDegraded: &fault.DiskDegraded{
			Node: 0, At: sim.Second, Duration: sim.Second, Factor: 4}},
		{Kind: fault.KindDiskDegraded, DiskDegraded: &fault.DiskDegraded{
			Node: 0, At: sim.Second + 500*sim.Millisecond, Duration: sim.Second, Factor: 8}},
	}
	wantInvalid(t, s, "faults.events[0]")

	// The same two windows on different shards coexist.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{
		{Kind: fault.KindDiskDegraded, DiskDegraded: &fault.DiskDegraded{
			Node: 0, At: sim.Second, Duration: sim.Second, Factor: 4}},
		{Kind: fault.KindDiskDegraded, DiskDegraded: &fault.DiskDegraded{
			Node: 1, At: sim.Second + 500*sim.Millisecond, Duration: sim.Second, Factor: 8}},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("non-overlapping windows rejected: %v", err)
	}
}

func TestValidateNVRAMLyingSyncRequiresPresto(t *testing.T) {
	// faultSpec runs no boards: a lying-sync fault has nothing to corrupt.
	s := faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:           fault.KindNVRAMLyingSync,
		NVRAMLyingSync: &fault.NVRAMLyingSync{Node: 0, At: sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")

	// With Presto on, the same event validates.
	s = faultSpec()
	s.Topology.Servers.Presto = true
	s.Faults.Events = []FaultEvent{{
		Kind:           fault.KindNVRAMLyingSync,
		NVRAMLyingSync: &fault.NVRAMLyingSync{Node: 0, At: sim.Second},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("lying-sync on a presto shard rejected: %v", err)
	}

	// Torn-write arm time must not be negative.
	s = faultSpec()
	s.Faults.Events = []FaultEvent{{
		Kind:          fault.KindDiskTornWrite,
		DiskTornWrite: &fault.DiskTornWrite{Node: 0, At: -sim.Second},
	}}
	wantInvalid(t, s, "faults.events[0]")
}

// lyingSpec is a one-shard Presto stream with a crash mid-stream; with
// the lying event included the board's acked-but-undrained blocks
// evaporate at the power event instead of replaying.
func lyingSpec(lying bool) Spec {
	s := Spec{
		Name: "t-lying",
		Seed: 7,
		Topology: Topology{
			Net:      "ethernet",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 1, Biods: 4, MaxRetries: 200}},
			Servers:  Servers{Count: 1, Presto: true, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 2}},
		Faults: Faults{
			CheckDurability: true,
			Events: []FaultEvent{{
				Kind: fault.KindServerCrash,
				ServerCrash: &fault.ServerCrash{
					Node: 0, Train: fault.Train{At: 300 * sim.Millisecond,
						Outage: 100 * sim.Millisecond, Count: 1},
				},
			}},
		},
	}
	if lying {
		s.Faults.Events = append(s.Faults.Events, FaultEvent{
			Kind:           fault.KindNVRAMLyingSync,
			NVRAMLyingSync: &fault.NVRAMLyingSync{Node: 0, At: 100 * sim.Millisecond},
		})
	}
	return s
}

// TestLyingSyncLosesAckedData is the falsifiability test for the whole
// durability audit: a lying board provably loses client-acked bytes and
// the checker reports it (as expected loss, since the fault was
// scheduled); the identical run with an honest board loses nothing.
func TestLyingSyncLosesAckedData(t *testing.T) {
	res, err := Run(lyingSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Cells[0].Durability
	if d == nil {
		t.Fatal("no durability audit")
	}
	if d.DroppedNVRAMBlocks == 0 {
		t.Fatal("the lying board dropped nothing at the power event")
	}
	if d.LostBytes == 0 {
		t.Fatal("lying board lost no acked bytes; the scenario does not falsify the audit")
	}
	if !d.LossExpected {
		t.Fatalf("scheduled lying-sync loss reported as a durability bug: %s", d.FirstLoss)
	}

	// Control: the honest board replays the same blocks and loses nothing.
	res, err = Run(lyingSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	d = res.Cells[0].Durability
	if d.LostBytes != 0 {
		t.Fatalf("honest board lost %d acked bytes: %s", d.LostBytes, d.FirstLoss)
	}
	if d.DroppedNVRAMBlocks != 0 {
		t.Fatalf("honest board dropped %d blocks", d.DroppedNVRAMBlocks)
	}
	if d.RecoveredNVRAMBlocks == 0 {
		t.Fatal("honest control replayed no NVRAM blocks; the crash hit an empty board and the lying run proved nothing")
	}
}

// TestMediaStormScenario runs the storage-fault registry scenario: media
// errors, a degraded spindle and a torn write across a crash on one
// striped shard. The acceptance contract is the fuzzer's own invariant —
// any acked-byte loss must trace to a scheduled fault.
func TestMediaStormScenario(t *testing.T) {
	spec, ok := Lookup("mediastorm")
	if !ok {
		t.Fatal("mediastorm not registered")
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
		if d.LostBytes > 0 && !d.LossExpected {
			t.Errorf("%s: DURABILITY VIOLATED: lost %d unscheduled bytes: %s",
				c.Label, d.LostBytes, d.FirstLoss)
		}
		if d.UnaccountedRefs != 0 {
			t.Errorf("%s: %d block refs leaked through the storm", c.Label, d.UnaccountedRefs)
		}
		if d.Crashes != 1 {
			t.Errorf("%s: crashes = %d, want 1", c.Label, d.Crashes)
		}
		if len(d.EventsFired) < 4 {
			t.Errorf("%s: only %d fault transitions recorded, want the full storm", c.Label, len(d.EventsFired))
		}
		if d.AckedWrites == 0 {
			t.Errorf("%s: checker audited nothing", c.Label)
		}
	}
}

// TestFuzzDeterministic runs the same short campaign twice: identical
// outcome, byte for byte — the replay contract behind "report (seed, run)
// and the failure reproduces".
func TestFuzzDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign in -short mode")
	}
	cfg := FuzzConfig{Runs: 4, Seed: 99}
	reachA, a := Fuzz(cfg)
	reachB, b := Fuzz(cfg)
	if reachA.String() != reachB.String() {
		t.Fatalf("same campaign, different reach tables:\n%s\nvs\n%s", reachA, reachB)
	}
	switch {
	case a == nil && b == nil:
		// Campaign passes — still a determinism result.
	case a == nil || b == nil:
		t.Fatalf("one campaign failed, the other passed: %v vs %v", a, b)
	case a.String() != b.String():
		t.Fatalf("same campaign, different failures:\n%s\nvs\n%s", a, b)
	}
}

// TestReachReadsTheCellCounters: a run reaches a regime when any of its
// cells carries that regime's counter above zero, and a run counts once
// however many of its cells reached it.
func TestReachReadsTheCellCounters(t *testing.T) {
	res := &Result{Cells: []CellResult{
		{socketDrops: 3, hunterHits: 1},
		{Metrics: Metrics{Retransmissions: 2, Crashes: 1, ShedArrivals: 5},
			Durability: &Durability{LinkOutages: 1, DroppedNVRAMBlocks: 4}},
		{adoptions: 1, Durability: &Durability{}},
		// The paper boot's own report is not what the table reads.
		{Drops: 1, Gather: core.Stats{HunterHits: 1, Adoptions: 1}},
	}}
	wantReached(t, res, "socket drop", "hunter hit", "orphan adoption (§6.9)", "retransmission", "crash",
		"open-loop shed", "link outage", "dropped NVRAM block")
}

// TestClusterCellsReachDropsAndHunts: a cluster-assembly cell, whose JSON
// carries no drops or gather counters, still registers the socket drops
// and hunter hits its server had. One nfsd under 8 clients of 8 biods
// overflows the socket buffer and leaves WRITEs queued for the hunter.
func TestClusterCellsReachDropsAndHunts(t *testing.T) {
	spec := Spec{
		Name: "drops", Seed: 5,
		Topology: Topology{Net: "fddi",
			Clients:  []ClientGroup{{Count: 8, Biods: 8}},
			Servers:  Servers{Count: 1, Nfsds: 1, Gathering: true},
			Assembly: AssemblyCluster},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}},
	}
	res, err := RunWorkers(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Cells[0]; c.Drops != 0 || c.Gather != (core.Stats{}) {
		t.Fatalf("cluster cell reports drops %d and gather %+v, which its recorded JSON never carried", c.Drops, c.Gather)
	}
	wantReached(t, res, "socket drop", "hunter hit", "retransmission")
}

// wantReached asserts that res reaches exactly the named regimes.
func wantReached(t *testing.T, res *Result, names ...string) {
	t.Helper()
	bits := reachedBy(res)
	for k, g := range regimes {
		if got, want := bits>>k&1 == 1, slices.Contains(names, g.name); got != want {
			t.Errorf("regime %q reached = %v, want %v", g.name, got, want)
		}
	}
}

// TestFuzzSmoke asserts a short fixed-seed campaign upholds both
// invariants on the current engine.
func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign in -short mode")
	}
	if _, f := Fuzz(FuzzConfig{Runs: 8, Seed: 1}); f != nil {
		t.Fatalf("fuzz campaign found a failure:\n%s", f)
	}
}

// TestFuzzCatchesPlantedBug re-plants the crash-recovery bug this repo
// fixed in an earlier change (remount skips re-claiming indirect-block
// self-references, so recovered files double-allocate) and requires the
// fuzzer to (a) find it and (b) shrink the counterexample to at most
// three fault events — the end-to-end proof that the campaign detects
// durability regressions rather than merely running.
func TestFuzzCatchesPlantedBug(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign in -short mode")
	}
	ufs.DebugSkipIndirectClaim = true
	defer func() { ufs.DebugSkipIndirectClaim = false }()

	// The campaign seed is pinned to one whose 200-run prefix includes a
	// crash/remount schedule with indirect-block traffic (run 107): the
	// planted bug needs a recovery plus post-remount allocation to
	// clobber acked data, which only a fraction of generated specs do.
	_, f := Fuzz(FuzzConfig{Runs: 200, Seed: 6})
	if f == nil {
		t.Fatal("fuzzer missed the planted remount bug")
	}
	if f.Class != FailDurability {
		t.Fatalf("planted bug classified %q, want %q: %s", f.Class, FailDurability, f.Detail)
	}
	if n := len(f.Shrunk.Faults.Events); n > 3 {
		t.Fatalf("shrinker left %d fault events (want <= 3):\n%s", n, f.JSON())
	}
	if err := f.Shrunk.Validate(); err != nil {
		t.Fatalf("shrunk spec does not validate: %v", err)
	}
}
