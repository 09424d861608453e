package scenario

import (
	"cmp"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// shrink trims a registry spec to a test-sized version: at most the
// first and last cells, small transfers, short measured phases. The
// sweep structure, seeds and fault schedules are preserved.
func shrink(spec Spec) Spec {
	if len(spec.Cells) > 2 {
		spec.Cells = []Cell{spec.Cells[0], spec.Cells[len(spec.Cells)-1]}
	}
	if spec.Workload.Copy != nil {
		c := *spec.Workload.Copy
		c.FileMB = 1
		spec.Workload.Copy = &c
	}
	if spec.Workload.Stream != nil {
		c := *spec.Workload.Stream
		c.FileMB = 1
		spec.Workload.Stream = &c
	}
	if spec.Workload.LADDIS != nil {
		c := *spec.Workload.LADDIS
		c.Measure = 1 * sim.Second
		spec.Workload.LADDIS = &c
	}
	if spec.Workload.Trace != nil {
		c := *spec.Workload.Trace
		c.FileKB = 160
		spec.Workload.Trace = &c
	}
	if spec.Workload.Openload != nil {
		c := *spec.Workload.Openload
		c.Measure = 1 * sim.Second
		if c.TargetOps > 400 {
			c.TargetOps = 400
		}
		spec.Workload.Openload = &c
		// bridgedsat declares 100 clients per leaf segment; the sweep
		// structure (segment trimming, placement, seeds) survives with 2.
		for i := range spec.Topology.Clients {
			if spec.Topology.Clients[i].Count > 2 {
				spec.Topology.Clients[i].Count = 2
			}
		}
	}
	return spec
}

// TestRegistryScenariosRerunDeterministically decodes every registered
// scenario from its JSON form and runs it twice: same seed, same metric
// columns. This is the determinism contract -scenario files rely on.
func TestRegistryScenariosRerunDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered scenario twice")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			blob, err := json.Marshal(shrink(e.Build()))
			if err != nil {
				t.Fatal(err)
			}
			var spec Spec
			if err := json.Unmarshal(blob, &spec); err != nil {
				t.Fatal(err)
			}
			a, err := Run(spec)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(spec)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if len(a.Cells) != len(b.Cells) || len(a.Cells) == 0 {
				t.Fatalf("cell counts differ or empty: %d vs %d", len(a.Cells), len(b.Cells))
			}
			for i := range a.Cells {
				if !reflect.DeepEqual(a.Cells[i].Metrics, b.Cells[i].Metrics) {
					t.Errorf("cell %s: metrics differ between identical runs:\n%+v\n%+v",
						a.Cells[i].Label, a.Cells[i].Metrics, b.Cells[i].Metrics)
				}
				// Every audited cell of the registry ends with each block
				// reference in a holder AccountedRefs names — dup-cache
				// reply bodies and client READ scratch included.
				if d := a.Cells[i].Durability; d != nil && d.UnaccountedRefs != 0 {
					t.Errorf("cell %s: %d unaccounted block refs", a.Cells[i].Label, d.UnaccountedRefs)
				}
			}
		})
	}
}

// TestPartialCrashScenario runs the crash-under-load sweep: a 2x2 LADDIS
// grid where one shard crashes mid-measure. The cluster must keep serving (ops complete on the
// surviving shard), clients must observe the outage, and the crashed
// shard must come back.
func TestPartialCrashScenario(t *testing.T) {
	spec, ok := Lookup("partialcrash")
	if !ok {
		t.Fatal("partialcrash not registered")
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Crashes != 1 {
			t.Errorf("%s: crashes = %d, want 1", c.Label, c.Crashes)
		}
		if c.Durability == nil || c.Durability.Reboots != 1 {
			t.Errorf("%s: crashed shard did not reboot: %+v", c.Label, c.Durability)
		}
		if c.AchievedOpsPerSec <= 0 {
			t.Errorf("%s: no throughput under partial outage", c.Label)
		}
		if c.Retransmissions == 0 {
			t.Errorf("%s: outage left no client-side trace (0 retransmissions)", c.Label)
		}
		if c.RebootsSeen == 0 {
			t.Errorf("%s: no client detected the reboot", c.Label)
		}
	}
}

// TestFlapStormScenario runs the multi-node flapping storm: staggered
// short-outage crash trains on both shards under sharded write streams.
// Every client-acked byte must survive all eight crashes — on both the
// plain and the Presto build.
func TestFlapStormScenario(t *testing.T) {
	spec, ok := Lookup("flapstorm")
	if !ok {
		t.Fatal("flapstorm not registered")
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
		if d.Crashes < 4 {
			t.Errorf("%s: only %d crashes fired; storm wants >= 4", c.Label, d.Crashes)
		}
		if d.Reboots != d.Crashes {
			t.Errorf("%s: %d crashes but %d reboots", c.Label, d.Crashes, d.Reboots)
		}
		if d.AckedBytes == 0 {
			t.Errorf("%s: checker audited nothing", c.Label)
		}
		if d.LostBytes != 0 {
			t.Errorf("%s: DURABILITY VIOLATED: lost %d bytes: %s", c.Label, d.LostBytes, d.FirstLoss)
		}
	}
	plain, presto := res.Cells[0], res.Cells[1]
	if presto.Durability.RecoveredNVRAMBlocks == 0 {
		t.Error("presto cell replayed no NVRAM blocks")
	}
	if plain.Durability.RecoveredNVRAMBlocks != 0 {
		t.Error("plain cell replayed NVRAM blocks without a board")
	}
}

// TestPerNodeOverrides builds a heterogeneous cluster through the spec:
// shard 1 plain with one disk, shard 2 Presto with a 2-disk stripe and a
// deeper daemon pool, crashed once mid-stream. The override must hold
// across the reboot (only shard 2 replays NVRAM).
func TestPerNodeOverrides(t *testing.T) {
	res, err := Run(heteroSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	d := c.Durability
	if d == nil || d.Crashes != 1 || d.Reboots != 1 {
		t.Fatalf("crash cycle did not complete: %+v", d)
	}
	if d.LostBytes != 0 {
		t.Fatalf("lost %d acked bytes on the heterogeneous cluster: %s", d.LostBytes, d.FirstLoss)
	}
	if d.RecoveredNVRAMBlocks == 0 {
		t.Error("the Presto override did not survive into recovery (no NVRAM replay)")
	}
}

// heteroSpec is TestPerNodeOverrides' topology.
func heteroSpec() Spec {
	presto := true
	stripe := 2
	nfsds := 16
	return Spec{
		Name: "hetero",
		Seed: 11,
		Topology: Topology{
			Net:     "fddi",
			Clients: []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 64}},
			Servers: Servers{
				Count: 2, Gathering: true,
				Nodes: []NodeOverride{
					{}, // shard 1: homogeneous defaults
					{Presto: &presto, StripeDisks: &stripe, Nfsds: &nfsds},
				},
			},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1, Shard: true}},
		Faults: Faults{
			CheckDurability: true,
			Events:          []FaultEvent{serverCrash(1, 300*sim.Millisecond, 0, 200*sim.Millisecond, 1)},
		},
	}
}

// TestShardSettingsMatchTheBuild: the per-node settings a spec's fault
// validation checks its targets against (the resolved config's Shard) are
// what cluster.New builds each node with: its stripe members, its NVRAM
// board, its nfsds, its inode table and its segment. It covers
// TestPerNodeOverrides' topology and every registry spec with node
// overrides.
func TestShardSettingsMatchTheBuild(t *testing.T) {
	specs := []Spec{heteroSpec()}
	for _, e := range Registry() {
		if spec := e.Build(); len(spec.Topology.Servers.Nodes) > 0 {
			specs = append(specs, spec)
		}
	}
	for _, spec := range specs {
		for _, rc := range resolveAll(t, spec) {
			c := cluster.New(rc.cfg)
			for i, n := range c.Nodes {
				want := rc.cfg.Shard(i)
				want.Segment = cmp.Or(want.Segment, c.Fabric.Root())
				got := cluster.Shard{Presto: n.Presto != nil, StripeDisks: len(n.Disks),
					Nfsds: len(n.Server.Procs()), Inodes: n.Shard.Inodes, Segment: c.Fabric.SegmentOf(n.Name)}
				if got != want {
					t.Errorf("%s %s node %d: built %+v, validation sees %+v", spec.Name, rc.label, i, got, want)
				}
			}
			c.Sim.Close()
		}
	}
}

// TestClientGroups runs two client groups with different biod depths
// against one server and checks both make progress.
func TestClientGroups(t *testing.T) {
	spec := Spec{
		Name: "groups",
		Seed: 7,
		Topology: Topology{
			Net: "fddi",
			Clients: []ClientGroup{
				{Count: 1, Biods: 0},
				{Count: 2, Biods: 7},
			},
			Servers: Servers{Count: 1, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 1}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.ClientKBps <= 0 {
		t.Fatalf("three grouped clients moved no data: %+v", c.Metrics)
	}
	// 3 clients x 1MB over the measured phase.
	wantKB := 3.0 * 1024
	if got := c.ClientKBps * c.ElapsedSec; got < wantKB*0.99 || got > wantKB*1.01 {
		t.Errorf("stream volume = %.0f KB, want ~%.0f", got, wantKB)
	}
}

// TestRenderSelectsMetrics checks the metric selection drives rendering.
func TestRenderSelectsMetrics(t *testing.T) {
	spec := validSpec()
	spec.Metrics = []string{"client_kb_per_sec", "disk_trans_per_sec"}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range spec.Metrics {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing selected column %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "avg_latency_ms") {
		t.Errorf("rendered result leaked an unselected column:\n%s", out)
	}
}

// TestRunsReleaseTheirSims guards the cell runners' deferred Sim.Close:
// sweeps, -run all and -fuzz N run many cells in one OS process, and a
// finished cell must leave nothing behind — no suspended coroutine, and
// none of the platters, caches and buffers its processes referenced. Both
// assemblies, with a crash on the cluster side.
func TestRunsReleaseTheirSims(t *testing.T) {
	crash, ok := Lookup("crash")
	if !ok {
		t.Fatal("crash not registered")
	}
	rig := laddisSweepSpec(t)
	rig.Cells = rig.Cells[:1]
	measure := func() (goroutines int, heap uint64) {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return runtime.NumGoroutine(), m.HeapAlloc
	}
	round := func() {
		for _, spec := range []Spec{crash, rig} {
			if _, err := RunWorkers(spec, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // pools, lazily built tables
	g0, h0 := measure()
	for i := 0; i < 20; i++ {
		round()
	}
	g1, h1 := measure()
	if g1 != g0 {
		t.Errorf("NumGoroutine %d -> %d over 20 rounds", g0, g1)
	}
	// One round of the channel kernel retained about 24 MB.
	if h1 > h0+1<<20 {
		t.Errorf("HeapAlloc %d -> %d over 20 rounds: finished runs stay reachable", h0, h1)
	}
}
