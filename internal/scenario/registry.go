package scenario

import (
	"repro/internal/fault"
	"repro/internal/sim"
)

// Entry is one named scenario in the built-in registry.
type Entry struct {
	Name        string
	Description string
	// Build returns a fresh copy of the spec (callers may mutate it).
	Build func() Spec
	// Render is the layout the scenario prints in: the paper's own for
	// its tables and figures (layout.go), nil for (*Result).Render.
	Render func(*Result) string
	// Quick coarsens the spec for `nfsbench -quick`; nil where the flag
	// leaves the scenario alone.
	Quick func(*Spec)
}

// Registry lists the built-in scenarios in presentation order: the
// paper's tables and figures, the post-paper sweeps, and scenarios only
// the declarative API can express.
func Registry() []Entry {
	return []Entry{
		{"table1", "Table 1: 10MB copy, Ethernet, 1 disk (biod sweep, std vs gathering)", table1, renderCopyTable, nil},
		{"table2", "Table 2: 10MB copy, Ethernet, Presto NVRAM", table2, renderCopyTable, nil},
		{"table3", "Table 3: 10MB copy, FDDI", table3, renderCopyTable, nil},
		{"table4", "Table 4: 10MB copy, FDDI, Presto NVRAM", table4, renderCopyTable, nil},
		{"table5", "Table 5: 10MB copy, FDDI, 3 striped drives", table5, renderCopyTable, nil},
		{"table6", "Table 6: 10MB copy, FDDI, Presto, 3 striped drives", table6, renderCopyTable, nil},
		{"figure1", "Figure 1: traffic timeline of a sequential writer, std vs gathering server", figure1, renderTimelines, nil},
		{"figure2", "Figure 2: SPEC SFS 1.0 LADDIS throughput/latency sweep", figure2, renderFigure, quickLoadSweep},
		{"figure3", "Figure 3: LADDIS sweep with Prestoserve", figure3, renderFigure, quickLoadSweep},
		{"scale", "Scale-out grid: 1/2/4 LADDIS clients x 1/2 sharded servers", scale, renderScaleGrid, quickScale},
		{"bridged", "Bridged fabric: Ethernet client segments store-and-forwarded into one FDDI server core, swept over segment count", bridged, nil, nil},
		{"crash", "Crash/recovery durability: acked-write audit across two server crashes (plain and Presto)", crash, renderCrashReport, nil},
		{"partialcrash", "Partial-cluster crash under LADDIS load: one of two shards crashes mid-measure (std vs gathering)", partialCrash, nil, nil},
		{"flapstorm", "Flapping storm: staggered short-outage crash trains on both shards under sharded write streams, durability-checked", flapStorm, nil, nil},
		{"failover", "Shard failover: one of two shards dies mid-stream and the survivor adopts its disks under a stable FSID (plain vs Presto)", failOver, nil, nil},
		{"clientreboot", "Client crash model: one client reboots mid-stream dropping dirty write-behind, another loses biods; acked bytes must all survive", clientReboot, nil, nil},
		{"mediastorm", "Partial storage failure: media read errors, a degraded spindle and an armed torn write across a crash, durability-audited (plain vs Presto)", mediaStorm, nil, nil},
		{"kneecurve", "Open-loop capacity curve: Poisson/Zipf arrivals swept past the knee, achieved-vs-offered with honest shed/queue accounting (std vs gathering)", kneecurve, nil, nil},
		{"bridgedsat", "Bridged saturation: 50 Ethernet segments x 100 clients open-loop over one FDDI core shard, swept over segment count", bridgedSat, nil, nil},
	}
}

// Find returns the named registry entry.
func Find(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Lookup returns the named scenario's spec.
func Lookup(name string) (Spec, bool) {
	e, ok := Find(name)
	if !ok {
		return Spec{}, false
	}
	return e.Build(), true
}

// quickLoadSweep is -quick for Figures 2-3: every other load pair,
// measured for 5 s.
func quickLoadSweep(spec *Spec) {
	var cells []Cell
	for i := 0; i+1 < len(spec.Cells); i += 4 {
		cells = append(cells, spec.Cells[i], spec.Cells[i+1])
	}
	spec.Cells = cells
	spec.Workload.LADDIS.Measure = 5 * sim.Second
}

// quickScale is -quick for the scale grid: every cell, measured for 2 s.
func quickScale(spec *Spec) { spec.Workload.LADDIS.Measure = 2 * sim.Second }

func table1() Spec {
	return CopySweep(Copy("table1", "Table 1. NFS 10MB file copy: Ethernet",
		"ethernet", false, 1, 0, 10, nil), StandardBiods())
}

func table2() Spec {
	return CopySweep(Copy("table2", "Table 2. NFS 10MB file copy: Ethernet, Presto",
		"ethernet", true, 1, 0, 10, nil), StandardBiods())
}

func table3() Spec {
	return CopySweep(Copy("table3", "Table 3. NFS 10MB file copy: FDDI",
		"fddi", false, 1, 1.8, 10, nil), StandardBiods())
}

func table4() Spec {
	return CopySweep(Copy("table4", "Table 4. NFS 10MB file copy: FDDI, Presto",
		"fddi", true, 1, 1.8, 10, nil), StandardBiods())
}

func table5() Spec {
	return CopySweep(Copy("table5", "Table 5. NFS 10MB file copy: FDDI, 3 striped drives",
		"fddi", false, 3, 1.8, 10, nil), StripeBiods())
}

func table6() Spec {
	return CopySweep(Copy("table6", "Table 6. NFS 10MB file copy: FDDI, Presto, 3 striped drives",
		"fddi", true, 3, 1.8, 10, nil), StripeBiods())
}

func figure1() Spec {
	spec := Trace("figure1", "Figure 1. Traffic timeline >100K into a sequential transfer", 256, 4, 99)
	std, wg := false, true
	spec.Cells = []Cell{
		{Label: "std", Gathering: &std},
		{Label: "wg", Gathering: &wg},
	}
	return spec
}

func figure2() Spec {
	return LADDISSweep(
		LADDISRig("figure2", "Figure 2. SPEC SFS 1.0 baseline", false, 4, 16, 32, 8, 8*sim.Second, 4242),
		[]float64{200, 400, 600, 800, 1000, 1200, 1400, 1600})
}

func figure3() Spec {
	return LADDISSweep(
		LADDISRig("figure3", "Figure 3. SPEC SFS 1.0 baseline, Prestoserve", true, 4, 16, 32, 8, 8*sim.Second, 4242),
		[]float64{400, 800, 1200, 1600, 2000, 2400, 2800, 3200})
}

func scale() Spec {
	return ScaleSweep(
		ScaleBase("scale", "Scale-out sweep: LADDIS clients x sharded servers, FDDI",
			false, 250, 8, 16, 2, 24, 8, 4*sim.Second, 9494),
		[]int{1, 2, 4}, []int{1, 2})
}

func bridged() Spec {
	return BridgedSweep(
		Bridged("bridged", "Bridged fabric sweep: LADDIS clients on Ethernet leaf segments behind store-and-forward bridges into one FDDI core shard",
			false, 4, 2, 8, 16, 2, 250, 4*sim.Second, 7777),
		[]int{1, 2, 4})
}

// kneecurve is the capacity-curve scenario the closed-loop sweeps could
// not honestly produce: LADDIS generators block on completions, so past
// saturation they self-throttle and the offered axis silently bends to
// match the achieved one. Open-loop Poisson arrivals over a Zipf-hot
// population keep offering the declared rate; cells past the knee show
// achieved throughput plateauing while queues grow and the backlog
// sheds — with and without write gathering.
func kneecurve() Spec {
	return OpenloadSweep(
		OpenloadRig("kneecurve", "Open-loop capacity curve: Poisson arrivals, Zipf population, offered load swept past the knee",
			false, 4, 32, 8, ArrivalPoisson, PopZipf, MixLADDIS, 4*sim.Second, 5151),
		[]float64{100, 200, 300, 400, 600, 900, 1400})
}

// bridgedSat scales the open-loop subsystem to the paper's big-network
// shape: 50 bridged Ethernet segments of 100 clients each offering a
// fixed aggregate rate into one FDDI core shard. The sweep holds the
// rate constant while fan-in grows, so it separates bridge/fan-in
// effects from server capacity.
func bridgedSat() Spec {
	return BridgedSweep(
		OpenloadBridged("bridgedsat", "Bridged saturation: 50 Ethernet leaf segments x 100 clients each, open-loop over one FDDI core shard",
			50, 100, 16, 2, 1200, 2*sim.Second, 8282),
		[]int{10, 50})
}

func crash() Spec {
	spec := StreamCrash("crash", "Crash/recovery durability, write gathering",
		false, true, 2, 2,
		500*sim.Millisecond, 1500*sim.Millisecond, 400*sim.Millisecond, 2, 777)
	plain, presto := false, true
	spec.Cells = []Cell{
		{Label: "plain", Presto: &plain},
		{Label: "presto", Presto: &presto},
	}
	return spec
}

// failOver is a scenario the crash-train API could not express: export
// ownership stops being static. Shard 2 dies mid-stream and never
// reboots; after the takeover delay shard 1 adopts its disks — NVRAM
// replay, remount, a dedicated server instance on the adopter's CPU —
// under the same FSID, so every handle born on the dead shard stays
// valid and the interrupted streams finish through the adopter. The
// durability checker then reads every acked byte back through the
// migrated export.
func failOver() Spec {
	spec := Spec{
		Name:        "failover",
		Description: "Shard 2 dies mid-stream; shard 1 adopts its disks under a stable FSID",
		Seed:        4747,
		Topology: Topology{
			Net:      "fddi",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 100}},
			Servers:  Servers{Count: 2, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 2, Shard: true}},
		Faults: Faults{
			CheckDurability: true,
			Events: []FaultEvent{{
				Kind: fault.KindShardFailover,
				ShardFailover: &fault.ShardFailover{
					Node: 1, To: 0, At: 400 * sim.Millisecond, Takeover: 250 * sim.Millisecond,
				},
			}},
		},
	}
	plain, presto := false, true
	spec.Cells = []Cell{
		{Label: "plain", Presto: &plain},
		{Label: "presto", Presto: &presto},
	}
	return spec
}

// clientReboot is the client-side half of the fault matrix: client 2
// power-cycles mid-stream — its dirty write-behind and the stream that
// produced it die with the workstation — while client 1 loses half its
// biod pool and grinds on. The checker proves the asymmetry the NFS
// contract draws: every server-acked byte survives (LostBytes 0), while
// the buffered-but-never-acked writes the reboot dropped are permitted
// loss, reported but never counted against the server.
func clientReboot() Spec {
	spec := Spec{
		Name:        "clientreboot",
		Description: "Client 2 reboots mid-stream dropping dirty write-behind; client 1 loses 2 biods",
		Seed:        2929,
		Topology: Topology{
			Net:      "fddi",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 50}},
			Servers:  Servers{Count: 1, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 2}},
		Faults: Faults{
			CheckDurability: true,
			Events: []FaultEvent{
				{
					Kind: fault.KindClientReboot,
					ClientReboot: &fault.ClientReboot{
						Client: 1, At: 300 * sim.Millisecond, Outage: 500 * sim.Millisecond,
					},
				},
				{
					Kind: fault.KindBiodLoss,
					BiodLoss: &fault.BiodLoss{
						Client: 0, At: 200 * sim.Millisecond, Lose: 2,
					},
				},
			},
		},
	}
	plain, presto := false, true
	spec.Cells = []Cell{
		{Label: "plain", Presto: &plain},
		{Label: "presto", Presto: &presto},
	}
	return spec
}

// mediaStorm drives the storage half of the fault matrix against one
// two-spindle shard: a bounded run of media read errors on spindle 0, a
// degraded window on spindle 1, and a torn write armed across a mid-
// stream power cycle. Disks fail partially — not fail-stop — and the
// durability audit must still hold: acked bytes survive the storm, or
// every loss traces to a scheduled fault that declared it permissible.
func mediaStorm() Spec {
	spec := Spec{
		Name:        "mediastorm",
		Description: "Media errors + degraded spindle + torn write across a crash on one striped shard",
		Seed:        6161,
		Topology: Topology{
			Net:      "fddi",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 200}},
			Servers:  Servers{Count: 1, StripeDisks: 2, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 2}},
		Faults: Faults{
			CheckDurability: true,
			Events: []FaultEvent{
				{
					Kind: fault.KindDiskReadError,
					DiskReadError: &fault.DiskReadError{
						Node: 0, Disk: 0, At: 200 * sim.Millisecond, Times: 2,
					},
				},
				{
					Kind: fault.KindDiskDegraded,
					DiskDegraded: &fault.DiskDegraded{
						Node: 0, Disk: 1, At: 300 * sim.Millisecond,
						Duration: 250 * sim.Millisecond, Factor: 6,
					},
				},
				{
					Kind: fault.KindDiskTornWrite,
					DiskTornWrite: &fault.DiskTornWrite{
						Node: 0, Disk: -1, At: 100 * sim.Millisecond,
					},
				},
				{
					Kind: fault.KindServerCrash,
					ServerCrash: &fault.ServerCrash{
						Node: 0, Train: fault.Train{At: 600 * sim.Millisecond,
							Outage: 150 * sim.Millisecond, Count: 1},
					},
				},
			},
		},
	}
	plain, presto := false, true
	spec.Cells = []Cell{
		{Label: "plain", Presto: &plain},
		{Label: "presto", Presto: &presto},
	}
	return spec
}

// partialCrash combines what scale and crash keep apart: a fault
// schedule under LADDIS load. One of two shards crashes mid-measure; the
// sweep compares how the standard and gathering builds absorb the outage
// (latency cliff, retransmissions, reboot detections).
func partialCrash() Spec {
	spec := ScaleBase("partialcrash",
		"Partial-cluster crash under LADDIS load (2 clients x 2 shards, shard 2 crashes mid-measure)",
		false, 250, 8, 16, 2, 24, 8, 6*sim.Second, 9595)
	spec.Topology.Clients[0].MaxRetries = 64
	spec.Faults = Faults{Events: []FaultEvent{
		serverCrash(1, 22*sim.Second, 0, 1*sim.Second, 1),
	}}
	two := 2
	std, wg := false, true
	spec.Cells = []Cell{
		{Label: "std-crash", Clients: &two, Servers: &two, Gathering: &std},
		{Label: "wg-crash", Clients: &two, Servers: &two, Gathering: &wg},
	}
	return spec
}

// flapStorm goes past crash's single train against node 0: both shards
// flap on staggered short-outage trains while every client streams to
// its own shard, and the durability checker audits every acked write
// across all eight crashes.
func flapStorm() Spec {
	spec := Spec{
		Name:        "flapstorm",
		Description: "Staggered flapping outages on both shards under sharded write streams",
		Seed:        1331,
		Topology: Topology{
			Net:      "fddi",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 2, Biods: 4, MaxRetries: 100}},
			Servers:  Servers{Count: 2, Gathering: true},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: 2, Shard: true}},
		Faults: Faults{
			CheckDurability: true,
			Events: []FaultEvent{
				serverCrash(0, 400*sim.Millisecond, 900*sim.Millisecond, 150*sim.Millisecond, 4),
				serverCrash(1, 850*sim.Millisecond, 900*sim.Millisecond, 150*sim.Millisecond, 4),
			},
		},
	}
	plain, presto := false, true
	spec.Cells = []Cell{
		{Label: "plain", Presto: &plain},
		{Label: "presto", Presto: &presto},
	}
	return spec
}
