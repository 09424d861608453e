package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The builders below construct the canonical spec shapes the paper's
// experiments use. The registry and bench/'s workloads both go through
// them, so the seed formulas and sweep orders behind the golden
// transcript and the sim_digests are defined in exactly one place.

// StandardBiods is the biod sweep of Tables 1-4.
func StandardBiods() []int { return []int{0, 3, 7, 11, 15} }

// StripeBiods is the extended sweep of Tables 5-6.
func StripeBiods() []int { return []int{0, 3, 7, 11, 15, 19, 23} }

func buildTag(gathering bool) string {
	if gathering {
		return "wg"
	}
	return "std"
}

// Copy builds the base spec of a Tables 1-6 configuration: one client
// copying a file to one 8-nfsd server. Cells select biod counts and
// server builds (CopyCell).
func Copy(name, description, net string, presto bool, stripeDisks int, cpuScale float64, fileMB int, gatherOverride *core.Config) Spec {
	return Spec{
		Name:        name,
		Description: description,
		Topology: Topology{
			Net:      net,
			CPUScale: cpuScale,
			Clients:  []ClientGroup{{Count: 1}},
			Servers: Servers{
				Count: 1, Nfsds: 8, StripeDisks: stripeDisks,
				Presto: presto, GatherOverride: gatherOverride,
			},
		},
		Workload: Workload{Kind: KindCopy, Copy: &CopyWorkload{FileMB: fileMB}},
	}
}

// CopyCell is one copy-table cell. The seed formula is the recorded one:
// every (biods, build) pair reruns the same simulation the published
// table cells came from.
func CopyCell(biods int, gathering bool) Cell {
	seed := int64(biods)*131 + 17
	return Cell{
		Label: fmt.Sprintf("%s-b%d", buildTag(gathering), biods),
		Seed:  &seed, Biods: &biods, Gathering: &gathering,
	}
}

// CopySweep appends the full table sweep to a Copy base: every biod
// count without gathering, then every biod count with it (the recorded
// run order).
func CopySweep(spec Spec, biods []int) Spec {
	for _, b := range biods {
		spec.Cells = append(spec.Cells, CopyCell(b, false))
	}
	for _, b := range biods {
		spec.Cells = append(spec.Cells, CopyCell(b, true))
	}
	return spec
}

// LADDISRig builds the base spec of a Figures 2-3 sweep: multi-client
// LADDIS against one FDDI server on the rig assembly. Cells select
// offered loads and server builds (LADDISCell).
func LADDISRig(name, description string, presto bool, clients, procs, nfsds, disks int, measure sim.Duration, seed int64) Spec {
	return Spec{
		Name:        name,
		Description: description,
		Seed:        seed,
		Topology: Topology{
			Net:      "fddi",
			CPUScale: 1.8,
			Clients:  []ClientGroup{{Count: clients}}, // LADDIS load processes issue synchronous ops
			Servers: Servers{
				Count: 1, Nfsds: nfsds, StripeDisks: disks, Presto: presto, Inodes: 2048,
			},
		},
		Workload: Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{
			Files: 32, FileBlocks: 8, Procs: procs, Measure: measure, Seed: seed,
		}},
	}
}

// LADDISCell is one offered-load point; the cell seed is the recorded
// seedBase+offered formula.
func LADDISCell(seedBase int64, offered float64, gathering bool) Cell {
	seed := seedBase + int64(offered)
	return Cell{
		Label: fmt.Sprintf("%s-%.0f", buildTag(gathering), offered),
		Seed:  &seed, OfferedOpsPerSec: &offered, Gathering: &gathering,
	}
}

// LADDISSweep appends the figure sweep to a LADDISRig base: for each
// load, the standard build then the gathering build (the recorded order).
func LADDISSweep(spec Spec, loads []float64) Spec {
	for _, load := range loads {
		spec.Cells = append(spec.Cells,
			LADDISCell(spec.Seed, load, false),
			LADDISCell(spec.Seed, load, true))
	}
	return spec
}

// Trace builds the Figure 1 timeline spec: one 4-biod client streaming a
// file to an 8-nfsd FDDI server, with the traffic trace rendered for a
// window opening >100K into the transfer.
func Trace(name, description string, fileKB, biods int, seed int64) Spec {
	return Spec{
		Name:        name,
		Description: description,
		Seed:        seed,
		Topology: Topology{
			Net:      "fddi",
			CPUScale: 1.8,
			Clients:  []ClientGroup{{Count: 1, Biods: biods}},
			Servers:  Servers{Count: 1, Nfsds: 8},
		},
		Workload: Workload{Kind: KindTrace, Trace: &TraceWorkload{FileKB: fileKB}},
	}
}

// ScaleBase builds the base spec of a clients × servers LADDIS grid on
// the cluster assembly, holding per-client offered load constant. Cells
// pick grid coordinates and server builds (ScaleCell).
func ScaleBase(name, description string, presto bool, offeredPerClient float64, procs, nfsds, disks, files, fileBlocks int, measure sim.Duration, seed int64) Spec {
	return Spec{
		Name:        name,
		Description: description,
		Seed:        seed,
		Topology: Topology{
			Net:      "fddi",
			CPUScale: 1.8,
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: 1}},
			Servers: Servers{
				Count: 1, Nfsds: nfsds, StripeDisks: disks, Presto: presto, Inodes: 2048,
			},
		},
		Workload: Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{
			Files: files, FileBlocks: fileBlocks, Procs: procs,
			OfferedOpsPerSec: offeredPerClient, OfferedIsPerClient: true,
			Measure: measure, Seed: seed,
		}},
	}
}

// ScaleCell is one grid cell; the seed formula is the recorded
// seedBase + 100·clients + 10·servers.
func ScaleCell(seedBase int64, nclients, nservers int, gathering bool) Cell {
	seed := seedBase + int64(nclients*100+nservers*10)
	return Cell{
		Label: fmt.Sprintf("c%ds%d-%s", nclients, nservers, buildTag(gathering)),
		Seed:  &seed, Clients: &nclients, Servers: &nservers, Gathering: &gathering,
	}
}

// ScaleSweep appends the full grid to a ScaleBase: cell-major, standard
// build before gathering (the recorded order).
func ScaleSweep(spec Spec, clientCounts, serverCounts []int) Spec {
	for _, nc := range clientCounts {
		for _, ns := range serverCounts {
			spec.Cells = append(spec.Cells,
				ScaleCell(spec.Seed, nc, ns, false),
				ScaleCell(spec.Seed, nc, ns, true))
		}
	}
	return spec
}

// Bridged builds the base spec of a multi-segment LADDIS sweep on the
// cluster assembly: one FDDI core segment carrying the server shard, and
// maxSegments Ethernet leaf segments ("lan1".."lanN") each bridged into
// the core and each carrying its own client group. Cells trim the leaf
// count (BridgedCell), so one spec sweeps topology scale from a single
// LAN to the full fan-in.
func Bridged(name, description string, presto bool, maxSegments, clientsPerSegment, procs, nfsds, disks int, offeredPerClient float64, measure sim.Duration, seed int64) Spec {
	media := []Medium{{Name: "core", Net: "fddi"}}
	var groups []ClientGroup
	for i := 1; i <= maxSegments; i++ {
		lan := fmt.Sprintf("lan%d", i)
		media = append(media, Medium{Name: lan, Net: "ethernet", Uplink: "core"})
		groups = append(groups, ClientGroup{Count: clientsPerSegment, Segment: lan})
	}
	return Spec{
		Name:        name,
		Description: description,
		Seed:        seed,
		Topology: Topology{
			Media:    media,
			CPUScale: 1.8,
			Assembly: AssemblyCluster,
			Clients:  groups,
			Servers: Servers{
				Count: 1, Nfsds: nfsds, StripeDisks: disks, Presto: presto, Inodes: 2048,
			},
		},
		Workload: Workload{Kind: KindLADDIS, LADDIS: &LADDISWorkload{
			Files: 24, FileBlocks: 8, Procs: procs,
			OfferedOpsPerSec: offeredPerClient, OfferedIsPerClient: true,
			Measure: measure, Seed: seed,
		}},
	}
}

// BridgedCell is one segment-count point; the seed formula is the
// recorded seedBase + 1000·segments.
func BridgedCell(seedBase int64, segments int, gathering bool) Cell {
	seed := seedBase + int64(segments*1000)
	return Cell{
		Label: fmt.Sprintf("seg%d-%s", segments, buildTag(gathering)),
		Seed:  &seed, Segments: &segments, Gathering: &gathering,
	}
}

// BridgedSweep appends the segment-count sweep to a Bridged base: for
// each leaf count, the standard build then the gathering build (the
// recorded order).
func BridgedSweep(spec Spec, segmentCounts []int) Spec {
	for _, n := range segmentCounts {
		spec.Cells = append(spec.Cells,
			BridgedCell(spec.Seed, n, false),
			BridgedCell(spec.Seed, n, true))
	}
	return spec
}

// OpenloadRig builds the base spec of an open-loop capacity sweep:
// multi-client arrivals at a spec-fixed aggregate rate against one FDDI
// server on the rig assembly. Cells pick offered loads and server builds
// (OpenloadCell); unlike the LADDIS sweeps the offered rate is honored
// regardless of completions, so cells past the knee measure the overload
// regime instead of silently self-throttling.
func OpenloadRig(name, description string, presto bool, clients, nfsds, disks int, arrival, population, mix string, measure sim.Duration, seed int64) Spec {
	return Spec{
		Name:        name,
		Description: description,
		Seed:        seed,
		Topology: Topology{
			Net:      "fddi",
			CPUScale: 1.8,
			Clients:  []ClientGroup{{Count: clients}},
			Servers: Servers{
				Count: 1, Nfsds: nfsds, StripeDisks: disks, Presto: presto, Inodes: 2048,
			},
		},
		Workload: Workload{Kind: KindOpenload, Openload: &OpenloadWorkload{
			Arrival: arrival, Population: population, Mix: mix,
			Files: 32, FileBlocks: 8, Measure: measure, Seed: seed,
		}},
	}
}

// OpenloadCell is one offered-load point; the seed formula mirrors the
// LADDIS sweep's recorded seedBase+offered.
func OpenloadCell(seedBase int64, offered float64, gathering bool) Cell {
	seed := seedBase + int64(offered)
	return Cell{
		Label: fmt.Sprintf("%s-%.0f", buildTag(gathering), offered),
		Seed:  &seed, OfferedLoad: &offered, Gathering: &gathering,
	}
}

// OpenloadSweep appends the capacity sweep to an OpenloadRig base: for
// each load, the standard build then the gathering build (the LADDIS
// sweeps' order).
func OpenloadSweep(spec Spec, loads []float64) Spec {
	for _, load := range loads {
		spec.Cells = append(spec.Cells,
			OpenloadCell(spec.Seed, load, false),
			OpenloadCell(spec.Seed, load, true))
	}
	return spec
}

// OpenloadBridged builds the bridged-saturation base: maxSegments
// Ethernet leaf segments ("lan1".."lanN") of clientsPerSegment clients
// each, bridged into one FDDI core carrying the server shard, with the
// whole population offering targetOps aggregate ops/s open-loop. Cells
// trim the leaf count (BridgedCell), holding the aggregate rate constant
// as fan-in grows.
func OpenloadBridged(name, description string, maxSegments, clientsPerSegment, nfsds, disks int, targetOps float64, measure sim.Duration, seed int64) Spec {
	media := []Medium{{Name: "core", Net: "fddi"}}
	var groups []ClientGroup
	for i := 1; i <= maxSegments; i++ {
		lan := fmt.Sprintf("lan%d", i)
		media = append(media, Medium{Name: lan, Net: "ethernet", Uplink: "core"})
		// The retry budget let the mount storm drain when set-up was one.
		// Every recorded cell is byte-identical without it now; it stays
		// until bench/'s checked-in fanin-5k spec, which must equal this
		// builder's output, is regenerated (ROADMAP, "bench/ catches up").
		groups = append(groups, ClientGroup{Count: clientsPerSegment, Segment: lan, MaxRetries: 100})
	}
	return Spec{
		Name:        name,
		Description: description,
		Seed:        seed,
		Topology: Topology{
			Media:    media,
			CPUScale: 1.8,
			Assembly: AssemblyCluster,
			Clients:  groups,
			Servers: Servers{
				Count: 1, Nfsds: nfsds, StripeDisks: disks, Inodes: 8192,
			},
		},
		Workload: Workload{Kind: KindOpenload, Openload: &OpenloadWorkload{
			Arrival: ArrivalPoisson, Population: PopZipf, TargetOps: targetOps,
			Files: 64, FileBlocks: 4, Measure: measure, Seed: seed,
		}},
	}
}

// StreamCrash builds the crash/recovery durability spec: clients
// streaming sequential writes through gathering servers that crash on the
// given train, every acked write journaled and verified after recovery.
func StreamCrash(name, description string, presto, gathering bool, clients, fileMB int, at, period, outage sim.Duration, crashes int, seed int64) Spec {
	return Spec{
		Name:        name,
		Description: description,
		Seed:        seed,
		Topology: Topology{
			Net:      "fddi",
			Assembly: AssemblyCluster,
			Clients:  []ClientGroup{{Count: clients, Biods: 4, MaxRetries: 50}},
			Servers:  Servers{Count: 1, Presto: presto, Gathering: gathering},
		},
		Workload: Workload{Kind: KindStream, Stream: &StreamWorkload{FileMB: fileMB}},
		Faults: Faults{
			CheckDurability: true,
			Events:          []FaultEvent{serverCrash(0, at, period, outage, crashes)},
		},
	}
}

// serverCrash is a server-crash event: count crash/reboot cycles on one
// shard, the first at at, one every period, each down for outage.
func serverCrash(node int, at, period, outage sim.Duration, count int) FaultEvent {
	return FaultEvent{Kind: fault.KindServerCrash, ServerCrash: &fault.ServerCrash{
		Node: node, At: at, Period: period, Outage: outage, Count: count,
	}}
}
