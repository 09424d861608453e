// Package scenario is the unified experiment API: one declarative,
// JSON-serializable Spec describes a topology (client groups, server
// shards, media), a workload (file copies, LADDIS mixes, write streams,
// traced transfers, open-loop load), an optional schedule of typed fault
// events (each one an internal/fault kind, decoded straight from its tag)
// and a metric selection — and one engine, Run, executes any of
// them on an internal/cluster testbed (one node with the paper boot for
// the paper's single-server configurations) and returns a uniform Result.
//
// The built-in Registry names the paper's tables and figures, the scale
// and crash sweeps, and the beyond-paper scenarios (crash-under-load
// sweeps, flapping storms, bridged fabrics, open-loop load); an entry is
// a spec builder plus, for the paper's names, the layout it prints in.
// New experiment shapes should be new specs, not new Run* functions.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/openload"
	"repro/internal/sim"
)

// Decode parses a spec from JSON strictly: unknown fields are an error,
// so a typo'd key in a hand-edited spec file fails loudly instead of
// silently running with defaults. The decoded spec is not yet validated
// (Run and Validate do that).
func Decode(blob []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode spec: %w", err)
	}
	return spec, nil
}

// Spec is one complete, serializable experiment description.
type Spec struct {
	// Name identifies the scenario (registry key, result header).
	Name string `json:"name"`
	// Description is the one-line summary `nfsbench -list` prints.
	Description string `json:"description,omitempty"`
	// Seed is the base seed; cells may override it per cell.
	Seed int64 `json:"seed"`

	Topology Topology `json:"topology"`
	Workload Workload `json:"workload"`
	Faults   Faults   `json:"faults,omitempty"`

	// Cells expands the spec into a sweep: each cell runs the base
	// topology/workload with its overrides applied, in order, on a fresh
	// simulation. Empty means one cell with no overrides.
	Cells []Cell `json:"cells,omitempty"`

	// Metrics selects which of the uniform metric columns renderers and
	// encoders emit (see MetricColumns). Empty means all.
	Metrics []string `json:"metrics,omitempty"`

	// Observe switches on the observability plane for every cell. Nil (the
	// default, and the only form recorded baselines use) costs the hot
	// paths nothing beyond nil checks: no spans, no probes, no extra
	// simulation events, byte-identical metric columns.
	Observe *Observe `json:"observe,omitempty"`
}

// Observe configures the observability plane: RPC lifecycle tracing,
// streaming latency histograms and periodic time-series probes. Each
// instrument is off unless its flag is set.
type Observe struct {
	// Trace records sim-time lifecycle spans at every hop — client RPC
	// issue to completion, nfsd service with queueing delay, gather-batch
	// commits, NVRAM drains, platter transfers — for export as Chrome
	// trace_event JSON (nfsbench -trace out.json; load in chrome://tracing
	// or Perfetto).
	Trace bool `json:"trace,omitempty"`
	// TraceMaxEvents caps the in-memory span buffer (default 200000);
	// events past the cap are counted as dropped, never grown.
	TraceMaxEvents int `json:"trace_max_events,omitempty"`
	// Probes samples gauge probes — nfsd queue depth, buffer-cache
	// occupancy, NVRAM dirty ratio, disk utilization, outstanding RPCs —
	// on the simulated clock, for CSV export (nfsbench -probes out.csv).
	// With Trace also set the samples additionally appear as counter
	// tracks in the trace file.
	Probes bool `json:"probes,omitempty"`
	// SampleEvery is the probe sampling period (default 100ms simulated).
	SampleEvery sim.Duration `json:"sample_every_ns,omitempty"`
	// Histograms streams every measured LADDIS operation latency into
	// fixed-bucket log-scale histograms (constant memory), adding
	// p50/p90/p99/p999 columns and a per-op quantile table to results.
	Histograms bool `json:"histograms,omitempty"`
}

// Topology declares the hardware: media, client groups and server shards.
type Topology struct {
	// Net selects the shared LAN: "ethernet" or "fddi". When Media is
	// set, Net must be empty — the media list carries the medium kinds.
	Net string `json:"net,omitempty"`
	// Media names the network segments. One segment behaves exactly like
	// Net; with several, every non-root segment declares an Uplink and a
	// dedicated store-and-forward bridge joins it to its parent, forming
	// a tree rooted at the single segment without an uplink. Client
	// groups and server shards are placed on segments by name (default:
	// the root); cross-segment RPC traffic is forwarded through the
	// bridges, paying per-hop queueing and serialization in sim time.
	Media []Medium `json:"media,omitempty"`
	// CPUScale divides every server CPU cost (the paper's FDDI tables
	// ran on a ~1.8x faster DEC 3800). 0 means 1.0.
	CPUScale float64 `json:"cpu_scale,omitempty"`
	// Clients is the client population, as one or more homogeneous
	// groups. Heterogeneous groups require the cluster assembly.
	Clients []ClientGroup `json:"clients"`
	// Servers is the server-shard population.
	Servers Servers `json:"servers"`
	// Assembly pins how the testbed boots: "rig" (the paper's single
	// server), "cluster" (crashable sharded nodes), or "" to let the engine
	// choose. Both are internal/cluster builds, and they boot differently
	// (the cluster flushes a mountable image at t=0, names its server
	// "server1", not "server", and carries a boot verifier in its
	// replies), so recorded baselines pin theirs.
	Assembly string `json:"assembly,omitempty"`
}

// Medium is one named network segment of a (possibly bridged) topology.
type Medium struct {
	Name string `json:"name"`
	// Net is the segment's medium kind: "ethernet" or "fddi".
	Net string `json:"net"`
	// Uplink names the parent segment this one bridges into. Exactly one
	// segment — the root — leaves it empty; every other segment must
	// name a declared segment, and the graph must be a tree.
	Uplink string `json:"uplink,omitempty"`
	// BridgeLatency is the uplink bridge's per-datagram store-and-forward
	// processing time (default 50µs). Only meaningful with Uplink.
	BridgeLatency sim.Duration `json:"bridge_latency_ns,omitempty"`
	// BridgeQueue bounds each uplink-bridge port's output FIFO in
	// datagrams — the drop budget (default 64). Only meaningful with
	// Uplink.
	BridgeQueue int `json:"bridge_queue,omitempty"`
}

// ClientGroup is one homogeneous set of client hosts: the cluster's own
// type, so its JSON keys are cluster.ClientGroup's tags. A group's
// segment requires topology.media.
type ClientGroup = cluster.ClientGroup

// Servers declares the server shards. Count homogeneous nodes by
// default; Nodes deviates individual shards.
type Servers struct {
	// Count is the shard count (each shard exports one filesystem).
	Count int `json:"count"`
	// Nfsds is the daemon pool size per server (default 8).
	Nfsds int `json:"nfsds,omitempty"`
	// StripeDisks is the spindle count per server (default 1).
	StripeDisks int `json:"stripe_disks,omitempty"`
	// Presto interposes an NVRAM board in front of each disk stack.
	Presto bool `json:"presto,omitempty"`
	// Gathering enables the write gathering engine.
	Gathering bool `json:"gathering,omitempty"`
	// GatherOverride replaces the default engine policy (ablations).
	GatherOverride *core.Config `json:"gather_override,omitempty"`
	// Inodes sizes each shard's inode table (default 512).
	Inodes int `json:"inodes,omitempty"`
	// Segment places every shard on a named media segment (default: the
	// root segment). Requires topology.media; node overrides deviate
	// individual shards.
	Segment string `json:"segment,omitempty"`
	// Nodes optionally deviates individual shards (index-aligned; nil
	// fields inherit). Per-node deviations require the cluster assembly.
	Nodes []NodeOverride `json:"nodes,omitempty"`
}

// NodeOverride is one shard's deviation from the homogeneous settings:
// the cluster's own type, resolved by cluster.Config.Shard.
type NodeOverride = cluster.NodeConfig

// Workload kinds.
const (
	// KindCopy is the paper's case study: one client sequentially writes
	// a file and the transfer is the measured interval (Tables 1-6).
	KindCopy = "copy"
	// KindLADDIS is the SPEC SFS 1.0 mixed load: per-client open-loop
	// generators over a pre-created working set (Figures 2-3, scale).
	KindLADDIS = "laddis"
	// KindStream is one sequential write stream per client, measured
	// end-to-end including outages (the crash/recovery workload).
	KindStream = "stream"
	// KindTrace is the Figure 1 timeline: a traced sequential transfer
	// with a rendered event window instead of interval metrics.
	KindTrace = "trace"
	// KindOpenload is the open-loop arrival workload: seed-driven
	// Poisson/bursty/fixed arrival processes emit operations at a target
	// offered ops/s regardless of completions, so the server can be
	// driven past saturation (the capacity-vs-offered-load curves).
	KindOpenload = "openload"
)

// Workload declares the offered load. Exactly the variant matching Kind
// must be set (or left nil to accept that kind's defaults).
type Workload struct {
	Kind     string            `json:"kind"`
	Copy     *CopyWorkload     `json:"copy,omitempty"`
	LADDIS   *LADDISWorkload   `json:"laddis,omitempty"`
	Stream   *StreamWorkload   `json:"stream,omitempty"`
	Trace    *TraceWorkload    `json:"trace,omitempty"`
	Openload *OpenloadWorkload `json:"openload,omitempty"`
}

// CopyWorkload is one sequential file copy by client 1.
type CopyWorkload struct {
	// FileMB is the transfer size (the paper used 10).
	FileMB int `json:"file_mb"`
}

// LADDISWorkload is the SPEC SFS 1.0-style mixed load.
type LADDISWorkload struct {
	// Files and FileBlocks size each client's pre-created working set.
	Files      int `json:"files"`
	FileBlocks int `json:"file_blocks"`
	// Procs is generator processes per client.
	Procs int `json:"procs"`
	// OfferedOpsPerSec is the open-loop request rate: aggregate across
	// all clients, or per client when OfferedIsPerClient is set (the
	// scale sweeps hold per-client load constant while clients multiply).
	OfferedOpsPerSec   float64 `json:"offered_ops_per_sec"`
	OfferedIsPerClient bool    `json:"offered_is_per_client,omitempty"`
	// Measure bounds the measured phase (nanoseconds).
	Measure sim.Duration `json:"measure_ns"`
	// Warmup operations are excluded from latency statistics.
	Warmup int `json:"warmup,omitempty"`
	// Seed is handed to generator i as Seed+i but read by none: every
	// closed-loop draw comes from the cell seed's kernel source, which
	// disk rotation draws from too (ROADMAP: the closed-loop seed under
	// "The LADDIS fixes that would move figure 2", and "Dead fields").
	Seed int64 `json:"seed"`
}

// StreamWorkload is one sequential write stream per client.
type StreamWorkload struct {
	// FileMB is the per-client stream size.
	FileMB int `json:"file_mb"`
	// Shard places client i's stream on shard i mod servers instead of
	// everyone writing to shard 0.
	Shard bool `json:"shard,omitempty"`
}

// TraceWorkload is the Figure 1 timeline scenario.
type TraceWorkload struct {
	// FileKB is the transfer size.
	FileKB int `json:"file_kb"`
	// WindowAfterKB opens the rendered window once the transfer passes
	// this offset (the paper renders >100K into the file; default 100).
	WindowAfterKB int `json:"window_after_kb,omitempty"`
	// Window is the rendered window length (default 60ms).
	Window sim.Duration `json:"window_ns,omitempty"`
	// Bound caps the simulation (default 60s).
	Bound sim.Duration `json:"bound_ns,omitempty"`
}

// Arrival process and population kinds for OpenloadWorkload.Arrival and
// .Population: openload's vocabulary, which documents each kind.
const (
	ArrivalFixed   = openload.ArrivalFixed
	ArrivalPoisson = openload.ArrivalPoisson
	ArrivalBursty  = openload.ArrivalBursty
	PopFlat        = openload.PopFlat
	PopZipf        = openload.PopZipf
)

// Mix kinds for OpenloadWorkload.Mix.
const (
	// MixLADDIS is the SPEC SFS 1.0 op mix (34% lookup, 22% read, ...).
	MixLADDIS = "laddis"
	// MixMetadata is a metadata-heavy mix dominated by
	// lookup/getattr/create/remove.
	MixMetadata = "metadata"
)

// OpenloadWorkload is the open-loop arrival workload: arrivals are
// emitted at TargetOps regardless of completions. An arrival is issued
// while fewer than Window operations of its client are in flight, else
// it waits in a bounded per-client backlog queue; when the backlog is
// full the arrival is shed, and dequeued arrivals older than Deadline
// expire without being issued. Latency is measured from the
// arrival instant (queue wait + service), so overload shows up honestly
// as queue growth, shed arrivals and retransmission storms instead of a
// silently reduced offered rate.
type OpenloadWorkload struct {
	// Arrival selects the arrival process: "fixed" (default), "poisson"
	// or "bursty".
	Arrival string `json:"arrival,omitempty"`
	// TargetOps is the aggregate offered rate in ops/s, split evenly
	// across clients. Cells override it via offered_load. Must be > 0.
	TargetOps float64 `json:"target_ops,omitempty"`
	// Mix selects the op mix: "laddis" (default) or "metadata".
	Mix string `json:"mix,omitempty"`
	// Population selects target-file skew over the shared per-cell file
	// set: "flat" (default) or "zipf".
	Population string `json:"population,omitempty"`
	// ZipfS is the Zipf exponent for Population "zipf" (default 1.1).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Files and FileBlocks size the shared population, built once per
	// cell by client 0 and shared by every generator (defaults 64 files
	// of 4 8K blocks).
	Files      int `json:"files,omitempty"`
	FileBlocks int `json:"file_blocks,omitempty"`
	// Window is the admission window: the maximum operations in flight
	// per client (default 8).
	Window int `json:"window,omitempty"`
	// QueueCap bounds the per-client arrival backlog; arrivals past it
	// are shed (default 4x Window).
	QueueCap int `json:"queue_cap,omitempty"`
	// Deadline expires backlogged arrivals at dequeue time: an arrival
	// that waited longer than this is counted expired and never issued
	// (0 = never expire).
	Deadline sim.Duration `json:"deadline_ns,omitempty"`
	// BurstOn/BurstOff are the mean on/off dwell times for the bursty
	// arrival process (defaults 200ms each).
	BurstOn  sim.Duration `json:"burst_on_ns,omitempty"`
	BurstOff sim.Duration `json:"burst_off_ns,omitempty"`
	// Measure bounds the measured phase (nanoseconds).
	Measure sim.Duration `json:"measure_ns"`
	// Seed is the generator seed base (client i draws from Seed+i),
	// distinct from the cell seed driving the simulation kernel.
	Seed int64 `json:"seed"`
}

// Faults is the deterministic fault schedule.
type Faults struct {
	// Events is a list of tagged fault events, each validated by kind and
	// scheduled in list order. See FaultEvent.
	Events []FaultEvent `json:"events,omitempty"`
	// CheckDurability journals every client-acked write and, after the
	// run, reads each range back through the recovered shards: acked
	// bytes that did not survive are reported as LostBytes. Writes a
	// client buffered but no server ever acked are tracked separately —
	// a client crash may legitimately lose those.
	CheckDurability bool `json:"check_durability,omitempty"`
}

// FaultEvent is one tagged fault: Kind selects the failure mode and
// exactly the matching variant field must be set (strict decoding — a
// kind/variant mismatch is a validation error, an unknown kind likewise).
// Each variant is the internal/fault kind that injects it, so its JSON
// fields are that type's: renaming one is a schema change.
type FaultEvent struct {
	Kind string `json:"kind"`
	// ServerCrash matches kind "server-crash".
	ServerCrash *fault.ServerCrash `json:"server_crash,omitempty"`
	// ClientReboot matches kind "client-reboot".
	ClientReboot *fault.ClientReboot `json:"client_reboot,omitempty"`
	// BiodLoss matches kind "biod-loss".
	BiodLoss *fault.BiodLoss `json:"biod_loss,omitempty"`
	// ShardFailover matches kind "shard-failover".
	ShardFailover *fault.ShardFailover `json:"shard_failover,omitempty"`
	// LinkOutage matches kind "link-outage".
	LinkOutage *fault.LinkOutage `json:"link_outage,omitempty"`
	// DiskReadError matches kind "disk-read-error".
	DiskReadError *fault.DiskReadError `json:"disk_read_error,omitempty"`
	// DiskDegraded matches kind "disk-degraded".
	DiskDegraded *fault.DiskDegraded `json:"disk_degraded,omitempty"`
	// DiskTornWrite matches kind "disk-torn-write".
	DiskTornWrite *fault.DiskTornWrite `json:"disk_torn_write,omitempty"`
	// NVRAMLyingSync matches kind "nvram-lying-sync".
	NVRAMLyingSync *fault.NVRAMLyingSync `json:"nvram_lying_sync,omitempty"`
}

// variant is one of FaultEvent's variant fields: the kind tag that
// selects it and its value, nil when the field is unset.
type variant struct {
	kind  string
	fault fault.Kind
}

// variants lists the event's variant fields in schema order. It is the one
// list of kinds the schema knows: validation and Fault both read it.
func (ev FaultEvent) variants() []variant {
	return []variant{
		{fault.KindServerCrash, kindOf(ev.ServerCrash)},
		{fault.KindClientReboot, kindOf(ev.ClientReboot)},
		{fault.KindBiodLoss, kindOf(ev.BiodLoss)},
		{fault.KindShardFailover, kindOf(ev.ShardFailover)},
		{fault.KindLinkOutage, kindOf(ev.LinkOutage)},
		{fault.KindDiskReadError, kindOf(ev.DiskReadError)},
		{fault.KindDiskDegraded, kindOf(ev.DiskDegraded)},
		{fault.KindDiskTornWrite, kindOf(ev.DiskTornWrite)},
		{fault.KindNVRAMLyingSync, kindOf(ev.NVRAMLyingSync)},
	}
}

// kindOf turns an unset (nil) variant pointer into a nil fault.Kind.
func kindOf[P interface {
	comparable
	fault.Kind
}](p P) fault.Kind {
	var unset P
	if p == unset {
		return nil
	}
	return p
}

// Fault returns the variant Kind names, as the fault kind that injects
// it: nil when the kind is unknown or its variant is unset (both
// validation errors).
func (ev FaultEvent) Fault() fault.Kind {
	for _, v := range ev.variants() {
		if v.kind == ev.Kind {
			return v.fault
		}
	}
	return nil
}

// Cell is one sweep point: the base spec with these overrides applied.
// Nil fields inherit the base value.
type Cell struct {
	// Label names the cell in results (auto-generated when empty).
	Label string `json:"label,omitempty"`
	// Seed overrides the simulation seed for this cell.
	Seed *int64 `json:"seed,omitempty"`
	// Biods overrides every client group's biod count.
	Biods *int `json:"biods,omitempty"`
	// Clients overrides the first client group's host count.
	Clients *int `json:"clients,omitempty"`
	// Servers overrides the shard count.
	Servers *int `json:"servers,omitempty"`
	// Gathering and Presto override the server build.
	Gathering *bool `json:"gathering,omitempty"`
	Presto    *bool `json:"presto,omitempty"`
	// OfferedOpsPerSec overrides the LADDIS offered load.
	OfferedOpsPerSec *float64 `json:"offered_ops_per_sec,omitempty"`
	// OfferedLoad overrides the openload target rate (aggregate ops/s) —
	// the sweep axis behind the capacity-vs-offered-load curves.
	OfferedLoad *float64 `json:"offered_load,omitempty"`
	// FileMB overrides the copy/stream transfer size.
	FileMB *int `json:"file_mb,omitempty"`
	// Segments keeps only the first N non-root media segments (in
	// declaration order) and drops client groups placed on the removed
	// ones — the segment-count sweep axis for bridged topologies.
	Segments *int `json:"segments,omitempty"`
}
