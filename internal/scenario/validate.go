package scenario

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ValidationError reports one way a Spec is invalid. Field is the dotted
// spec path ("topology.clients", "faults.events[1]"); for sweeps the
// engine prefixes the offending cell.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("scenario: invalid spec: %s: %s", e.Field, e.Reason)
}

func invalid(field, format string, args ...any) error {
	return &ValidationError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Assembly names.
const (
	AssemblyRig     = "rig"
	AssemblyCluster = "cluster"
)

// Validate checks the spec and every cell it expands to, returning the
// first *ValidationError found (nil if the spec is runnable).
func (s *Spec) Validate() error {
	for i, cell := range s.cells() {
		if _, err := s.resolve(cell, i); err != nil {
			return err
		}
	}
	return nil
}

// cells returns the sweep expansion: the declared cells, or one empty
// cell for a single-run spec.
func (s *Spec) cells() []Cell {
	if len(s.Cells) == 0 {
		return []Cell{{}}
	}
	return s.Cells
}

// resolved is one cell's fully-defaulted, validated configuration.
type resolved struct {
	label    string
	seed     int64
	net      hw.NetParams
	cpuScale float64
	groups   []ClientGroup
	nclients int
	servers  Servers
	assembly string

	// segments is the bridged-fabric build plan, nil for single-segment
	// topologies (plain Net, or media with one segment — both take the
	// historical one-network path, byte-identical to pre-bridge runs).
	segments []netsim.SegmentSpec
	rootSeg  string
	segIndex map[string]int // segment name -> media index; nil without media

	kind   string
	copyW  CopyWorkload
	laddis LADDISWorkload
	stream StreamWorkload
	trace  TraceWorkload
	open   OpenloadWorkload

	// observe is the defaulted observability configuration (nil when the
	// spec declares none — the zero-cost path).
	observe *Observe

	// faults is the validated fault schedule; Run arms its events in
	// list order.
	faults Faults
	// storageFaults is true when the schedule carries storage-plane
	// events (media errors, degraded windows, torn writes, lying NVRAM):
	// the runner then tolerates failed client operations and failed
	// recoveries instead of treating them as harness panics.
	storageFaults bool
}

func netParams(name string) (hw.NetParams, bool) {
	switch name {
	case "ethernet":
		return hw.Ethernet(), true
	case "fddi":
		return hw.FDDI(), true
	}
	return hw.NetParams{}, false
}

// knownMediaKinds lists the medium kinds netParams accepts, for error
// messages.
func knownMediaKinds() string { return `"ethernet", "fddi"` }

// Bridged-media defaults applied at resolve time.
const (
	// DefaultBridgeLatency is the store-and-forward processing time of
	// an uplink bridge when the medium declares none.
	DefaultBridgeLatency = 50 * sim.Microsecond
	// DefaultBridgeQueue is the per-port output FIFO bound (the drop
	// budget) when the medium declares none.
	DefaultBridgeQueue = 64
)

// resolve applies cell overrides and defaults to the base spec and
// validates the result.
func (s *Spec) resolve(cell Cell, idx int) (*resolved, error) {
	r := &resolved{
		label:    cell.Label,
		seed:     s.Seed,
		cpuScale: s.Topology.CPUScale,
		servers:  s.Topology.Servers,
		kind:     s.Workload.Kind,
		faults:   s.Faults,
	}
	if r.label == "" {
		r.label = fmt.Sprintf("cell%02d", idx)
	}
	if cell.Seed != nil {
		r.seed = *cell.Seed
	}

	// Medium. Net and Media are mutually exclusive; a media list of one
	// segment is exactly Net, and several segments form a bridged tree.
	netName := s.Topology.Net
	media := s.Topology.Media
	if len(media) > 0 && netName != "" {
		return nil, invalid("topology.net",
			"set either net or media, not both (media kinds: %s)", knownMediaKinds())
	}
	groups := append([]ClientGroup(nil), s.Topology.Clients...)
	if cell.Segments != nil {
		var err error
		if media, groups, err = trimSegments(media, groups, *cell.Segments); err != nil {
			return nil, err
		}
	}
	if len(media) > 0 {
		if err := r.resolveMedia(media); err != nil {
			return nil, err
		}
		// The single-network parameters (gather procrastination, legacy
		// configs) follow the shards' default segment.
		if err := r.checkSegment("topology.servers.segment", r.servers.Segment); err != nil {
			return nil, err
		}
		serverSeg := r.servers.Segment
		if serverSeg == "" {
			serverSeg = r.rootSeg
		}
		netName = media[r.segIndex[serverSeg]].Net
	} else if r.servers.Segment != "" {
		return nil, invalid("topology.servers.segment",
			"segment placement requires topology.media")
	}
	net, ok := netParams(netName)
	if !ok {
		return nil, invalid("topology.net", "unknown medium %q (want one of %s)", netName, knownMediaKinds())
	}
	r.net = net

	// Client groups.
	r.groups = groups
	if len(r.groups) == 0 {
		return nil, invalid("topology.clients", "no client groups declared")
	}
	if cell.Clients != nil {
		r.groups[0].Count = *cell.Clients
	}
	for gi := range r.groups {
		if cell.Biods != nil {
			r.groups[gi].Biods = *cell.Biods
		}
		if r.groups[gi].Count < 1 {
			return nil, invalid(fmt.Sprintf("topology.clients[%d].count", gi),
				"zero clients (each group needs at least one host)")
		}
		if r.groups[gi].Biods < 0 || r.groups[gi].MaxRetries < 0 {
			return nil, invalid(fmt.Sprintf("topology.clients[%d]", gi), "negative biods or max_retries")
		}
		if err := r.checkSegment(fmt.Sprintf("topology.clients[%d].segment", gi), r.groups[gi].Segment); err != nil {
			return nil, err
		}
		r.nclients += r.groups[gi].Count
	}

	// Servers.
	if cell.Servers != nil {
		r.servers.Count = *cell.Servers
	}
	if cell.Gathering != nil {
		r.servers.Gathering = *cell.Gathering
	}
	if cell.Presto != nil {
		r.servers.Presto = *cell.Presto
	}
	if r.servers.Count < 1 {
		return nil, invalid("topology.servers.count", "at least one server shard required")
	}
	if r.servers.Nfsds < 0 || r.servers.StripeDisks < 0 || r.servers.Inodes < 0 {
		return nil, invalid("topology.servers", "negative nfsds, stripe_disks or inodes")
	}
	if len(r.servers.Nodes) > r.servers.Count {
		return nil, invalid("topology.servers.nodes",
			"%d node overrides for %d shards", len(r.servers.Nodes), r.servers.Count)
	}
	for ni, o := range r.servers.Nodes {
		if (o.StripeDisks != nil && *o.StripeDisks < 1) ||
			(o.Nfsds != nil && *o.Nfsds < 1) ||
			(o.Inodes != nil && *o.Inodes < 1) {
			return nil, invalid(fmt.Sprintf("topology.servers.nodes[%d]", ni),
				"node overrides must be positive when set")
		}
		if o.Segment != nil {
			field := fmt.Sprintf("topology.servers.nodes[%d].segment", ni)
			if *o.Segment == "" {
				return nil, invalid(field, "per-node segment override must name a segment")
			}
			if err := r.checkSegment(field, *o.Segment); err != nil {
				return nil, err
			}
		}
	}

	// Workload.
	switch r.kind {
	case KindCopy:
		if s.Workload.Copy != nil {
			r.copyW = *s.Workload.Copy
		}
		if cell.FileMB != nil {
			r.copyW.FileMB = *cell.FileMB
		}
		if r.copyW.FileMB == 0 {
			r.copyW.FileMB = 10 // the paper's transfer size
		}
		if r.copyW.FileMB < 1 {
			return nil, invalid("workload.copy.file_mb", "transfer size must be at least 1MB")
		}
		if r.nclients != 1 {
			return nil, invalid("topology.clients",
				"the copy workload measures a single writing client (got %d)", r.nclients)
		}
	case KindLADDIS:
		if s.Workload.LADDIS == nil {
			return nil, invalid("workload.laddis", "laddis parameters required")
		}
		r.laddis = *s.Workload.LADDIS
		if cell.OfferedOpsPerSec != nil {
			r.laddis.OfferedOpsPerSec = *cell.OfferedOpsPerSec
		}
		if r.laddis.OfferedOpsPerSec <= 0 {
			return nil, invalid("workload.laddis.offered_ops_per_sec", "offered load must be positive")
		}
		if r.laddis.Measure <= 0 {
			return nil, invalid("workload.laddis.measure_ns", "measured phase must be positive")
		}
		if r.laddis.Files < 0 || r.laddis.FileBlocks < 0 || r.laddis.Procs < 0 || r.laddis.Warmup < 0 {
			return nil, invalid("workload.laddis", "negative working-set or generator parameters")
		}
	case KindStream:
		if s.Workload.Stream != nil {
			r.stream = *s.Workload.Stream
		}
		if cell.FileMB != nil {
			r.stream.FileMB = *cell.FileMB
		}
		if r.stream.FileMB < 1 {
			return nil, invalid("workload.stream.file_mb", "per-client stream size must be at least 1MB")
		}
	case KindTrace:
		if s.Workload.Trace != nil {
			r.trace = *s.Workload.Trace
		}
		if r.trace.FileKB < 1 {
			return nil, invalid("workload.trace.file_kb", "transfer size must be at least 1KB")
		}
		if r.trace.WindowAfterKB == 0 {
			r.trace.WindowAfterKB = 100
		}
		if r.trace.Window == 0 {
			r.trace.Window = 60 * sim.Millisecond
		}
		if r.trace.Bound == 0 {
			r.trace.Bound = 60 * sim.Second
		}
		if r.nclients != 1 {
			return nil, invalid("topology.clients",
				"the trace workload follows a single writing client (got %d)", r.nclients)
		}
	case KindOpenload:
		if s.Workload.Openload != nil {
			r.open = *s.Workload.Openload
		}
		if cell.OfferedLoad != nil {
			r.open.TargetOps = *cell.OfferedLoad
		}
		if err := r.validateOpenload(); err != nil {
			return nil, err
		}
	default:
		return nil, invalid("workload.kind", "unknown workload kind %q", r.kind)
	}

	// Observability plane.
	if s.Observe != nil {
		o := *s.Observe
		if o.SampleEvery < 0 {
			return nil, invalid("observe.sample_every_ns", "sample period must not be negative")
		}
		if o.TraceMaxEvents < 0 {
			return nil, invalid("observe.trace_max_events", "event cap must not be negative")
		}
		if o.SampleEvery == 0 {
			o.SampleEvery = 100 * sim.Millisecond
		}
		if o.TraceMaxEvents == 0 {
			o.TraceMaxEvents = 200_000
		}
		r.observe = &o
	}

	if err := r.validateFaults(); err != nil {
		return nil, err
	}

	// Assembly.
	needsCluster := r.needsCluster()
	switch s.Topology.Assembly {
	case "":
		r.assembly = AssemblyRig
		if needsCluster != "" {
			r.assembly = AssemblyCluster
		}
	case AssemblyRig:
		if needsCluster != "" {
			return nil, invalid("topology.assembly", "rig assembly cannot express %s", needsCluster)
		}
		r.assembly = AssemblyRig
	case AssemblyCluster:
		r.assembly = AssemblyCluster
	default:
		return nil, invalid("topology.assembly", "unknown assembly %q", s.Topology.Assembly)
	}
	return r, nil
}

// Known-vocabulary lists for openload error messages.
func knownArrivalKinds() string    { return `"fixed", "poisson", "bursty"` }
func knownPopulationKinds() string { return `"flat", "zipf"` }
func knownMixKinds() string        { return `"laddis", "metadata"` }

// validateOpenload checks and defaults the resolved openload workload:
// replay is exclusive with the synthetic-process fields (the capture
// carries its own timeline, mix and skew), the arrival/mix/population
// vocabularies are closed, and the offered rate must be positive.
func (r *resolved) validateOpenload() error {
	w := &r.open
	if w.Replay != nil {
		if w.Arrival != "" || w.Mix != "" || w.Population != "" || w.ZipfS != 0 || w.TargetOps != 0 {
			return invalid("workload.openload.replay",
				"replay carries its own timeline: arrival, mix, population, zipf_s and target_ops must be unset")
		}
		if w.Replay.File == "" {
			return invalid("workload.openload.replay.file", "replay needs a capture file")
		}
		if _, err := os.Stat(w.Replay.File); err != nil {
			return invalid("workload.openload.replay.file",
				"capture %q is not readable (%v); record one with nfstrace -capture", w.Replay.File, err)
		}
		if w.Replay.Speed < 0 {
			return invalid("workload.openload.replay.speed", "replay speed must not be negative")
		}
	} else {
		if w.TargetOps <= 0 {
			return invalid("workload.openload.target_ops",
				"offered rate must be > 0 ops/s (cells override it via offered_load)")
		}
		switch w.Arrival {
		case "", ArrivalFixed, ArrivalPoisson, ArrivalBursty:
		default:
			return invalid("workload.openload.arrival",
				"unknown arrival kind %q (want one of %s)", w.Arrival, knownArrivalKinds())
		}
		switch w.Mix {
		case "", MixLADDIS, MixMetadata:
		default:
			return invalid("workload.openload.mix",
				"unknown mix %q (want one of %s)", w.Mix, knownMixKinds())
		}
		switch w.Population {
		case "", PopFlat, PopZipf:
		default:
			return invalid("workload.openload.population",
				"unknown population %q (want one of %s)", w.Population, knownPopulationKinds())
		}
		if w.ZipfS < 0 {
			return invalid("workload.openload.zipf_s", "zipf exponent must not be negative")
		}
		if w.ZipfS > 0 && w.Population != PopZipf {
			return invalid("workload.openload.zipf_s",
				"zipf_s requires population %q (got %q)", PopZipf, w.Population)
		}
		if w.Measure <= 0 {
			return invalid("workload.openload.measure_ns", "measured phase must be positive")
		}
	}
	if w.Files < 0 || w.FileBlocks < 0 || w.Window < 0 || w.QueueCap < 0 ||
		w.Deadline < 0 || w.BurstOn < 0 || w.BurstOff < 0 {
		return invalid("workload.openload", "negative population, window, queue or burst parameters")
	}
	if w.Files == 0 {
		w.Files = 64
	}
	if w.FileBlocks == 0 {
		w.FileBlocks = 4
	}
	if w.Window == 0 {
		w.Window = 8
	}
	if w.QueueCap == 0 {
		w.QueueCap = 4 * w.Window
	}
	return nil
}

// checkSegment validates a placement reference: empty always means the
// root and is fine; a name requires topology.media and must be declared.
func (r *resolved) checkSegment(field, seg string) error {
	if seg == "" {
		return nil
	}
	if r.segIndex == nil {
		return invalid(field, "segment placement requires topology.media")
	}
	if _, ok := r.segIndex[seg]; !ok {
		return invalid(field, "unknown segment %q (declared: %s)", seg, r.segmentNames())
	}
	return nil
}

// segmentNames lists the declared segment names for error messages.
func (r *resolved) segmentNames() string {
	names := make([]string, 0, len(r.segIndex))
	for i := 0; i < len(r.segIndex); i++ {
		for n, idx := range r.segIndex {
			if idx == i {
				names = append(names, fmt.Sprintf("%q", n))
			}
		}
	}
	return strings.Join(names, ", ")
}

// resolveMedia validates the segment list and, for multi-segment
// topologies, builds the fabric plan: unique named segments of known
// kinds, exactly one root, every uplink declared and acyclic, sane
// bridge port/budget parameters.
func (r *resolved) resolveMedia(media []Medium) error {
	r.segIndex = make(map[string]int, len(media))
	for i, m := range media {
		field := fmt.Sprintf("topology.media[%d]", i)
		if m.Name == "" {
			return invalid(field, "segment needs a name")
		}
		if _, dup := r.segIndex[m.Name]; dup {
			return invalid(field, "duplicate segment name %q", m.Name)
		}
		r.segIndex[m.Name] = i
		if _, ok := netParams(m.Net); !ok {
			return invalid(field, "unknown medium %q (want one of %s)", m.Net, knownMediaKinds())
		}
		if m.BridgeLatency < 0 {
			return invalid(field, "bridge forward latency must not be negative")
		}
		if m.BridgeQueue < 0 {
			return invalid(field, "bridge queue bound (the drop budget) must not be negative")
		}
	}
	for i, m := range media {
		field := fmt.Sprintf("topology.media[%d]", i)
		if m.Uplink == "" {
			if r.rootSeg != "" {
				return invalid(field,
					"segment %q has no uplink, but %q is already the root — an extra root is an orphan segment unreachable from any server",
					m.Name, r.rootSeg)
			}
			r.rootSeg = m.Name
			continue
		}
		if m.Uplink == m.Name {
			return invalid(field, "segment %q uplinks to itself", m.Name)
		}
		if _, ok := r.segIndex[m.Uplink]; !ok {
			return invalid(field, "uplink names unknown segment %q (declared: %s)", m.Uplink, r.segmentNames())
		}
	}
	if r.rootSeg == "" {
		return invalid("topology.media",
			"no root segment: every segment declares an uplink, so the graph cycles and no segment can reach a server")
	}
	for i, m := range media {
		hops := 0
		for at := m.Name; at != r.rootSeg; at = media[r.segIndex[at]].Uplink {
			if hops++; hops > len(media) {
				return invalid(fmt.Sprintf("topology.media[%d]", i),
					"segment %q cannot reach the root %q — an uplink cycle orphans it from every server", m.Name, r.rootSeg)
			}
		}
	}
	if len(media) == 1 {
		// One segment is exactly the single shared medium: no fabric, no
		// bridges, the historical network build.
		return nil
	}
	for _, m := range media {
		p, _ := netParams(m.Net)
		lat, q := m.BridgeLatency, m.BridgeQueue
		if lat == 0 {
			lat = DefaultBridgeLatency
		}
		if q == 0 {
			q = DefaultBridgeQueue
		}
		r.segments = append(r.segments, netsim.SegmentSpec{
			Name:   m.Name,
			Params: p,
			Uplink: m.Uplink,
			Bridge: netsim.BridgeParams{ForwardLatency: lat, QueueItems: q},
		})
	}
	return nil
}

// trimSegments applies a cell's segment-count override: keep the root(s)
// plus the first n non-root segments in declaration order, and drop
// client groups placed on removed segments.
func trimSegments(media []Medium, groups []ClientGroup, n int) ([]Medium, []ClientGroup, error) {
	if len(media) < 2 {
		return nil, nil, invalid("cells.segments",
			"segment-count override requires a multi-segment topology.media")
	}
	children := 0
	for _, m := range media {
		if m.Uplink != "" {
			children++
		}
	}
	if n < 1 || n > children {
		return nil, nil, invalid("cells.segments",
			"segment count %d out of range (topology declares %d non-root segments)", n, children)
	}
	keep := make(map[string]bool, len(media))
	var outMedia []Medium
	kept := 0
	for _, m := range media {
		if m.Uplink != "" {
			if kept >= n {
				continue
			}
			kept++
		}
		keep[m.Name] = true
		outMedia = append(outMedia, m)
	}
	var outGroups []ClientGroup
	for _, g := range groups {
		if g.Segment == "" || keep[g.Segment] {
			outGroups = append(outGroups, g)
		}
	}
	return outMedia, outGroups, nil
}

// needsCluster reports why the cell requires the cluster assembly ("" if
// the rig, the paper's single-server boot, suffices).
func (r *resolved) needsCluster() string {
	switch {
	case r.servers.Count > 1:
		return "multiple server shards"
	case len(r.faults.Events) > 0 || r.faults.CheckDurability:
		return "fault injection (only cluster assemblies are faultable)"
	case len(r.servers.Nodes) > 0:
		return "per-node server overrides"
	case len(r.groups) > 1:
		return "multiple client groups"
	case r.groups[0].MaxRetries > 0:
		return "a client retry override"
	case r.kind == KindStream:
		return "the stream workload"
	}
	return ""
}

// faultWindow is one scheduled down-window on a target, kept with the
// spec field it came from so overlap errors name both offenders. fatal
// windows take the host down (crash, reboot, failover); non-fatal ones
// only sever its attachment (link outage) — the host, its daemons and
// any adopted exports live on.
type faultWindow struct {
	from, to sim.Duration
	field    string
	fatal    bool
}

// forever marks an open-ended window (a failed-over shard never comes
// back).
const forever = sim.Duration(1<<63 - 1)

// validateFaults checks every fault event by kind against the resolved
// topology: known targets, sane cycle
// parameters, strict kind/variant pairing, per-target non-overlapping
// down-windows (the injector skips a fault aimed at a target that is
// still down, so an overlapping schedule would silently drop cycles
// instead of running what the spec describes), and failover sanity (the
// adopter must not be dead, dying, or itself failed-over).
func (r *resolved) validateFaults() error {
	serverWin := map[int][]faultWindow{}
	clientWin := map[int][]faultWindow{}
	segWin := map[string][]faultWindow{}
	type adoption struct {
		to    int
		at    sim.Duration
		field string
	}
	var adoptions []adoption
	type point struct {
		client int
		at     sim.Duration
		field  string
	}
	var biodPoints []point
	// Degraded-window overlap ledger: stacked windows on one spindle
	// would multiply factors in an order the spec never stated, so they
	// are rejected. disk -1 (every stripe member) conflicts with any
	// window on the same node.
	type diskWindow struct {
		disk     int
		from, to sim.Duration
		field    string
	}
	degradeWin := map[int][]diskWindow{}

	for i, ev := range r.faults.Events {
		field := eventField(i)
		if err := r.checkVariant(field, ev); err != nil {
			return err
		}
		switch ev.Kind {
		case FaultServerCrash:
			f := ev.ServerCrash
			if f.Node < 0 || f.Node >= r.servers.Count {
				return invalid(field, "fault targets unknown node %d (topology has %d servers)", f.Node, r.servers.Count)
			}
			if f.Count < 1 {
				return invalid(field, "crash count must be at least 1")
			}
			if f.Outage <= 0 {
				return invalid(field, "outage must be positive")
			}
			if f.At < 0 {
				return invalid(field, "first crash time must not be negative")
			}
			if f.Count > 1 && f.Period <= 0 {
				return invalid(field, "repeating trains need a positive period")
			}
			for k := 0; k < f.Count; k++ {
				at := f.At + sim.Duration(k)*f.Period
				serverWin[f.Node] = append(serverWin[f.Node], faultWindow{at, at + f.Outage, field, true})
			}
		case FaultClientReboot:
			f := ev.ClientReboot
			if f.Client < 0 || f.Client >= r.nclients {
				return invalid(field, "fault targets unknown client %d (topology has %d clients)", f.Client, r.nclients)
			}
			if f.Outage <= 0 {
				return invalid(field, "outage must be positive")
			}
			if f.At < 0 {
				return invalid(field, "reboot time must not be negative")
			}
			if r.kind != KindStream {
				return invalid(field, "client faults require the stream workload (the %s runner cannot lose a client)", r.kind)
			}
			clientWin[f.Client] = append(clientWin[f.Client], faultWindow{f.At, f.At + f.Outage, field, true})
		case FaultBiodLoss:
			f := ev.BiodLoss
			if f.Client < 0 || f.Client >= r.nclients {
				return invalid(field, "fault targets unknown client %d (topology has %d clients)", f.Client, r.nclients)
			}
			if f.At < 0 {
				return invalid(field, "loss time must not be negative")
			}
			if r.kind != KindStream {
				return invalid(field, "client faults require the stream workload (the %s runner cannot lose a client)", r.kind)
			}
			biods := r.clientBiods(f.Client)
			if f.Lose < 1 || f.Lose > biods {
				return invalid(field, "lose must be between 1 and the client's %d biods", biods)
			}
			biodPoints = append(biodPoints, point{f.Client, f.At, field})
		case FaultShardFailover:
			f := ev.ShardFailover
			if f.Node < 0 || f.Node >= r.servers.Count {
				return invalid(field, "fault targets unknown node %d (topology has %d servers)", f.Node, r.servers.Count)
			}
			if f.To < 0 || f.To >= r.servers.Count {
				return invalid(field, "failover to unknown node %d (topology has %d servers)", f.To, r.servers.Count)
			}
			if f.To == f.Node {
				return invalid(field, "a shard cannot fail over to itself")
			}
			if f.At < 0 || f.Takeover < 0 {
				return invalid(field, "failover and takeover times must not be negative")
			}
			if r.kind == KindLADDIS || r.kind == KindOpenload {
				return invalid(field,
					"shard failover requires a fully handle-routed workload; the %s generators issue statfs to the default server by name, which cannot follow a migrated export", r.kind)
			}
			// The source never comes back: its down-window is open-ended,
			// which also rejects any later event aimed at it.
			serverWin[f.Node] = append(serverWin[f.Node], faultWindow{f.At, forever, field, true})
			adoptions = append(adoptions, adoption{f.To, f.At, field})
		case FaultLinkOutage:
			f := ev.LinkOutage
			targets := 0
			for _, set := range []bool{f.Node != nil, f.Client != nil, f.Segment != nil} {
				if set {
					targets++
				}
			}
			if targets != 1 {
				return invalid(field, "exactly one of node, client and segment selects the outage target")
			}
			if f.Count < 1 {
				return invalid(field, "outage count must be at least 1")
			}
			if f.Outage <= 0 {
				return invalid(field, "outage must be positive")
			}
			if f.At < 0 {
				return invalid(field, "first outage time must not be negative")
			}
			if f.Count > 1 && f.Period <= 0 {
				return invalid(field, "repeating trains need a positive period")
			}
			if f.Segment != nil {
				seg := *f.Segment
				if len(r.segments) == 0 {
					return invalid(field, "segment outages require a multi-segment topology.media")
				}
				if seg == "" {
					return invalid(field, "segment target must name a segment (declared: %s)", r.segmentNames())
				}
				if err := r.checkSegment(field, seg); err != nil {
					return err
				}
				if seg == r.rootSeg {
					return invalid(field, "segment %q is the root and has no uplink to sever", seg)
				}
				for k := 0; k < f.Count; k++ {
					at := f.At + sim.Duration(k)*f.Period
					segWin[seg] = append(segWin[seg], faultWindow{at, at + f.Outage, field, false})
				}
				break
			}
			win := serverWin
			idx, limit, what := 0, r.servers.Count, "node"
			if f.Node != nil {
				idx = *f.Node
			} else {
				win, idx, limit, what = clientWin, *f.Client, r.nclients, "client"
			}
			if idx < 0 || idx >= limit {
				return invalid(field, "fault targets unknown %s %d", what, idx)
			}
			for k := 0; k < f.Count; k++ {
				at := f.At + sim.Duration(k)*f.Period
				win[idx] = append(win[idx], faultWindow{at, at + f.Outage, field, false})
			}
		case FaultDiskReadError:
			f := ev.DiskReadError
			if err := r.checkDiskTarget(field, f.Node, f.Disk); err != nil {
				return err
			}
			if f.At < 0 {
				return invalid(field, "injection time must not be negative")
			}
			if f.BlockFrom < 0 || f.BlockTo < 0 {
				return invalid(field, "negative block range")
			}
			if f.BlockTo != 0 && f.BlockTo <= f.BlockFrom {
				return invalid(field, "empty block range [%d,%d) (block_to 0 means end of disk)", f.BlockFrom, f.BlockTo)
			}
			if f.AfterOps < 0 || f.Times < 0 {
				return invalid(field, "negative after_ops or times")
			}
			if r.kind != KindStream {
				return invalid(field, "disk read errors require the stream workload (the %s runner cannot absorb I/O-error replies)", r.kind)
			}
			r.storageFaults = true
		case FaultDiskDegraded:
			f := ev.DiskDegraded
			if err := r.checkDiskTarget(field, f.Node, f.Disk); err != nil {
				return err
			}
			if f.At < 0 {
				return invalid(field, "window start must not be negative")
			}
			if f.Duration <= 0 {
				return invalid(field, "window duration must be positive")
			}
			if f.Factor <= 1 {
				return invalid(field, "degrade factor must exceed 1 (got %g)", f.Factor)
			}
			degradeWin[f.Node] = append(degradeWin[f.Node],
				diskWindow{f.Disk, f.At, f.At + f.Duration, field})
			r.storageFaults = true
		case FaultDiskTornWrite:
			f := ev.DiskTornWrite
			if err := r.checkDiskTarget(field, f.Node, f.Disk); err != nil {
				return err
			}
			if f.At < 0 {
				return invalid(field, "arm time must not be negative")
			}
			r.storageFaults = true
		case FaultNVRAMLyingSync:
			f := ev.NVRAMLyingSync
			if f.Node < 0 || f.Node >= r.servers.Count {
				return invalid(field, "fault targets unknown node %d (topology has %d servers)", f.Node, r.servers.Count)
			}
			if !r.nodePresto(f.Node) {
				return invalid(field, "node %d runs no NVRAM board (set topology.servers.presto or the node override)", f.Node)
			}
			if f.At < 0 {
				return invalid(field, "corruption time must not be negative")
			}
			r.storageFaults = true
		default:
			// checkVariant already rejected unknown kinds; a kind added
			// to its table but not here must fail loudly, not skip its
			// validation.
			panic("scenario: fault kind " + ev.Kind + " has no validation case")
		}
	}

	for node, ws := range degradeWin {
		for i := range ws {
			for j := i + 1; j < len(ws); j++ {
				a, b := ws[i], ws[j]
				sameDisk := a.disk < 0 || b.disk < 0 || a.disk == b.disk
				if sameDisk && a.from < b.to && b.from < a.to {
					return invalid(a.field,
						"overlapping degraded windows on node %d disk %d (%s [%v,%v] and %s [%v,%v])",
						node, a.disk, a.field, a.from, a.to, b.field, b.from, b.to)
				}
			}
		}
	}

	for _, byTarget := range []map[int][]faultWindow{serverWin, clientWin} {
		for target, ws := range byTarget {
			for i := range ws {
				for j := i + 1; j < len(ws); j++ {
					a, b := ws[i], ws[j]
					if a.from < b.to && b.from < a.to {
						return invalid(a.field,
							"overlapping fault windows on target %d (%s [%v,%v] and %s [%v,%v])",
							target, a.field, a.from, a.to, b.field, b.from, b.to)
					}
				}
			}
		}
	}
	for seg, ws := range segWin {
		for i := range ws {
			for j := i + 1; j < len(ws); j++ {
				a, b := ws[i], ws[j]
				if a.from < b.to && b.from < a.to {
					return invalid(a.field,
						"overlapping outage windows on segment %q (%s [%v,%v] and %s [%v,%v])",
						seg, a.field, a.from, a.to, b.field, b.from, b.to)
				}
			}
		}
	}
	// An adopter must survive from the failover on: adopted exports die
	// with it and nothing re-adopts them. A host-fatal window still open
	// (or opening) after the failover instant makes the failover a
	// scheduled durability loss; windows fully recovered before it are
	// fine (the takeover waits out a remount tail), and link outages
	// never take the host down at all.
	for _, ad := range adoptions {
		for _, w := range serverWin[ad.to] {
			if w.fatal && w.to > ad.at {
				return invalid(ad.field,
					"failover to node %d, which %s schedules down at %v — the adopter must stay up from the failover on",
					ad.to, w.field, w.from)
			}
		}
	}
	for _, bp := range biodPoints {
		for _, w := range clientWin[bp.client] {
			// Only host-fatal windows matter: biods are alive (and
			// killable) during a mere link outage.
			if w.fatal && bp.at >= w.from && bp.at < w.to {
				return invalid(bp.field,
					"biod loss at %v lands inside %s's down-window [%v,%v]",
					bp.at, w.field, w.from, w.to)
			}
		}
	}
	if r.faults.CheckDurability && r.kind == KindTrace {
		return invalid("faults.check_durability", "the trace workload has no durability journal")
	}
	if ev, field, ok := r.firstImageFault(); ok && sim.Time(eventAt(ev)) < laddisBarrier {
		return imageFaultError(field, ev, fmt.Sprintf("none opens before %v", sim.Duration(laddisBarrier)))
	}
	return nil
}

// eventAt pulls the scheduling instant out of a fault event.
func eventAt(ev FaultEvent) sim.Duration {
	switch ev.Kind {
	case FaultServerCrash:
		return ev.ServerCrash.At
	case FaultClientReboot:
		return ev.ClientReboot.At
	case FaultBiodLoss:
		return ev.BiodLoss.At
	case FaultShardFailover:
		return ev.ShardFailover.At
	case FaultLinkOutage:
		return ev.LinkOutage.At
	case FaultDiskReadError:
		return ev.DiskReadError.At
	case FaultDiskDegraded:
		return ev.DiskDegraded.At
	case FaultDiskTornWrite:
		return ev.DiskTornWrite.At
	case FaultNVRAMLyingSync:
		return ev.NVRAMLyingSync.At
	}
	return 0
}

// firstImageFault finds the earliest scheduled event of an open-loop cell
// that takes a server or its storage away — a crash, a failover or a
// storage fault — with its spec field. The open-loop set-up process holds
// the servers' filesystems while it builds the starting image, so such an
// event may not fire before the window opens; a link outage may (set-up
// sends nothing). Other workload kinds set up over the wire and carry no
// such constraint.
func (r *resolved) firstImageFault() (first FaultEvent, field string, ok bool) {
	if r.kind != KindOpenload {
		return FaultEvent{}, "", false
	}
	for i, ev := range r.faults.Events {
		switch ev.Kind {
		case FaultServerCrash, FaultShardFailover, FaultDiskReadError,
			FaultDiskDegraded, FaultDiskTornWrite, FaultNVRAMLyingSync:
		default:
			continue
		}
		if !ok || eventAt(ev) < eventAt(first) {
			first, field, ok = ev, eventField(i), true
		}
	}
	return first, field, ok
}

// eventField names the spec field of the i-th fault event.
func eventField(i int) string { return fmt.Sprintf("faults.events[%d]", i) }

// imageFaultError is the spec error for an event firstImageFault found
// ahead of the window; window says what is known of the window then.
func imageFaultError(field string, ev FaultEvent, window string) error {
	return invalid(field,
		"%s at %v lands ahead of the measured window (%s): open-loop set-up builds the export through ufs and holds the servers' filesystems until the window opens; schedule the fault inside it",
		ev.Kind, eventAt(ev), window)
}

// checkVariant enforces the tagged-union contract: exactly the variant
// matching Kind is set.
func (r *resolved) checkVariant(field string, ev FaultEvent) error {
	variants := []struct {
		kind string
		set  bool
	}{
		{FaultServerCrash, ev.ServerCrash != nil},
		{FaultClientReboot, ev.ClientReboot != nil},
		{FaultBiodLoss, ev.BiodLoss != nil},
		{FaultShardFailover, ev.ShardFailover != nil},
		{FaultLinkOutage, ev.LinkOutage != nil},
		{FaultDiskReadError, ev.DiskReadError != nil},
		{FaultDiskDegraded, ev.DiskDegraded != nil},
		{FaultDiskTornWrite, ev.DiskTornWrite != nil},
		{FaultNVRAMLyingSync, ev.NVRAMLyingSync != nil},
	}
	known := false
	for _, v := range variants {
		if v.kind == ev.Kind {
			known = true
			if !v.set {
				return invalid(field, "kind %q declared but its %s variant is missing", ev.Kind, jsonName(ev.Kind))
			}
		} else if v.set {
			return invalid(field, "kind %q set alongside a %s variant", ev.Kind, v.kind)
		}
	}
	if !known {
		names := make([]string, len(variants))
		for i, v := range variants {
			names[i] = fmt.Sprintf("%q", v.kind)
		}
		return invalid(field, "unknown fault kind %q (want one of %s)", ev.Kind,
			strings.Join(names, ", "))
	}
	return nil
}

// jsonName maps a fault kind tag to its variant's JSON field name.
func jsonName(kind string) string {
	return strings.ReplaceAll(kind, "-", "_")
}

// nodeStripeDisks resolves one shard's spindle count: the homogeneous
// setting (0 defaults to 1) plus any per-node override — the same
// resolution the cluster build performs.
func (r *resolved) nodeStripeDisks(node int) int {
	n := r.servers.StripeDisks
	if node < len(r.servers.Nodes) && r.servers.Nodes[node].StripeDisks != nil {
		n = *r.servers.Nodes[node].StripeDisks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// nodePresto resolves whether one shard runs an NVRAM board.
func (r *resolved) nodePresto(node int) bool {
	p := r.servers.Presto
	if node < len(r.servers.Nodes) && r.servers.Nodes[node].Presto != nil {
		p = *r.servers.Nodes[node].Presto
	}
	return p
}

// checkDiskTarget validates a (node, disk) storage-fault target against
// the resolved topology. disk -1 selects every stripe member.
func (r *resolved) checkDiskTarget(field string, node, disk int) error {
	if node < 0 || node >= r.servers.Count {
		return invalid(field, "fault targets unknown node %d (topology has %d servers)", node, r.servers.Count)
	}
	if nd := r.nodeStripeDisks(node); disk < -1 || disk >= nd {
		return invalid(field, "fault targets unknown disk %d on node %d (%d spindles; -1 means all)", disk, node, nd)
	}
	return nil
}

// clientBiods resolves a client index to its group's biod count.
func (r *resolved) clientBiods(idx int) int {
	for _, g := range r.groups {
		if idx < g.Count {
			return g.Biods
		}
		idx -= g.Count
	}
	return 0
}

// clusterConfig maps the resolved cell onto a cluster build: the paper
// boot for the rig assembly, the crashable default for the cluster one.
func (r *resolved) clusterConfig() cluster.Config {
	cfg := cluster.Config{
		PaperBoot:      r.assembly == AssemblyRig,
		Net:            r.net,
		Servers:        r.servers.Count,
		Presto:         r.servers.Presto,
		Gathering:      r.servers.Gathering,
		GatherOverride: r.servers.GatherOverride,
		StripeDisks:    r.servers.StripeDisks,
		NumNfsds:       r.servers.Nfsds,
		CPUScale:       r.cpuScale,
		Seed:           r.seed,
		Inodes:         r.servers.Inodes,
		RecordReplies:  r.servers.RecordReplies,
		Segments:       r.segments,
		ServerSegment:  r.servers.Segment,
	}
	for _, o := range r.servers.Nodes {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeConfig{
			Presto: o.Presto, StripeDisks: o.StripeDisks, NumNfsds: o.Nfsds, Inodes: o.Inodes,
			Segment: o.Segment,
		})
	}
	if len(r.groups) == 1 {
		// The homogeneous form, byte-compatible with pre-scenario rigs.
		cfg.Clients = r.groups[0].Count
		cfg.Biods = r.groups[0].Biods
		cfg.ClientRetries = r.groups[0].MaxRetries
		cfg.ClientSegment = r.groups[0].Segment
	} else {
		for _, g := range r.groups {
			cfg.ClientGroups = append(cfg.ClientGroups, cluster.ClientGroup(g))
		}
	}
	return cfg
}
