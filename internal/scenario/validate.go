package scenario

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
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
	label string
	// cfg is the cell's cluster build, filled as the topology validates;
	// the runner adds only the cell's ledger and observer hook. Its
	// Segments are the fabric plan of topology.media (one entry for media
	// of one segment), nil for a plain Net, which the cluster builds as a
	// one-segment fabric itself. PaperBoot is the rig assembly.
	cfg      cluster.Config
	nclients int
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
	srv := s.Topology.Servers
	r := &resolved{
		label: cell.Label,
		cfg: cluster.Config{
			Seed:           s.Seed,
			CPUScale:       s.Topology.CPUScale,
			Servers:        srv.Count,
			Presto:         srv.Presto,
			Gathering:      srv.Gathering,
			GatherOverride: srv.GatherOverride,
			StripeDisks:    srv.StripeDisks,
			NumNfsds:       srv.Nfsds,
			Inodes:         srv.Inodes,
			ServerSegment:  srv.Segment,
			Nodes:          srv.Nodes,
		},
		kind:   s.Workload.Kind,
		faults: s.Faults,
	}
	cfg := &r.cfg
	if r.label == "" {
		r.label = fmt.Sprintf("cell%02d", idx)
	}
	if cell.Seed != nil {
		cfg.Seed = *cell.Seed
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
		if err := r.checkSegment("topology.servers.segment", cfg.ServerSegment); err != nil {
			return nil, err
		}
		netName = media[r.segIndex[cmp.Or(cfg.ServerSegment, r.rootSeg)]].Net
	} else if cfg.ServerSegment != "" {
		return nil, invalid("topology.servers.segment",
			"segment placement requires topology.media")
	}
	net, ok := netParams(netName)
	if !ok {
		return nil, invalid("topology.net", "unknown medium %q (want one of %s)", netName, knownMediaKinds())
	}
	cfg.Net = net

	// Client groups.
	if len(groups) == 0 {
		return nil, invalid("topology.clients", "no client groups declared")
	}
	if cell.Clients != nil {
		groups[0].Count = *cell.Clients
	}
	for gi := range groups {
		g := &groups[gi]
		if cell.Biods != nil {
			g.Biods = *cell.Biods
		}
		if g.Count < 1 {
			return nil, invalid(fmt.Sprintf("topology.clients[%d].count", gi),
				"zero clients (each group needs at least one host)")
		}
		if g.Biods < 0 || g.MaxRetries < 0 {
			return nil, invalid(fmt.Sprintf("topology.clients[%d]", gi), "negative biods or max_retries")
		}
		if err := r.checkSegment(fmt.Sprintf("topology.clients[%d].segment", gi), g.Segment); err != nil {
			return nil, err
		}
		r.nclients += g.Count
	}
	cfg.ClientGroups = groups

	// Servers.
	if cell.Servers != nil {
		cfg.Servers = *cell.Servers
	}
	if cell.Gathering != nil {
		cfg.Gathering = *cell.Gathering
	}
	if cell.Presto != nil {
		cfg.Presto = *cell.Presto
	}
	if cfg.Servers < 1 {
		return nil, invalid("topology.servers.count", "at least one server shard required")
	}
	if cfg.NumNfsds < 0 || cfg.StripeDisks < 0 || cfg.Inodes < 0 {
		return nil, invalid("topology.servers", "negative nfsds, stripe_disks or inodes")
	}
	if len(cfg.Nodes) > cfg.Servers {
		return nil, invalid("topology.servers.nodes",
			"%d node overrides for %d shards", len(cfg.Nodes), cfg.Servers)
	}
	for ni, o := range cfg.Nodes {
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

	// Assembly: the rig is the paper boot.
	needsCluster := r.needsCluster()
	switch s.Topology.Assembly {
	case "":
		cfg.PaperBoot = needsCluster == ""
	case AssemblyRig:
		if needsCluster != "" {
			return nil, invalid("topology.assembly", "rig assembly cannot express %s", needsCluster)
		}
		cfg.PaperBoot = true
	case AssemblyCluster:
	default:
		return nil, invalid("topology.assembly", "unknown assembly %q", s.Topology.Assembly)
	}
	return r, nil
}

// validateOpenload checks and defaults the resolved openload workload:
// the arrival/mix/population vocabularies are closed, and the offered
// rate and the measured phase must be positive.
func (r *resolved) validateOpenload() error {
	w := &r.open
	if w.TargetOps <= 0 {
		return invalid("workload.openload.target_ops",
			"offered rate must be > 0 ops/s (cells override it via offered_load)")
	}
	switch w.Arrival {
	case "", ArrivalFixed, ArrivalPoisson, ArrivalBursty:
	default:
		return invalid("workload.openload.arrival",
			"unknown arrival kind %q (want one of %q, %q, %q)", w.Arrival, ArrivalFixed, ArrivalPoisson, ArrivalBursty)
	}
	switch w.Mix {
	case "", MixLADDIS, MixMetadata:
	default:
		return invalid("workload.openload.mix",
			"unknown mix %q (want one of %q, %q)", w.Mix, MixLADDIS, MixMetadata)
	}
	switch w.Population {
	case "", PopFlat, PopZipf:
	default:
		return invalid("workload.openload.population",
			"unknown population %q (want one of %q, %q)", w.Population, PopFlat, PopZipf)
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
	return nil
}

// bridged reports whether the cell's network is a bridged tree of more
// than one segment. Only such a cell reports segments, bridges and their
// probe columns, or takes a segment outage: a one-segment cell is the
// paper's lone LAN and prints what it always printed.
func (r *resolved) bridged() bool { return len(r.cfg.Segments) > 1 }

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

// resolveMedia validates the segment list and builds the fabric plan:
// unique named segments of known kinds, exactly one root, every uplink
// declared and acyclic, sane bridge port/budget parameters.
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
	for _, m := range media {
		p, _ := netParams(m.Net)
		lat, q := m.BridgeLatency, m.BridgeQueue
		if lat == 0 {
			lat = DefaultBridgeLatency
		}
		if q == 0 {
			q = DefaultBridgeQueue
		}
		r.cfg.Segments = append(r.cfg.Segments, netsim.SegmentSpec{
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
	case r.cfg.Servers > 1:
		return "multiple server shards"
	case len(r.faults.Events) > 0 || r.faults.CheckDurability:
		return "fault injection (only cluster assemblies are faultable)"
	case len(r.cfg.Nodes) > 0:
		return "per-node server overrides"
	case len(r.cfg.ClientGroups) > 1:
		return "multiple client groups"
	case r.cfg.ClientGroups[0].MaxRetries > 0:
		return "a client retry override"
	case r.kind == KindStream:
		return "the stream workload"
	}
	return ""
}

// faultWindow is one scheduled window on a target, kept with the spec
// field it came from so overlap errors name both offenders. fatal windows
// take the host down (crash, reboot, failover); non-fatal ones only sever
// its attachment (link outage) — the host, its daemons and any adopted
// exports live on. disk is a degraded window's spindle (-1: every stripe
// member).
type faultWindow struct {
	from, to sim.Duration
	field    string
	fatal    bool
	disk     int
}

// overlap returns the first pair of ws, in declaration order, whose
// windows intersect and which conflict accepts (nil accepts every pair).
func overlap(ws []faultWindow, conflict func(a, b faultWindow) bool) (a, b faultWindow, ok bool) {
	for i := range ws {
		for j := i + 1; j < len(ws); j++ {
			a, b := ws[i], ws[j]
			if a.from < b.to && b.from < a.to && (conflict == nil || conflict(a, b)) {
				return a, b, true
			}
		}
	}
	return a, b, false
}

// sameSpindle reports whether two degraded windows on one node slow the
// same spindle.
func sameSpindle(a, b faultWindow) bool { return a.disk < 0 || b.disk < 0 || a.disk == b.disk }

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
	degradeWin := map[int][]faultWindow{}

	for i, ev := range r.faults.Events {
		field := eventField(i)
		if err := checkVariant(field, ev); err != nil {
			return err
		}
		switch f := ev.Fault().(type) {
		case *fault.ServerCrash:
			if f.Node < 0 || f.Node >= r.cfg.Servers {
				return invalid(field, "fault targets unknown node %d (topology has %d servers)", f.Node, r.cfg.Servers)
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
				serverWin[f.Node] = append(serverWin[f.Node], faultWindow{at, at + f.Outage, field, true, 0})
			}
		case *fault.ClientReboot:
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
			clientWin[f.Client] = append(clientWin[f.Client], faultWindow{f.At, f.At + f.Outage, field, true, 0})
		case *fault.BiodLoss:
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
		case *fault.ShardFailover:
			if f.Node < 0 || f.Node >= r.cfg.Servers {
				return invalid(field, "fault targets unknown node %d (topology has %d servers)", f.Node, r.cfg.Servers)
			}
			if f.To < 0 || f.To >= r.cfg.Servers {
				return invalid(field, "failover to unknown node %d (topology has %d servers)", f.To, r.cfg.Servers)
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
			serverWin[f.Node] = append(serverWin[f.Node], faultWindow{f.At, forever, field, true, 0})
			adoptions = append(adoptions, adoption{f.To, f.At, field})
		case *fault.LinkOutage:
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
				if !r.bridged() {
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
					segWin[seg] = append(segWin[seg], faultWindow{at, at + f.Outage, field, false, 0})
				}
				break
			}
			win := serverWin
			idx, limit, what := 0, r.cfg.Servers, "node"
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
				win[idx] = append(win[idx], faultWindow{at, at + f.Outage, field, false, 0})
			}
		case *fault.DiskReadError:
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
		case *fault.DiskDegraded:
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
				faultWindow{f.At, f.At + f.Duration, field, false, f.Disk})
			r.storageFaults = true
		case *fault.DiskTornWrite:
			if err := r.checkDiskTarget(field, f.Node, f.Disk); err != nil {
				return err
			}
			if f.At < 0 {
				return invalid(field, "arm time must not be negative")
			}
			r.storageFaults = true
		case *fault.NVRAMLyingSync:
			if f.Node < 0 || f.Node >= r.cfg.Servers {
				return invalid(field, "fault targets unknown node %d (topology has %d servers)", f.Node, r.cfg.Servers)
			}
			if !r.cfg.Shard(f.Node).Presto {
				return invalid(field, "node %d runs no NVRAM board (set topology.servers.presto or the node override)", f.Node)
			}
			if f.At < 0 {
				return invalid(field, "corruption time must not be negative")
			}
			r.storageFaults = true
		default:
			// checkVariant already rejected unknown kinds; a variant
			// added to FaultEvent but not here must fail loudly, not skip
			// its validation.
			panic("scenario: fault kind " + ev.Kind + " has no validation case")
		}
	}

	for node, ws := range degradeWin {
		if a, b, ok := overlap(ws, sameSpindle); ok {
			return invalid(a.field,
				"overlapping degraded windows on node %d disk %d (%s [%v,%v] and %s [%v,%v])",
				node, a.disk, a.field, a.from, a.to, b.field, b.from, b.to)
		}
	}
	for _, byTarget := range []map[int][]faultWindow{serverWin, clientWin} {
		for target, ws := range byTarget {
			if a, b, ok := overlap(ws, nil); ok {
				return invalid(a.field,
					"overlapping fault windows on target %d (%s [%v,%v] and %s [%v,%v])",
					target, a.field, a.from, a.to, b.field, b.from, b.to)
			}
		}
	}
	for seg, ws := range segWin {
		if a, b, ok := overlap(ws, nil); ok {
			return invalid(a.field,
				"overlapping outage windows on segment %q (%s [%v,%v] and %s [%v,%v])",
				seg, a.field, a.from, a.to, b.field, b.from, b.to)
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
	if ev, field, ok := r.firstImageFault(); ok && sim.Time(ev.Fault().Start()) < laddisBarrier {
		return imageFaultError(field, ev, fmt.Sprintf("none opens before %v", sim.Duration(laddisBarrier)))
	}
	return nil
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
		switch ev.Fault().(type) {
		case *fault.ServerCrash, *fault.ShardFailover, *fault.DiskReadError,
			*fault.DiskDegraded, *fault.DiskTornWrite, *fault.NVRAMLyingSync:
		default:
			continue
		}
		if !ok || ev.Fault().Start() < first.Fault().Start() {
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
		ev.Kind, ev.Fault().Start(), window)
}

// checkVariant enforces the tagged-union contract: exactly the variant
// matching Kind is set.
func checkVariant(field string, ev FaultEvent) error {
	variants := ev.variants()
	known := false
	for _, v := range variants {
		if v.kind == ev.Kind {
			known = true
			if v.fault == nil {
				return invalid(field, "kind %q declared but its %s variant is missing", ev.Kind, jsonName(ev.Kind))
			}
		} else if v.fault != nil {
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

// checkDiskTarget validates a (node, disk) storage-fault target against
// the resolved topology. disk -1 selects every stripe member.
func (r *resolved) checkDiskTarget(field string, node, disk int) error {
	if node < 0 || node >= r.cfg.Servers {
		return invalid(field, "fault targets unknown node %d (topology has %d servers)", node, r.cfg.Servers)
	}
	if nd := r.cfg.Shard(node).StripeDisks; disk < -1 || disk >= nd {
		return invalid(field, "fault targets unknown disk %d on node %d (%d spindles; -1 means all)", disk, node, nd)
	}
	return nil
}

// clientBiods resolves a client index to its group's biod count.
func (r *resolved) clientBiods(idx int) int {
	for _, g := range r.cfg.ClientGroups {
		if idx < g.Count {
			return g.Biods
		}
		idx -= g.Count
	}
	return 0
}
