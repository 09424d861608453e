package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
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
	segNames []string // declared segment names in order; nil without media

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

// override sets *dst to *p when p is set: a cell's override, or a
// workload's declared parameters.
func override[T any](dst, p *T) {
	if p != nil {
		*dst = *p
	}
}

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
	override(&cfg.Seed, cell.Seed)

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
		netName = media[slices.Index(r.segNames, cmp.Or(cfg.ServerSegment, r.rootSeg))].Net
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
	override(&groups[0].Count, cell.Clients)
	for gi := range groups {
		g := &groups[gi]
		override(&g.Biods, cell.Biods)
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
	override(&cfg.Servers, cell.Servers)
	override(&cfg.Gathering, cell.Gathering)
	override(&cfg.Presto, cell.Presto)
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
		override(&r.copyW, s.Workload.Copy)
		override(&r.copyW.FileMB, cell.FileMB)
		r.copyW.FileMB = cmp.Or(r.copyW.FileMB, 10) // the paper's transfer size
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
		override(&r.laddis.OfferedOpsPerSec, cell.OfferedOpsPerSec)
		if r.laddis.OfferedOpsPerSec <= 0 {
			return nil, invalid("workload.laddis.offered_ops_per_sec", "offered load must be positive")
		}
		if r.laddis.Measure <= 0 {
			return nil, invalid("workload.laddis.measure_ns", "measured phase must be positive")
		}
		if r.laddis.Files < 0 || r.laddis.FileBlocks < 0 || r.laddis.Procs < 0 {
			return nil, invalid("workload.laddis", "negative working-set or generator parameters")
		}
	case KindStream:
		override(&r.stream, s.Workload.Stream)
		override(&r.stream.FileMB, cell.FileMB)
		if r.stream.FileMB < 1 {
			return nil, invalid("workload.stream.file_mb", "per-client stream size must be at least 1MB")
		}
	case KindTrace:
		override(&r.trace, s.Workload.Trace)
		if r.trace.FileKB < 1 {
			return nil, invalid("workload.trace.file_kb", "transfer size must be at least 1KB")
		}
		r.trace.WindowAfterKB = cmp.Or(r.trace.WindowAfterKB, 100)
		r.trace.Window = cmp.Or(r.trace.Window, 60*sim.Millisecond)
		r.trace.Bound = cmp.Or(r.trace.Bound, 60*sim.Second)
		if r.nclients != 1 {
			return nil, invalid("topology.clients",
				"the trace workload follows a single writing client (got %d)", r.nclients)
		}
	case KindOpenload:
		override(&r.open, s.Workload.Openload)
		override(&r.open.TargetOps, cell.OfferedLoad)
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
		o.SampleEvery = cmp.Or(o.SampleEvery, 100*sim.Millisecond)
		o.TraceMaxEvents = cmp.Or(o.TraceMaxEvents, 200_000)
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
	if !slices.Contains([]string{"", ArrivalFixed, ArrivalPoisson, ArrivalBursty}, w.Arrival) {
		return invalid("workload.openload.arrival",
			"unknown arrival kind %q (want one of %q, %q, %q)", w.Arrival, ArrivalFixed, ArrivalPoisson, ArrivalBursty)
	}
	if !slices.Contains([]string{"", MixLADDIS, MixMetadata}, w.Mix) {
		return invalid("workload.openload.mix",
			"unknown mix %q (want one of %q, %q)", w.Mix, MixLADDIS, MixMetadata)
	}
	if !slices.Contains([]string{"", PopFlat, PopZipf}, w.Population) {
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
	w.Files = cmp.Or(w.Files, 64)
	w.FileBlocks = cmp.Or(w.FileBlocks, 4)
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
	if r.segNames == nil {
		return invalid(field, "segment placement requires topology.media")
	}
	if !slices.Contains(r.segNames, seg) {
		return invalid(field, "unknown segment %q (declared: %s)", seg, quoted(r.segNames))
	}
	return nil
}

// quoted lists names, each quoted, for error messages.
func quoted(names []string) string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = strconv.Quote(n)
	}
	return strings.Join(q, ", ")
}

// resolveMedia validates the segment list and builds the fabric plan:
// unique named segments of known kinds, exactly one root, every uplink
// declared and acyclic, sane bridge port/budget parameters.
func (r *resolved) resolveMedia(media []Medium) error {
	r.segNames = make([]string, 0, len(media))
	for i, m := range media {
		field := fmt.Sprintf("topology.media[%d]", i)
		if m.Name == "" {
			return invalid(field, "segment needs a name")
		}
		if slices.Contains(r.segNames, m.Name) {
			return invalid(field, "duplicate segment name %q", m.Name)
		}
		r.segNames = append(r.segNames, m.Name)
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
		if !slices.Contains(r.segNames, m.Uplink) {
			return invalid(field, "uplink names unknown segment %q (declared: %s)", m.Uplink, quoted(r.segNames))
		}
	}
	if r.rootSeg == "" {
		return invalid("topology.media",
			"no root segment: every segment declares an uplink, so the graph cycles and no segment can reach a server")
	}
	for i, m := range media {
		hops := 0
		for at := m.Name; at != r.rootSeg; at = media[slices.Index(r.segNames, at)].Uplink {
			if hops++; hops > len(media) {
				return invalid(fmt.Sprintf("topology.media[%d]", i),
					"segment %q cannot reach the root %q — an uplink cycle orphans it from every server", m.Name, r.rootSeg)
			}
		}
	}
	for _, m := range media {
		p, _ := netParams(m.Net)
		lat, q := cmp.Or(m.BridgeLatency, DefaultBridgeLatency), cmp.Or(m.BridgeQueue, DefaultBridgeQueue)
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
	var outMedia []Medium
	var outGroups []ClientGroup
	for _, m := range media {
		if m.Uplink != "" {
			if n == 0 {
				continue
			}
			n--
		}
		outMedia = append(outMedia, m)
	}
	for _, g := range groups {
		if g.Segment == "" || slices.ContainsFunc(outMedia, func(m Medium) bool { return m.Name == g.Segment }) {
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

// validateFaults checks each fault event by its own kind, then the rules
// that span events: no two down windows on one target overlap (the
// injector skips a fault aimed at a target that is still down, so an
// overlapping schedule would silently drop cycles instead of running
// what the spec describes), no host-fatal window overlaps a window in
// which its target must stay up, and the open-loop image rule. Of
// several conflicts the one whose earlier event is declared first is
// reported.
func (r *resolved) validateFaults() error {
	var topo *fault.Topology
	var down, up []faultWindow
	for i, ev := range r.faults.Events {
		field := eventField(i)
		if err := checkVariant(field, ev); err != nil {
			return err
		}
		if topo == nil {
			topo = r.topology()
		}
		f := ev.Fault()
		if err := f.Check(topo); err != nil {
			return invalid(field, "%v", err)
		}
		r.storageFaults = r.storageFaults || f.Reach() == fault.ReachStorage
		for _, w := range f.Windows() {
			if w.Up != nil {
				up = append(up, faultWindow{w, field})
			} else {
				down = append(down, faultWindow{w, field})
			}
		}
	}
	if a, b, ok := firstOverlap(down); ok {
		return invalid(a.field, "overlapping %v (%s [%v,%v] and %s [%v,%v])",
			a.Target, a.field, a.From, a.To, b.field, b.From, b.To)
	}
	for i := range up {
		for j := range down {
			if u, d := &up[i], &down[j]; d.Fatal && meet(u, d) {
				return invalid(u.field, "%s", u.Up(d.field, d.From, d.To))
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

// faultWindow is a fault event's window with the event's spec field.
type faultWindow struct {
	fault.Window
	field string
}

// meet reports whether a and b hold one target at once.
func meet(a, b *faultWindow) bool {
	return a.From < b.To && b.From < a.To && a.Target.Shares(b.Target)
}

// firstOverlap finds, of the pairs of down windows that meet, the one
// whose earlier window comes first in ws, and of those the one whose later
// window does. Only windows that meet some other are paired: a sweep per
// target, over its windows sorted by start, finds them, so a long train
// with no overlap costs a sort, not a comparison per pair of cycles.
//
// The sweep marks a window, and the one with the latest end so far, when
// the two meet. For windows with From < To that marks every window that
// meets another: one that meets an earlier-starting window meets the
// latest-ending of those; one that meets a later-starting window meets
// its successor in start order, and that successor's latest-ending
// predecessor is the window itself or covers it. A window that holds
// every spindle of a node (Disk -1) or has To <= From (only an
// overflowing train makes one) is compared with every window instead.
func firstOverlap(ws []faultWindow) (a, b *faultWindow, ok bool) {
	met := make([]bool, len(ws))
	mark := func(i, j int) {
		if i != j && meet(&ws[i], &ws[j]) {
			met[i], met[j] = true, true
		}
	}
	sweeps := map[fault.Target][]int{}
	for i := range ws {
		if w := &ws[i]; w.Target.Disk < 0 || w.To <= w.From {
			for j := range ws {
				mark(i, j)
			}
		} else {
			sweeps[w.Target] = append(sweeps[w.Target], i)
		}
	}
	for _, sweep := range sweeps {
		slices.SortFunc(sweep, func(i, j int) int {
			return cmp.Or(cmp.Compare(ws[i].From, ws[j].From), cmp.Compare(i, j))
		})
		latest := sweep[0]
		for _, i := range sweep[1:] {
			mark(latest, i)
			if ws[i].To > ws[latest].To {
				latest = i
			}
		}
	}
	var paired []int
	for i, m := range met {
		if m {
			paired = append(paired, i)
		}
	}
	for k, i := range paired {
		for _, j := range paired[k+1:] {
			if meet(&ws[i], &ws[j]) {
				return &ws[i], &ws[j], true
			}
		}
	}
	return nil, nil, false
}

// topology is the view of the cell the fault kinds check themselves
// against.
func (r *resolved) topology() *fault.Topology {
	t := &fault.Topology{
		Segments:     r.segNames,
		Root:         r.rootSeg,
		Workload:     r.kind,
		Stream:       r.kind == KindStream,
		StatfsByName: r.kind == KindLADDIS || r.kind == KindOpenload,
	}
	for i := range r.cfg.Servers {
		t.Nodes = append(t.Nodes, r.cfg.Shard(i))
	}
	for _, g := range r.cfg.ClientGroups {
		for range g.Count {
			t.Biods = append(t.Biods, g.Biods)
		}
	}
	return t
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
		if f := ev.Fault(); f.Reach() != fault.ReachHosts && (!ok || f.Start() < first.Fault().Start()) {
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
	var kinds []string
	for _, v := range ev.variants() {
		kinds = append(kinds, v.kind)
		switch {
		case v.kind == ev.Kind && v.fault == nil:
			return invalid(field, "kind %q declared but its %s variant is missing", ev.Kind, strings.ReplaceAll(ev.Kind, "-", "_"))
		case v.kind != ev.Kind && v.fault != nil:
			return invalid(field, "kind %q set alongside a %s variant", ev.Kind, v.kind)
		}
	}
	if !slices.Contains(kinds, ev.Kind) {
		return invalid(field, "unknown fault kind %q (want one of %s)", ev.Kind, quoted(kinds))
	}
	return nil
}
