package fault

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Host and network fault kind tags. A scenario spec's tagged fault event
// names its kind with one of these (the storage tags are in storage.go).
const (
	KindServerCrash   = "server-crash"
	KindClientReboot  = "client-reboot"
	KindBiodLoss      = "biod-loss"
	KindShardFailover = "shard-failover"
	KindLinkOutage    = "link-outage"
)

// Kind is one fault type. It owns its failure mode whole: the checks on
// its own fields, the windows it claims, and the timed injection and
// recovery transitions, each recorded in EventsFired and the shared
// counters.
//
// Every kind is also the scenario schema's variant for its tag: its JSON
// fields are the spec's, so the fault a spec declares is the object that
// injects it. A new kind is one file here implementing Kind, plus its
// variant field on scenario.FaultEvent and its line in that type's
// variants().
type Kind interface {
	// Start is the simulated instant of the fault's first transition.
	Start() sim.Duration
	// Check validates the kind's own fields against the cell. The error
	// is the reason only; the caller names the spec field.
	Check(t *Topology) error
	// Windows lists the spans in which the kind holds a target down and
	// those in which one must stay up (Window.Up), for a kind Check
	// accepted. The rules between windows are the caller's.
	Windows() []Window
	// Reach says how far into a server the kind reaches.
	Reach() Reach
	// Schedule arms the fault's transitions. Called before the simulation
	// runs; all timing is via the cluster's simulator.
	Schedule(in *Injector)
}

// Annotator is implemented by the kinds that change the durability
// checker's obligations: a kind that may legitimately lose unacked
// buffered writes, or acked bytes, says so on the journal. Every other
// kind leaves each acked byte a hard obligation.
type Annotator interface {
	AnnotateJournal(in *Injector, j *Journal)
}

// ServerCrash schedules Count crash/reboot cycles on server shard Node:
// the first crash at At, repeating every Period, each with the given
// Outage before the reboot starts. A cycle that comes due while the node
// is still down is skipped. A server crash changes no obligations: every
// acked byte must survive it. That is the contract under test.
type ServerCrash struct {
	Node int `json:"node"`
	Train
}

func (f ServerCrash) Check(t *Topology) error {
	return cmp.Or(t.node(f.Node), f.valid("crash"))
}

func (f ServerCrash) Windows() []Window { return f.windows(Target{On: OnNode, Index: f.Node}, true) }
func (ServerCrash) Reach() Reach        { return ReachServer }

// Schedule arms each cycle: the crash fires exactly at its instant, the
// reboot process starts after Outage and takes additional simulated time
// for the remount (recorded in RecoveryTimes).
func (f ServerCrash) Schedule(in *Injector) {
	node := in.c.Nodes[f.Node]
	s := in.c.Sim
	for _, w := range f.Windows() {
		s.At(in.until(w.From, "crash"), func() {
			if node.Down {
				return // overlapping schedules: already down
			}
			node.Crash()
			in.Crashes++
			in.fired("server-crash %s", node.Name)
			s.SpawnAfter(f.Outage, fmt.Sprintf("reboot-%s", node.Name), func(p *sim.Proc) {
				start := p.Now()
				if err := node.Reboot(p); err != nil {
					in.Failures = append(in.Failures, err)
					return
				}
				in.RecoveryTimes = append(in.RecoveryTimes, p.Now().Sub(start))
				in.Reboots++
				in.fired("server-reboot %s", node.Name)
			})
		})
	}
}

// ClientReboot power-cycles client host Client (0-based index into the
// cluster's client population) at At: the host's daemons and applications
// die, dirty write-behind and pending biod retries are discarded with host
// memory, and after Outage the host boots back with fresh daemons.
// Applications do not restart — an interrupted stream stays interrupted.
type ClientReboot struct {
	Client int          `json:"client"`
	At     sim.Duration `json:"at_ns"`
	Outage sim.Duration `json:"outage_ns"`
}

func (f ClientReboot) Start() sim.Duration { return f.At }
func (ClientReboot) Reach() Reach          { return ReachHosts }

func (f ClientReboot) Check(t *Topology) error {
	return cmp.Or(
		t.client(f.Client),
		errIf(f.Outage <= 0, "outage must be positive"),
		errIf(f.At < 0, "reboot time must not be negative"),
		t.losesClients(),
	)
}

func (f ClientReboot) Windows() []Window {
	return []Window{{Target: Target{On: OnClient, Index: f.Client}, From: f.At, To: f.At + f.Outage, Fatal: true}}
}

func (f ClientReboot) Schedule(in *Injector) {
	cli := in.c.Clients[f.Client]
	s := in.c.Sim
	s.At(in.until(f.At, "client reboot"), func() {
		if cli.Down {
			return
		}
		cli.Crash()
		in.fired("client-crash %s", cli.Name())
		s.At(f.Outage, func() {
			cli.Reboot()
			in.ClientReboots++
			in.fired("client-reboot %s", cli.Name())
		})
	})
}

// AnnotateJournal marks the target client crash-exposed: its buffered
// writes that never earned a server ack are a permitted loss, not a
// durability violation. Server-acked writes stay hard obligations — the
// client forgetting it wrote them does not excuse the server losing them.
func (f ClientReboot) AnnotateJournal(in *Injector, j *Journal) {
	j.NoteCrashExposed(in.c.Clients[f.Client].Name())
}

// BiodLoss kills Lose of one client's biod daemons at At — the daemons
// never come back, so write-behind degrades toward §4.1's do-it-yourself
// flow control. A daemon killed mid-RPC abandons its write unacked.
type BiodLoss struct {
	Client int          `json:"client"`
	At     sim.Duration `json:"at_ns"`
	Lose   int          `json:"lose"`
}

func (f BiodLoss) Start() sim.Duration { return f.At }
func (BiodLoss) Reach() Reach          { return ReachHosts }

func (f BiodLoss) Check(t *Topology) error {
	if err := cmp.Or(t.client(f.Client), errIf(f.At < 0, "loss time must not be negative"), t.losesClients()); err != nil {
		return err
	}
	biods := t.Biods[f.Client]
	return errIf(f.Lose < 1 || f.Lose > biods, "lose must be between 1 and the client's %d biods", biods)
}

// Windows: the loss is an instant at which its client must be up. Biods
// are alive, and killable, through a mere link outage.
func (f BiodLoss) Windows() []Window {
	return []Window{{Target: Target{On: OnClient, Index: f.Client}, From: f.At, To: f.At + 1,
		Up: func(field string, from, to sim.Duration) string {
			return fmt.Sprintf("biod loss at %v lands inside %s's down-window [%v,%v]", f.At, field, from, to)
		}}}
}

func (f BiodLoss) Schedule(in *Injector) {
	cli := in.c.Clients[f.Client]
	in.c.Sim.At(in.until(f.At, "biod loss"), func() {
		if cli.Down {
			return
		}
		killed := cli.KillBiods(f.Lose)
		if killed == 0 {
			return // pool already empty (an earlier loss): nothing happened
		}
		in.BiodsLost += killed
		in.fired("biod-loss %s (-%d daemons)", cli.Name(), killed)
	})
}

// AnnotateJournal: a killed daemon's in-flight write was never acked, so
// the client counts as crash-exposed for buffered-loss accounting.
func (f BiodLoss) AnnotateJournal(in *Injector, j *Journal) {
	j.NoteCrashExposed(in.c.Clients[f.Client].Name())
}

// ShardFailover kills shard Node at At and, after the Takeover delay
// (failure detection plus tray handover), has surviving shard To adopt
// its disks under a stable FSID: NVRAM replay, remount at device speed,
// and a dedicated server instance under the adopter's CPU. Existing file
// handles stay valid and clients reroute to the adopter. The source node
// never reboots — its export lives on through the adopter. Failover
// preserves every obligation: the platters move, and the acked bytes must
// all still be readable through the adopter.
type ShardFailover struct {
	Node     int          `json:"node"`
	To       int          `json:"to"`
	At       sim.Duration `json:"at_ns"`
	Takeover sim.Duration `json:"takeover_ns"`
}

func (f ShardFailover) Start() sim.Duration { return f.At }
func (ShardFailover) Reach() Reach          { return ReachServer }

func (f ShardFailover) Check(t *Topology) error {
	return cmp.Or(
		t.node(f.Node),
		errIf(f.To < 0 || f.To >= len(t.Nodes), "failover to unknown node %d (topology has %d servers)", f.To, len(t.Nodes)),
		errIf(f.To == f.Node, "a shard cannot fail over to itself"),
		errIf(f.At < 0 || f.Takeover < 0, "failover and takeover times must not be negative"),
		errIf(t.StatfsByName,
			"shard failover requires a fully handle-routed workload; the %s generators issue statfs to the default server by name, which cannot follow a migrated export", t.Workload),
	)
}

// Windows: the source never comes back, so its down window is open-ended
// and rejects any later event aimed at it. The adopter must stay up from
// the failover on, since nothing re-adopts exports that die with it; a
// crash recovered before the failover is fine (the takeover waits out a
// remount tail).
func (f ShardFailover) Windows() []Window {
	return []Window{
		{Target: Target{On: OnNode, Index: f.Node}, From: f.At, To: math.MaxInt64, Fatal: true},
		{Target: Target{On: OnNode, Index: f.To}, From: f.At, To: math.MaxInt64,
			Up: func(field string, from, _ sim.Duration) string {
				return fmt.Sprintf("failover to node %d, which %s schedules down at %v — the adopter must stay up from the failover on", f.To, field, from)
			}},
	}
}

func (f ShardFailover) Schedule(in *Injector) {
	s := in.c.Sim
	s.At(in.until(f.At, "failover"), func() {
		node := in.c.Nodes[f.Node]
		if !node.Down {
			node.Crash()
			in.Crashes++
			in.fired("server-crash %s (failover source)", node.Name)
		}
		adopter := in.c.Nodes[f.To]
		s.SpawnAfter(f.Takeover, fmt.Sprintf("failover-%s-%s", node.Name, adopter.Name),
			func(p *sim.Proc) {
				// An earlier crash train's reboot may still be remounting on
				// either node (validation bounds scheduled windows, but a
				// remount tail is device-timed and extends past them).
				// Adoption must not mount platters a racing reboot is
				// mid-mount on, so wait each side out: the adopter finishes
				// booting, and the source — the failover decision stands —
				// is powered back off the instant its reboot completes.
				for adopter.Rebooting || node.Rebooting {
					p.Sleep(5 * sim.Millisecond)
				}
				if !node.Down {
					node.Crash()
					in.Crashes++
					in.fired("server-crash %s (failover source, rebooted mid-takeover)", node.Name)
				}
				start := p.Now()
				if err := adopter.Adopt(p, node); err != nil {
					in.Failures = append(in.Failures, err)
					return
				}
				in.RecoveryTimes = append(in.RecoveryTimes, p.Now().Sub(start))
				in.Failovers++
				in.fired("shard-failover %s->%s", node.Name, adopter.Name)
			})
	})
}

// LinkOutage severs one network attachment for a train of timed windows:
// Count cycles starting at At, spaced every Period, each Outage long.
// Exactly one of Node (a server shard), Client (a client host) and
// Segment (a bridged segment's uplink port, partitioning every host on it
// from the rest of the fabric) selects the target. The host stays up —
// clients ride it out with retransmission, a cut-off server keeps serving
// its queued work into a dead interface. An outage loses datagrams, never
// acked bytes (the retransmission layer's whole job), so no obligation
// changes.
type LinkOutage struct {
	Node    *int    `json:"node,omitempty"`
	Client  *int    `json:"client,omitempty"`
	Segment *string `json:"segment,omitempty"`
	Train
}

func (f LinkOutage) Check(t *Topology) error {
	targets := 0
	for _, set := range []bool{f.Node != nil, f.Client != nil, f.Segment != nil} {
		if set {
			targets++
		}
	}
	if targets != 1 {
		return errors.New("exactly one of node, client and segment selects the outage target")
	}
	if err := f.valid("outage"); err != nil {
		return err
	}
	switch g := f.target(); g.On {
	case OnSegment:
		return cmp.Or(
			errIf(len(t.Segments) < 2, "segment outages require a multi-segment topology.media"),
			errIf(g.Segment == "", "segment target must name a segment (declared: %s)", t.segments()),
			errIf(!slices.Contains(t.Segments, g.Segment), "unknown segment %q (declared: %s)", g.Segment, t.segments()),
			errIf(g.Segment == t.Root, "segment %q is the root and has no uplink to sever", g.Segment),
		)
	case OnNode:
		return errIf(g.Index < 0 || g.Index >= len(t.Nodes), "fault targets unknown node %d", g.Index)
	default:
		return errIf(g.Index < 0 || g.Index >= len(t.Biods), "fault targets unknown client %d", g.Index)
	}
}

// target is the one attachment Check made sure the outage selects.
func (f LinkOutage) target() Target {
	switch {
	case f.Segment != nil:
		return Target{On: OnSegment, Segment: *f.Segment}
	case f.Node != nil:
		return Target{On: OnNode, Index: *f.Node}
	}
	return Target{On: OnClient, Index: *f.Client}
}

// Windows: an outage severs the attachment only, so its windows are not
// host-fatal.
func (f LinkOutage) Windows() []Window { return f.windows(f.target(), false) }
func (LinkOutage) Reach() Reach        { return ReachHosts }

// targets resolves the host's endpoint names at fire time. A server host
// carries one endpoint per export it serves — its own plus any adopted
// ones — and a severed NIC cuts them all.
func (f LinkOutage) targets(in *Injector) []string {
	if f.Client != nil {
		return []string{in.c.Clients[*f.Client].Name()}
	}
	var names []string
	for _, ex := range in.c.Nodes[*f.Node].Exports {
		names = append(names, ex.Name)
	}
	return names
}

// hostDown reports whether the outage target's host is down (or still
// remounting) — there is no attachment to sever then. A segment target
// has no host: its uplink port is bridge hardware, always severable.
func (f LinkOutage) hostDown(in *Injector) bool {
	if f.Segment != nil {
		return false
	}
	if f.Client != nil {
		return in.c.Clients[*f.Client].Down
	}
	n := in.c.Nodes[*f.Node]
	return n.Down || n.Rebooting
}

func (f LinkOutage) Schedule(in *Injector) {
	s := in.c.Sim
	for _, w := range f.Windows() {
		delay := in.until(w.From, "link outage")
		// Each cycle is a paired down/up transition. A cycle aimed at a
		// host that is down at the down-instant (a crash window precedes
		// the cycle and its device-timed remount tail runs long) is
		// skipped whole — the attachment is already gone, and counting a
		// cut that never happened would misreport the run. Same skip
		// semantics as a crash aimed at a node still down.
		cut := new(bool)
		s.At(delay, func() {
			if f.hostDown(in) {
				return
			}
			if f.Segment != nil {
				if !in.c.Fabric.SetUplinkDown(*f.Segment, true) {
					return
				}
				*cut = true
				in.LinkOutages++
				in.fired("link-down segment %s", *f.Segment)
				return
			}
			names := f.targets(in)
			for _, name := range names {
				in.c.Fabric.SetLinkDown(name, true)
			}
			*cut = true
			in.LinkOutages++
			in.fired("link-down %s", names[0])
		})
		s.At(delay+f.Outage, func() {
			if !*cut {
				return
			}
			if f.Segment != nil {
				in.c.Fabric.SetUplinkDown(*f.Segment, false)
				in.fired("link-up segment %s", *f.Segment)
				return
			}
			// Re-resolve: an export adopted during the window attached to
			// the severed NIC (Adopt inherits the link state) and comes
			// back with it.
			names := f.targets(in)
			for _, name := range names {
				in.c.Fabric.SetLinkDown(name, false)
			}
			in.fired("link-up %s", names[0])
		})
	}
}
