package fault

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Topology is the view of a resolved cell that a kind checks its own
// fields against.
type Topology struct {
	// Nodes holds each server shard's resolved build, in node order.
	Nodes []cluster.Shard
	// Biods holds each client host's biod count, in client order.
	Biods []int
	// Segments are the declared segment names in declaration order (nil
	// without topology.media), and Root is the root segment's name.
	Segments []string
	Root     string
	// Workload is the workload kind. Stream is set for the stream
	// workload, the one runner that can lose a client or absorb an
	// I/O-error reply. StatfsByName is set when the workload's
	// generators send statfs to the default server by name, which a
	// migrated export cannot follow.
	Workload     string
	Stream       bool
	StatfsByName bool
}

// node checks a server-shard target.
func (t *Topology) node(n int) error {
	return errIf(n < 0 || n >= len(t.Nodes), "fault targets unknown node %d (topology has %d servers)", n, len(t.Nodes))
}

// client checks a client-host target.
func (t *Topology) client(c int) error {
	return errIf(c < 0 || c >= len(t.Biods), "fault targets unknown client %d (topology has %d clients)", c, len(t.Biods))
}

// losesClients checks that the workload's runner can lose a client.
func (t *Topology) losesClients() error {
	return errIf(!t.Stream, "client faults require the stream workload (the %s runner cannot lose a client)", t.Workload)
}

// disk checks a (node, disk) storage target; disk -1 selects every
// member of the node's stripe.
func (t *Topology) disk(node, disk int) error {
	if err := t.node(node); err != nil {
		return err
	}
	nd := t.Nodes[node].StripeDisks
	return errIf(disk < -1 || disk >= nd, "fault targets unknown disk %d on node %d (%d spindles; -1 means all)", disk, node, nd)
}

// segments lists the declared segment names for messages.
func (t *Topology) segments() string {
	q := make([]string, len(t.Segments))
	for i, n := range t.Segments {
		q[i] = strconv.Quote(n)
	}
	return strings.Join(q, ", ")
}

// errIf returns the error format describes when bad holds, else nil. A
// kind's checks chain through cmp.Or, which returns the first error.
func errIf(bad bool, format string, args ...any) error {
	if !bad {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// TargetKind says what sort of thing a window holds.
type TargetKind uint8

const (
	OnNode TargetKind = iota
	OnClient
	OnSegment
	OnDisk
)

// Target is what a window holds: a server node, a client host, a bridged
// segment's uplink, or a spindle of a node (Disk -1: every member).
type Target struct {
	On      TargetKind
	Index   int // the node or client; a disk's node
	Disk    int
	Segment string
}

// Shares reports whether windows on t and u hold one thing: the same
// node, client or segment, or a spindle of one node where either window
// covers every member.
func (t Target) Shares(u Target) bool {
	return t.On == u.On && t.Index == u.Index && t.Segment == u.Segment &&
		(t.Disk == u.Disk || t.Disk < 0 || u.Disk < 0)
}

// String names the windows held on t, as an overlap error words them.
func (t Target) String() string {
	switch t.On {
	case OnSegment:
		return fmt.Sprintf("outage windows on segment %q", t.Segment)
	case OnDisk:
		return fmt.Sprintf("degraded windows on node %d disk %d", t.Index, t.Disk)
	}
	return fmt.Sprintf("fault windows on target %d", t.Index)
}

// Window is a span [From, To) in which a fault holds Target down or, when
// Up is set, in which Target must stay up. A Fatal down window takes the
// host away (a crash, a reboot, a failed-over source), not only its
// attachment. Up words the error for a fatal down window that overlaps
// the must-stay-up one: field is that window's spec field, from and to
// its bounds.
type Window struct {
	Target   Target
	From, To sim.Duration
	Fatal    bool
	Up       func(field string, from, to sim.Duration) string
}

// Reach is how far into a server a kind reaches: ReachHosts not at all
// (client hosts and attachments only), ReachServer takes one away, and
// ReachStorage reaches its media, spindles or NVRAM, so failed client
// operations and failed recoveries are outcomes the run declares.
type Reach uint8

const (
	ReachHosts Reach = iota
	ReachServer
	ReachStorage
)

// Train is a cycle train: Count cycles from At, one every Period, each
// holding its target down for Outage. A cycle that comes due while its
// target is still down is skipped.
type Train struct {
	At     sim.Duration `json:"at_ns"`
	Period sim.Duration `json:"period_ns,omitempty"`
	Outage sim.Duration `json:"outage_ns"`
	Count  int          `json:"count"`
}

func (c Train) Start() sim.Duration { return c.At }

// valid checks the train's parameters; what names its cycles.
func (c Train) valid(what string) error {
	return cmp.Or(
		errIf(c.Count < 1, "%s count must be at least 1", what),
		errIf(c.Outage <= 0, "outage must be positive"),
		errIf(c.At < 0, "first %s time must not be negative", what),
		errIf(c.Count > 1 && c.Period <= 0, "repeating trains need a positive period"),
	)
}

// windows is one window on target per cycle; the train's kind arms its
// cycles off them.
func (c Train) windows(target Target, fatal bool) []Window {
	ws := make([]Window, c.Count)
	for k := range ws {
		at := c.At + sim.Duration(k)*c.Period
		ws[k] = Window{Target: target, From: at, To: at + c.Outage, Fatal: fatal}
	}
	return ws
}
