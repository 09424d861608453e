// Package fault is the deterministic fault-injection layer over a cluster:
// nine fault kinds (server crashes, client reboots, biod loss, shard
// failover, link outages and four storage faults) driven off simulated
// time and the run's seed, plus the write-durability checker that makes
// NFS's central crash-recovery contract testable — an acked write must
// survive a server crash.
//
// Each kind is also the scenario schema's variant for its tag: a spec's
// fault event decodes straight into the value that injects it, and that
// value checks its own fields against the cell (Kind.Check) and lists the
// windows it holds a target down or needs one up (Kind.Windows). A new
// kind is one file here plus its scenario.FaultEvent variant field and
// that field's line in FaultEvent.variants().
//
// The crash model (what a crash loses and what it keeps) is implemented by
// cluster.Node.Crash/Reboot; this package owns the schedule and the audit.
package fault

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Injector schedules faults against a cluster and records recovery
// outcomes. Fault behaviour is pluggable: every fault type implements
// Kind, and the injector just arms each kind's schedule and aggregates
// the shared accounting.
type Injector struct {
	c     *cluster.Cluster
	kinds []Kind

	// Journal, when non-nil, is the durability journal kinds annotate
	// with their loss semantics (ScheduleAll passes it to each Annotator).
	Journal *Journal

	// Crashes and Reboots count completed server transitions.
	Crashes int
	Reboots int
	// ClientReboots, BiodsLost, Failovers and LinkOutages count the other
	// kinds' completed injections.
	ClientReboots int
	BiodsLost     int
	Failovers     int
	LinkOutages   int
	// StorageFaults counts storage-plane injections that fired (media
	// read errors, degraded windows, torn-write arms, lying boards).
	StorageFaults int
	// RecoveryTimes records each reboot's (or adoption's) remount duration
	// — the time the boot spent re-reading the inode region and rebuilding
	// allocation maps at device speed.
	RecoveryTimes []sim.Duration
	// Failures collects reboot errors (a failed remount is a test failure,
	// not a panic, so sweeps can report it).
	Failures []error
	// EventsFired is the ordered record of every fault transition, with
	// its simulated timestamp. It is a pure function of the spec and the
	// seed — the determinism contract scenarios assert on.
	EventsFired []string
}

// NewInjector builds an injector over c.
func NewInjector(c *cluster.Cluster) *Injector {
	return &Injector{c: c}
}

// Add registers a fault kind; ScheduleAll arms it.
func (in *Injector) Add(k Kind) { in.kinds = append(in.kinds, k) }

// ScheduleAll arms every added kind, in order, and lets each Annotator
// annotate the durability journal with its loss semantics. Kinds added in
// the same order produce the same same-instant event order — the recorded
// baselines depend on it.
func (in *Injector) ScheduleAll() {
	for _, k := range in.kinds {
		k.Schedule(in)
		if a, ok := k.(Annotator); ok && in.Journal != nil {
			a.AnnotateJournal(in, in.Journal)
		}
	}
}

// until returns the delay from now to the simulated instant at. A kind
// armed after its own instant is a harness bug.
func (in *Injector) until(at sim.Duration, what string) sim.Duration {
	delay := sim.Time(at).Sub(in.c.Sim.Now())
	if delay < 0 {
		panic(fmt.Sprintf("fault: %s time %v already past", what, at))
	}
	return delay
}

// fired appends one timestamped line to the EventsFired record.
func (in *Injector) fired(format string, args ...any) {
	in.EventsFired = append(in.EventsFired,
		fmt.Sprintf("t=%v ", sim.Duration(in.c.Sim.Now()))+fmt.Sprintf(format, args...))
}
