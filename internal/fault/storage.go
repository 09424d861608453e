package fault

import (
	"cmp"
	"fmt"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Storage fault kind tags (see the disk/NVRAM kinds below).
const (
	KindDiskReadError  = "disk-read-error"
	KindDiskDegraded   = "disk-degraded"
	KindDiskTornWrite  = "disk-torn-write"
	KindNVRAMLyingSync = "nvram-lying-sync"
)

// Healer is implemented by fault kinds whose injection rules can outlive
// the workload — an unconsumed read-error rule, an armed torn write. The
// runner calls HealAll before the durability audit: the audit must read
// what the platters actually hold, not trip over a rule the run never
// consumed. Healing clears injection state only; data a fault already
// destroyed stays destroyed.
type Healer interface {
	Heal(in *Injector)
}

// HealAll disarms every healable kind's remaining injection rules (see
// Healer). Call it after the workload quiesces and before Journal.Verify.
func (in *Injector) HealAll() {
	for _, k := range in.kinds {
		if h, ok := k.(Healer); ok {
			h.Heal(in)
		}
	}
}

// targetDisks resolves a (node, disk) spec target onto member spindles:
// a negative disk index selects every member of the node's stripe.
func targetDisks(in *Injector, node, idx int) []*disk.Disk {
	ds := in.c.Nodes[node].Disks
	if idx < 0 {
		return ds
	}
	return ds[idx : idx+1]
}

// diskName names one spindle for the event log.
func diskName(in *Injector, node, idx int) string {
	n := in.c.Nodes[node]
	if idx < 0 {
		return fmt.Sprintf("%s/all-disks", n.Name)
	}
	return fmt.Sprintf("%s/disk%d", n.Name, idx)
}

// DiskReadError arms a media read error on server shard Node's spindle
// Disk (-1 targets every member of the shard's stripe): reads overlapping
// platter blocks [BlockFrom, BlockTo) fail with disk.ErrMedia, starting
// AfterOps overlapping reads after At, for Times occurrences (0 means one
// — the one-shot grown defect). BlockTo 0 means the end of the disk. The
// platter contents are intact — only the transfer fails, as a grown media
// defect the drive later remaps would fail it, and the server's error
// path surfaces it as an I/O-error NFS reply. No stored byte is
// destroyed, so every acked write remains a hard obligation (retries and
// recovery absorb the failed transfers).
type DiskReadError struct {
	Node      int          `json:"node"`
	Disk      int          `json:"disk,omitempty"`
	At        sim.Duration `json:"at_ns"`
	BlockFrom int64        `json:"block_from,omitempty"`
	BlockTo   int64        `json:"block_to,omitempty"`
	AfterOps  int          `json:"after_ops,omitempty"`
	Times     int          `json:"times,omitempty"`
}

func (f DiskReadError) Start() sim.Duration { return f.At }
func (DiskReadError) Windows() []Window     { return nil }
func (DiskReadError) Reach() Reach          { return ReachStorage }

func (f DiskReadError) Check(t *Topology) error {
	return cmp.Or(
		t.disk(f.Node, f.Disk),
		errIf(f.At < 0, "injection time must not be negative"),
		errIf(f.BlockFrom < 0 || f.BlockTo < 0, "negative block range"),
		errIf(f.BlockTo != 0 && f.BlockTo <= f.BlockFrom,
			"empty block range [%d,%d) (block_to 0 means end of disk)", f.BlockFrom, f.BlockTo),
		errIf(f.AfterOps < 0 || f.Times < 0, "negative after_ops or times"),
		errIf(!t.Stream, "disk read errors require the stream workload (the %s runner cannot absorb I/O-error replies)", t.Workload),
	)
}

func (f DiskReadError) Schedule(in *Injector) {
	in.c.Sim.At(in.until(f.At, "disk read error"), func() {
		for _, d := range targetDisks(in, f.Node, f.Disk) {
			d.InjectReadError(f.BlockFrom, f.BlockTo, f.AfterOps, f.Times)
		}
		in.StorageFaults++
		in.fired("disk-read-error %s blocks [%d,%d)", diskName(in, f.Node, f.Disk), f.BlockFrom, f.BlockTo)
	})
}

// Heal clears rules the workload never consumed so the audit reads clean.
func (f DiskReadError) Heal(in *Injector) {
	for _, d := range targetDisks(in, f.Node, f.Disk) {
		d.Heal()
	}
}

// DiskDegraded multiplies shard Node's spindle Disk service time by
// Factor (> 1) for the window [At, At+Duration) — a drive in internal
// error recovery, or thermal recalibration, slow but correct. Windows on
// the same spindle must not overlap. A slow disk loses nothing, so no
// obligation changes.
type DiskDegraded struct {
	Node     int          `json:"node"`
	Disk     int          `json:"disk,omitempty"`
	At       sim.Duration `json:"at_ns"`
	Duration sim.Duration `json:"duration_ns"`
	Factor   float64      `json:"factor"`
}

func (f DiskDegraded) Start() sim.Duration { return f.At }
func (DiskDegraded) Reach() Reach          { return ReachStorage }

func (f DiskDegraded) Check(t *Topology) error {
	return cmp.Or(
		t.disk(f.Node, f.Disk),
		errIf(f.At < 0, "window start must not be negative"),
		errIf(f.Duration <= 0, "window duration must be positive"),
		errIf(f.Factor <= 1, "degrade factor must exceed 1 (got %g)", f.Factor),
	)
}

// Windows: stacked windows on one spindle would multiply factors in an
// order the spec never stated, so each window claims its spindle.
func (f DiskDegraded) Windows() []Window {
	return []Window{{Target: Target{On: OnDisk, Index: f.Node, Disk: f.Disk}, From: f.At, To: f.At + f.Duration}}
}

func (f DiskDegraded) Schedule(in *Injector) {
	delay := in.until(f.At, "disk degrade")
	// The window is registered up front (the disk gates it on simulated
	// time); only the event-log entry waits for the window to open.
	from := sim.Time(f.At)
	for _, d := range targetDisks(in, f.Node, f.Disk) {
		d.Degrade(from, from.Add(f.Duration), f.Factor)
	}
	in.c.Sim.At(delay, func() {
		in.StorageFaults++
		in.fired("disk-degraded %s x%.1f for %v", diskName(in, f.Node, f.Disk), f.Factor, f.Duration)
	})
}

// DiskTornWrite arms one torn multi-block write on shard Node's spindle
// Disk at At: the next WriteBufs interrupted by a power event persists
// only a prefix of its blocks. Pair it with a server crash — without one
// the armed tear never manifests. A torn write can never violate
// durability by itself, so it exposes no acked byte to loss: the
// interrupted transfer was never acknowledged as complete, and an NVRAM
// board that acked the data replays it on recovery.
type DiskTornWrite struct {
	Node int          `json:"node"`
	Disk int          `json:"disk,omitempty"`
	At   sim.Duration `json:"at_ns"`
}

func (f DiskTornWrite) Start() sim.Duration { return f.At }
func (DiskTornWrite) Windows() []Window     { return nil }
func (DiskTornWrite) Reach() Reach          { return ReachStorage }

func (f DiskTornWrite) Check(t *Topology) error {
	return cmp.Or(t.disk(f.Node, f.Disk), errIf(f.At < 0, "arm time must not be negative"))
}

func (f DiskTornWrite) Schedule(in *Injector) {
	in.c.Sim.At(in.until(f.At, "torn write arm"), func() {
		for _, d := range targetDisks(in, f.Node, f.Disk) {
			d.ArmTornWrite()
		}
		in.StorageFaults++
		in.fired("disk-torn-write armed %s", diskName(in, f.Node, f.Disk))
	})
}

// Heal disarms a tear no crash ever consumed.
func (f DiskTornWrite) Heal(in *Injector) {
	for _, d := range targetDisks(in, f.Node, f.Disk) {
		d.Heal()
	}
}

// NVRAMLyingSync corrupts shard Node's NVRAM board at At (the shard must
// run Presto): from then on the board keeps acknowledging stable storage
// but its "battery-backed" dirty map evaporates at the next power event
// instead of replaying. Every acked-but-undrained byte at that instant is
// lost — the scheduled, detectable durability violation the checker must
// report.
type NVRAMLyingSync struct {
	Node int          `json:"node"`
	At   sim.Duration `json:"at_ns"`
}

func (f NVRAMLyingSync) Start() sim.Duration { return f.At }
func (NVRAMLyingSync) Windows() []Window     { return nil }
func (NVRAMLyingSync) Reach() Reach          { return ReachStorage }

func (f NVRAMLyingSync) Check(t *Topology) error {
	if err := t.node(f.Node); err != nil {
		return err
	}
	return cmp.Or(
		errIf(!t.Nodes[f.Node].Presto, "node %d runs no NVRAM board (set topology.servers.presto or the node override)", f.Node),
		errIf(f.At < 0, "corruption time must not be negative"),
	)
}

func (f NVRAMLyingSync) Schedule(in *Injector) {
	in.c.Sim.At(in.until(f.At, "lying sync"), func() {
		n := in.c.Nodes[f.Node]
		if n.Presto == nil {
			return // validation requires a board; a raced rebuild without one is a no-op
		}
		n.Presto.SetLying()
		in.StorageFaults++
		in.fired("nvram-lying-sync %s", n.Name)
	})
}

// AnnotateJournal flags the run: if bytes are lost, the loss was a
// scheduled hardware betrayal, not an engine bug. The checker still
// counts every lost byte — the point of the kind is that the audit
// catches the lie — but the verdict is classified expected.
func (f NVRAMLyingSync) AnnotateJournal(in *Injector, j *Journal) {
	j.NoteLossExpected(fmt.Sprintf("nvram-lying-sync on %s", in.c.Nodes[f.Node].Name))
}
