package fault

import (
	"bytes"
	"fmt"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// AckedWrite is one WRITE the server acknowledged to a client. NFS v2's
// contract says these bytes are on stable storage the moment the ack left:
// a crash at any later instant must not lose them.
type AckedWrite struct {
	Client string
	FH     nfsproto.FH
	Off    uint32
	Len    int
	When   sim.Time
}

// BufferedWrite is one write accepted into a client's write-behind: the
// application was told "done", but no server ack exists yet. NFS promises
// durability only at close, so a client crash may legitimately lose these
// — the checker tracks them so permitted loss is visible and accounted,
// never confused with a durability violation.
type BufferedWrite struct {
	Client string
	FH     nfsproto.FH
	Off    uint32
	Len    int
	When   sim.Time
}

// Journal records every client-acked write during a run. All workloads in
// this repo write the deterministic audit pattern (client.FillPattern), so
// the journal needs offsets only — expected bytes are regenerated at
// verification time. Overlapping acked writes agree by construction (the
// pattern is a pure function of the absolute file offset).
type Journal struct {
	Entries []AckedWrite
	// Buffered records write-behind acceptances (see BufferedWrite).
	Buffered []BufferedWrite
	// crashExposed names clients a scheduled fault may crash (or whose
	// biods it may kill): their unacked buffered writes are an expected
	// loss. Kinds register these via AnnotateJournal.
	crashExposed map[string]bool
	// lossExpected records scheduled faults that may legitimately lose
	// acked bytes (a lying NVRAM board). Verify still counts every lost
	// byte, but the verdict carries the classification.
	lossExpected []string
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Attach hooks a client so every acked WRITE — and every write accepted
// into write-behind ahead of its ack — is journaled.
func (j *Journal) Attach(cli *client.Client) {
	name := cli.Name()
	cli.OnWriteAcked = func(fh nfsproto.FH, off uint32, n int) {
		j.Entries = append(j.Entries, AckedWrite{
			Client: name, FH: fh, Off: off, Len: n, When: cli.Sim().Now(),
		})
	}
	cli.OnWriteBuffered = func(fh nfsproto.FH, off uint32, n int) {
		j.Buffered = append(j.Buffered, BufferedWrite{
			Client: name, FH: fh, Off: off, Len: n, When: cli.Sim().Now(),
		})
	}
}

// NoteLossExpected records that a scheduled fault (a lying NVRAM board,
// an unrecoverable media failure) may legitimately surface acked-byte
// loss: Verify's verdict reports ExpectedLoss so the caller can tell a
// scheduled hardware betrayal from an engine durability bug.
func (j *Journal) NoteLossExpected(reason string) {
	j.lossExpected = append(j.lossExpected, reason)
}

// NoteCrashExposed marks a client as targeted by a client-side fault:
// its buffered-but-never-acked writes become permitted loss.
func (j *Journal) NoteCrashExposed(clientName string) {
	if j.crashExposed == nil {
		j.crashExposed = make(map[string]bool)
	}
	j.crashExposed[clientName] = true
}

// AckedBytes sums journaled write sizes (re-acked retransmissions count
// separately; the durability obligation is per ack).
func (j *Journal) AckedBytes() int64 {
	var n int64
	for _, e := range j.Entries {
		n += int64(e.Len)
	}
	return n
}

// CheckResult is the durability verdict after recovery.
type CheckResult struct {
	AckedWrites int
	AckedBytes  int64
	// LostBytes counts acked bytes whose recovered contents differ from
	// the audit pattern (or whose file is gone). The contract demands 0.
	LostBytes int64
	// FirstLoss describes the first violation, for diagnosis.
	FirstLoss string
	// BufferedWrites/BufferedBytes count write-behind acceptances seen.
	BufferedWrites int
	BufferedBytes  int64
	// DroppedBuffered/DroppedBufferedBytes count buffered writes that
	// never earned a server ack on a crash-exposed client — the loss a
	// client reboot is permitted, excluded from LostBytes by contract.
	DroppedBuffered      int
	DroppedBufferedBytes int64
	// UnackedBuffered counts buffered writes without acks on clients no
	// fault targeted (e.g. retry exhaustion during a long outage). Also
	// excluded from LostBytes — no ack, no obligation — but reported
	// separately because nothing scheduled them.
	UnackedBuffered int
	// ExpectedLoss is true when a scheduled fault declared acked-byte
	// loss permissible (NoteLossExpected); ExpectedLossReasons says which.
	// LostBytes > 0 with ExpectedLoss false is a durability bug.
	ExpectedLoss        bool
	ExpectedLossReasons []string
}

// Verify reads every journaled range back through the filesystem currently
// serving the owning export — the shard's own remounted filesystem, or the
// adopter's after a failover — and compares it with the audit pattern: a
// whole aligned block with its pattern page (client.Pages, which the
// pages-intact identity proves still holds the pattern), any other range
// with the pattern regenerated. It must run after all scheduled
// recoveries completed (every surviving export mounted). The reads go
// through the simulated device stack, so Verify consumes simulated time;
// run it from a dedicated process after the measured phase.
func (j *Journal) Verify(p *sim.Proc, c *cluster.Cluster) CheckResult {
	res := CheckResult{
		AckedWrites:         len(j.Entries),
		AckedBytes:          j.AckedBytes(),
		ExpectedLoss:        len(j.lossExpected) > 0,
		ExpectedLossReasons: j.lossExpected,
	}
	buf := make([]byte, nfsproto.MaxData)
	pattern := make([]byte, nfsproto.MaxData)
	acked := make(map[BufferedWrite]bool, len(j.Entries))
	for _, e := range j.Entries {
		acked[BufferedWrite{Client: e.Client, FH: e.FH, Off: e.Off, Len: e.Len}] = true
		fs := c.FSByFSID(e.FH.FSID())
		if fs == nil {
			res.LostBytes += int64(e.Len)
			if res.FirstLoss == "" {
				res.FirstLoss = fmt.Sprintf("write %+v: no shard serves its export", e)
			}
			continue
		}
		got := buf[:e.Len]
		n, err := fs.Read(p, vfs.Ino(e.FH.Ino()), e.Off, got)
		if err != nil || n != e.Len {
			res.LostBytes += int64(e.Len)
			if res.FirstLoss == "" {
				res.FirstLoss = fmt.Sprintf("write %+v: read %d bytes, err=%v", e, n, err)
			}
			continue
		}
		var lost int
		if e.Len == nfsproto.MaxData && e.Off%nfsproto.MaxData == 0 {
			page := c.Pages.Ref(e.Off)
			lost = differing(got, page.Data())
			page.Release()
		} else {
			client.FillPattern(pattern[:e.Len], e.Off)
			lost = differing(got, pattern[:e.Len])
		}
		if lost > 0 {
			res.LostBytes += int64(lost)
			if res.FirstLoss == "" {
				res.FirstLoss = fmt.Sprintf("write %+v: %d bytes corrupted", e, lost)
			}
		}
	}
	for _, b := range j.Buffered {
		res.BufferedWrites++
		res.BufferedBytes += int64(b.Len)
		if acked[BufferedWrite{Client: b.Client, FH: b.FH, Off: b.Off, Len: b.Len}] {
			continue
		}
		if j.crashExposed[b.Client] {
			res.DroppedBuffered++
			res.DroppedBufferedBytes += int64(b.Len)
		} else {
			res.UnackedBuffered++
		}
	}
	return res
}

// differing counts the positions at which a and b, of equal length,
// differ.
func differing(a, b []byte) int {
	if bytes.Equal(a, b) {
		return 0
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
