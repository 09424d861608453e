package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// fakeFS records the call sequence the engine makes and simulates device
// latency, so tests can assert the stable-storage ordering contract
// without a full UFS underneath.
type fakeFS struct {
	s         *sim.Sim
	log       []string
	writeLat  sim.Duration
	syncLat   sim.Duration
	fsyncLat  sim.Duration
	failWrite bool
	failSync  bool
	failFsync bool
	fsyncs    int
	syncs     int
}

func (f *fakeFS) logf(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

func (f *fakeFS) WriteBuf(p *sim.Proc, ino vfs.Ino, off uint32, _ *block.Buf, _ int, flags vfs.IOFlags) error {
	if f.failWrite {
		return vfs.ErrNoSpace
	}
	f.logf("write ino=%d off=%d flags=%d", ino, off, flags)
	if f.writeLat > 0 {
		p.Sleep(f.writeLat)
	}
	return nil
}

func (f *fakeFS) SyncData(p *sim.Proc, ino vfs.Ino, from, to uint32) error {
	if f.failSync {
		return vfs.ErrIO
	}
	f.syncs++
	f.logf("syncdata ino=%d %d..%d", ino, from, to)
	if f.syncLat > 0 {
		p.Sleep(f.syncLat)
	}
	return nil
}

func (f *fakeFS) Fsync(p *sim.Proc, ino vfs.Ino, flags vfs.FsyncFlags) error {
	if f.failFsync {
		return vfs.ErrNoSpace
	}
	f.fsyncs++
	f.logf("fsync ino=%d flags=%d", ino, flags)
	if f.fsyncLat > 0 {
		p.Sleep(f.fsyncLat)
	}
	return nil
}

var _ FS = (*fakeFS)(nil)

type replyRec struct {
	id   int
	ok   bool
	when sim.Time
}

// spawnWrite issues one gathered write from a dedicated nfsd process.
func spawnWrite(s *sim.Sim, e *Engine, nfsd int, id int, off uint32, replies *[]replyRec, after sim.Duration) {
	s.SpawnAfter(after, fmt.Sprintf("nfsd%d", nfsd), func(p *sim.Proc) {
		d := &WriteDesc{
			Ino: 7, Offset: off, Length: 8192, Arrived: p.Now(),
			Send: func(p *sim.Proc, ok bool) {
				*replies = append(*replies, replyRec{id: id, ok: ok, when: p.Now()})
			},
		}
		e.HandleWrite(p, nfsd, d, make([]byte, 8192))
	})
}

func TestSingleWriteCommitsAfterProcrastination(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s}
	cfg := DefaultConfig(false, 8*sim.Millisecond)
	e := NewEngine(s, fs, 4, cfg, nil)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	s.Run(0)
	if len(replies) != 1 || !replies[0].ok {
		t.Fatalf("replies = %+v", replies)
	}
	// One procrastination (8ms) must precede the commit.
	if replies[0].when < sim.Time(8*sim.Millisecond) {
		t.Fatalf("reply at %v, before the procrastination interval", replies[0].when)
	}
	if e.Stats().Procrastinations != 1 {
		t.Fatalf("procrastinations = %d", e.Stats().Procrastinations)
	}
	if fs.fsyncs != 1 || fs.syncs != 1 {
		t.Fatalf("fsyncs=%d syncs=%d", fs.fsyncs, fs.syncs)
	}
}

func TestConcurrentWritesGatherIntoOneCommit(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s, writeLat: sim.Millisecond}
	cfg := DefaultConfig(false, 8*sim.Millisecond)
	e := NewEngine(s, fs, 8, cfg, nil)
	var replies []replyRec
	for i := 0; i < 5; i++ {
		spawnWrite(s, e, i, i, uint32(i*8192), &replies, sim.Duration(i)*100*sim.Microsecond)
	}
	s.Run(0)
	if len(replies) != 5 {
		t.Fatalf("%d replies, want 5", len(replies))
	}
	st := e.Stats()
	if st.Gathers != 1 {
		t.Fatalf("gathers = %d, want 1 (one metadata commit for all 5)", st.Gathers)
	}
	if st.GatheredWrites != 5 || st.MaxBatch != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if fs.fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want 1", fs.fsyncs)
	}
	// All five replies at the same instant, FIFO order.
	for i, r := range replies {
		if r.id != i {
			t.Fatalf("reply order = %v, want FIFO", replies)
		}
		if r.when != replies[0].when {
			t.Fatalf("replies not batched: %+v", replies)
		}
	}
}

func TestNoReplyBeforeMetadataCommit(t *testing.T) {
	// The stable-storage contract: every Send must happen after the fsync
	// that covers it. The fake FS log interleaved with reply times proves
	// ordering.
	s := sim.New(1)
	fs := &fakeFS{s: s, fsyncLat: 10 * sim.Millisecond}
	cfg := DefaultConfig(false, sim.Millisecond)
	e := NewEngine(s, fs, 4, cfg, nil)
	var fsyncDone sim.Time
	var replyAt sim.Time
	s.Spawn("nfsd", func(p *sim.Proc) {
		d := &WriteDesc{
			Ino: 3, Offset: 0, Length: 8192,
			Send: func(p *sim.Proc, ok bool) { replyAt = p.Now() },
		}
		e.HandleWrite(p, 0, d, make([]byte, 8192))
		fsyncDone = p.Now()
	})
	s.Run(0)
	if replyAt < sim.Time(11*sim.Millisecond) {
		t.Fatalf("reply at %v, before fsync completion", replyAt)
	}
	_ = fsyncDone
}

func TestAcceleratedSkipsSyncData(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s}
	cfg := DefaultConfig(true, 8*sim.Millisecond)
	e := NewEngine(s, fs, 4, cfg, nil)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	s.Run(0)
	if fs.syncs != 0 {
		t.Fatalf("accelerated path called SyncData %d times", fs.syncs)
	}
	if fs.fsyncs != 1 {
		t.Fatalf("fsyncs = %d", fs.fsyncs)
	}
	if len(fs.log) == 0 || fs.log[0] != fmt.Sprintf("write ino=7 off=0 flags=%d", vfs.IOSync|vfs.IODataOnly) {
		t.Fatalf("log[0] = %v, want IOSync|IODataOnly write", fs.log)
	}
}

func TestPlainDiskUsesDelayData(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s}
	e := NewEngine(s, fs, 4, DefaultConfig(false, sim.Millisecond), nil)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	s.Run(0)
	want := fmt.Sprintf("write ino=7 off=0 flags=%d", vfs.IODelayData)
	if len(fs.log) == 0 || fs.log[0] != want {
		t.Fatalf("log[0] = %v, want %q", fs.log, want)
	}
}

func TestHunterHitDefersReply(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s}
	cfg := DefaultConfig(false, 8*sim.Millisecond)
	hunts := 0
	// First probe says "yes, another write is queued"; later probes no.
	hunter := func(ino vfs.Ino) bool {
		hunts++
		return hunts == 1
	}
	e := NewEngine(s, fs, 4, cfg, hunter)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	// The promised second write arrives 2ms later on another nfsd.
	spawnWrite(s, e, 1, 2, 8192, &replies, 2*sim.Millisecond)
	s.Run(0)
	if len(replies) != 2 {
		t.Fatalf("replies = %+v", replies)
	}
	st := e.Stats()
	if st.HunterHits != 1 {
		t.Fatalf("HunterHits = %d", st.HunterHits)
	}
	if st.Gathers != 1 || st.GatheredWrites != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLIFOAblationReversesReplies(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s, writeLat: sim.Millisecond}
	cfg := DefaultConfig(false, 8*sim.Millisecond)
	cfg.LIFOReplies = true
	e := NewEngine(s, fs, 8, cfg, nil)
	var replies []replyRec
	for i := 0; i < 3; i++ {
		spawnWrite(s, e, i, i, uint32(i*8192), &replies, sim.Duration(i)*100*sim.Microsecond)
	}
	s.Run(0)
	if len(replies) != 3 {
		t.Fatalf("%d replies", len(replies))
	}
	for i, r := range replies {
		if r.id != 2-i {
			t.Fatalf("reply order = %+v, want LIFO", replies)
		}
	}
}

func TestWriteErrorRepliesImmediately(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s, failWrite: true}
	e := NewEngine(s, fs, 4, DefaultConfig(false, sim.Millisecond), nil)
	var replies []replyRec
	var err error
	s.Spawn("nfsd", func(p *sim.Proc) {
		d := &WriteDesc{Ino: 7, Send: func(p *sim.Proc, ok bool) {
			replies = append(replies, replyRec{ok: ok})
		}}
		err = e.HandleWrite(p, 0, d, nil)
	})
	s.Run(0)
	if err == nil {
		t.Fatal("no error from failing write")
	}
	if len(replies) != 1 || replies[0].ok {
		t.Fatalf("replies = %+v, want one error reply", replies)
	}
	if e.PendingReplies() != 0 {
		t.Fatal("descriptor leaked on write error")
	}
}

func TestFsyncErrorFailsWholeBatch(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s, writeLat: sim.Millisecond, failFsync: true}
	e := NewEngine(s, fs, 8, DefaultConfig(false, 8*sim.Millisecond), nil)
	var replies []replyRec
	for i := 0; i < 3; i++ {
		spawnWrite(s, e, i, i, uint32(i*8192), &replies, sim.Duration(i)*100*sim.Microsecond)
	}
	s.Run(0)
	if len(replies) != 3 {
		t.Fatalf("%d replies, want 3", len(replies))
	}
	for _, r := range replies {
		if r.ok {
			t.Fatalf("reply ok despite fsync failure: %+v", replies)
		}
	}
	if e.PendingReplies() != 0 {
		t.Fatal("descriptors leaked after fsync failure")
	}
}

func TestEveryWriteRepliedExactlyOnce(t *testing.T) {
	// Many writes across overlapping bursts: exactly one reply each.
	s := sim.New(42)
	fs := &fakeFS{s: s, writeLat: 500 * sim.Microsecond, fsyncLat: 3 * sim.Millisecond}
	e := NewEngine(s, fs, 8, DefaultConfig(false, 2*sim.Millisecond), nil)
	const n = 40
	var replies []replyRec
	for i := 0; i < n; i++ {
		spawnWrite(s, e, i%8, i, uint32(i*8192), &replies, sim.Duration(i)*700*sim.Microsecond)
	}
	s.Run(0)
	if len(replies) != n {
		t.Fatalf("%d replies, want %d", len(replies), n)
	}
	seen := map[int]bool{}
	for _, r := range replies {
		if seen[r.id] {
			t.Fatalf("duplicate reply for %d", r.id)
		}
		seen[r.id] = true
	}
	if e.PendingReplies() != 0 {
		t.Fatal("pending replies left over")
	}
	st := e.Stats()
	if st.Gathers == 0 || st.GatheredWrites != n {
		t.Fatalf("stats = %+v", st)
	}
	// Gathering must have batched: far fewer commits than writes.
	if st.Gathers >= n/2 {
		t.Fatalf("no batching: %d gathers for %d writes", st.Gathers, n)
	}
}

func TestWritesDuringCommitAreCovered(t *testing.T) {
	// A write that arrives while the metadata writer is mid-flush must not
	// be orphaned: the writer loops and commits it too.
	s := sim.New(1)
	fs := &fakeFS{s: s, fsyncLat: 10 * sim.Millisecond, syncLat: 5 * sim.Millisecond}
	e := NewEngine(s, fs, 8, DefaultConfig(false, sim.Millisecond), nil)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	// Arrives during the first commit's SyncData/Fsync window (after the
	// 1ms procrastination, inside 1ms..16ms).
	spawnWrite(s, e, 1, 2, 8192, &replies, 4*sim.Millisecond)
	s.Run(0)
	if len(replies) != 2 {
		t.Fatalf("replies = %+v", replies)
	}
	if e.Stats().Gathers != 2 {
		t.Fatalf("gathers = %d, want 2 (second batch for late write)", e.Stats().Gathers)
	}
	if e.PendingReplies() != 0 {
		t.Fatal("late write orphaned")
	}
}

func TestAdoptOrphanRescuesQueue(t *testing.T) {
	// An nfsd leaves its reply pending because the hunter promised another
	// write — but that write turns out to be a duplicate and is dropped.
	// AdoptOrphan must commit the stranded descriptor.
	s := sim.New(1)
	fs := &fakeFS{s: s}
	cfg := DefaultConfig(false, 8*sim.Millisecond)
	hunter := func(vfs.Ino) bool { return true } // always promises more
	e := NewEngine(s, fs, 4, cfg, hunter)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	s.Run(0)
	if len(replies) != 0 {
		t.Fatalf("reply sent with no metadata writer: %+v", replies)
	}
	if e.PendingReplies() != 1 {
		t.Fatalf("pending = %d, want 1 orphan", e.PendingReplies())
	}
	// The nfsd that dropped the duplicate adopts the orphan.
	s.Spawn("adopter", func(p *sim.Proc) {
		if !e.AdoptOrphan(p, 1, 7) {
			t.Error("AdoptOrphan found nothing")
		}
	})
	s.Run(0)
	if len(replies) != 1 || !replies[0].ok {
		t.Fatalf("replies after adoption = %+v", replies)
	}
	if e.PendingReplies() != 0 {
		t.Fatalf("pending = %d after adoption, want 0", e.PendingReplies())
	}
	if e.Stats().Adoptions != 1 {
		t.Fatalf("adoptions = %d", e.Stats().Adoptions)
	}
}

func TestAdoptOrphanNoopWhenActive(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s}
	e := NewEngine(s, fs, 4, DefaultConfig(false, 50*sim.Millisecond), nil)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	adopted := true
	// While nfsd 0 procrastinates, adoption must refuse (an active nfsd
	// owns the file).
	s.SpawnAfter(10*sim.Millisecond, "adopter", func(p *sim.Proc) {
		adopted = e.AdoptOrphan(p, 1, 7)
	})
	s.Run(0)
	if adopted {
		t.Fatal("AdoptOrphan stole a file with an active nfsd")
	}
	if len(replies) != 1 {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestFirstWriteLatencyPolicy(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s, syncLat: 12 * sim.Millisecond}
	cfg := DefaultConfig(false, 8*sim.Millisecond)
	cfg.FirstWriteLatency = true
	e := NewEngine(s, fs, 4, cfg, nil)
	var replies []replyRec
	spawnWrite(s, e, 0, 1, 0, &replies, 0)
	// Second write arrives while the first one's data write is in flight.
	spawnWrite(s, e, 1, 2, 8192, &replies, 5*sim.Millisecond)
	s.Run(0)
	if len(replies) != 2 {
		t.Fatalf("replies = %+v", replies)
	}
	if e.Stats().Procrastinations != 0 {
		t.Fatalf("SIVA93 policy slept: %d", e.Stats().Procrastinations)
	}
	// Data was flushed at least twice: the latency-device write plus the
	// commit's flush of the remaining range.
	if fs.syncs < 2 {
		t.Fatalf("syncs = %d", fs.syncs)
	}
}

func TestHandleCachePeakTracksDetachedReplies(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s, writeLat: sim.Millisecond}
	e := NewEngine(s, fs, 8, DefaultConfig(false, 20*sim.Millisecond), nil)
	var replies []replyRec
	for i := 0; i < 6; i++ {
		spawnWrite(s, e, i, i, uint32(i*8192), &replies, sim.Duration(i)*200*sim.Microsecond)
	}
	s.Run(0)
	if e.Stats().HandlePeak < 6 {
		t.Fatalf("HandlePeak = %d, want >= 6", e.Stats().HandlePeak)
	}
}

func TestDoubleReplyPanics(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s}
	e := NewEngine(s, fs, 1, DefaultConfig(false, sim.Millisecond), nil)
	d := &WriteDesc{Ino: 9, Send: func(*sim.Proc, bool) {}}
	d.sent = true
	panicked := false
	s.Spawn("x", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.sendOne(p, d, true)
	})
	s.Run(0)
	if !panicked {
		t.Fatal("double reply did not panic")
	}
}

func TestStatsWritesCount(t *testing.T) {
	s := sim.New(1)
	fs := &fakeFS{s: s}
	e := NewEngine(s, fs, 4, DefaultConfig(false, sim.Millisecond), nil)
	var replies []replyRec
	for i := 0; i < 3; i++ {
		spawnWrite(s, e, 0, i, uint32(i*8192), &replies, sim.Duration(i*20)*sim.Millisecond)
	}
	s.Run(0)
	if e.Stats().Writes != 3 {
		t.Fatalf("Writes = %d", e.Stats().Writes)
	}
}

// TestEngineReadsNothingOfASentDescriptor drives every way a reply leaves
// the engine with a Send that zeroes its descriptor, as a recycled parse
// record would be before it is refilled. If the engine read the descriptor
// after its reply it would commit, release or stage ino 0, and if it wrote
// to it it would mark another write's descriptor. Instead each path must
// reply once per write, leave every descriptor as its Send left it, and
// leave the engine clean: nothing queued, no per-file record, every
// transport handle back, every nfsd idle and no filesystem call on ino 0.
func TestEngineReadsNothingOfASentDescriptor(t *testing.T) {
	hunterOnce := func() func(vfs.Ino) bool {
		n := 0
		return func(vfs.Ino) bool { n++; return n == 1 }
	}
	for _, c := range []struct {
		name    string
		fs      fakeFS
		cfg     func(*Config)
		hunter  func(vfs.Ino) bool
		arrive  []sim.Duration // one write per entry, on its own nfsd
		adopt   bool           // an adopter rescues the queue afterwards
		took    func(Stats) bool
		replyOK bool
	}{
		{name: "handoff to active", fs: fakeFS{writeLat: sim.Millisecond},
			arrive:  []sim.Duration{0, 100 * sim.Microsecond, 200 * sim.Microsecond, 300 * sim.Microsecond},
			took:    func(st Stats) bool { return st.HandoffsToActive == 3 && st.Gathers == 1 },
			replyOK: true},
		{name: "gather across commits", fs: fakeFS{fsyncLat: 10 * sim.Millisecond, syncLat: 5 * sim.Millisecond},
			arrive:  []sim.Duration{0, 4 * sim.Millisecond},
			took:    func(st Stats) bool { return st.Gathers == 2 },
			replyOK: true},
		{name: "hunter hit", hunter: hunterOnce(),
			arrive:  []sim.Duration{0, 2 * sim.Millisecond},
			took:    func(st Stats) bool { return st.HunterHits == 1 && st.Gathers == 1 },
			replyOK: true},
		{name: "write error", fs: fakeFS{failWrite: true},
			arrive: []sim.Duration{0},
			took:   func(st Stats) bool { return st.Gathers == 0 }},
		{name: "fsync error", fs: fakeFS{writeLat: sim.Millisecond, failFsync: true},
			arrive: []sim.Duration{0, 100 * sim.Microsecond, 200 * sim.Microsecond},
			took:   func(st Stats) bool { return st.Gathers == 0 && st.HandoffsToActive == 2 }},
		{name: "first-write sync error", fs: fakeFS{failSync: true},
			cfg:    func(c *Config) { c.FirstWriteLatency = true },
			arrive: []sim.Duration{0},
			took:   func(st Stats) bool { return st.Gathers == 0 }},
		{name: "adoption", hunter: func(vfs.Ino) bool { return true },
			arrive:  []sim.Duration{0, 100 * sim.Microsecond},
			adopt:   true,
			took:    func(st Stats) bool { return st.Adoptions == 1 && st.Gathers == 1 },
			replyOK: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(1)
			fs := c.fs
			fs.s = s
			cfg := DefaultConfig(false, sim.Millisecond)
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			e := NewEngine(s, &fs, len(c.arrive)+1, cfg, c.hunter)
			var replies []replyRec
			descs := make([]*WriteDesc, len(c.arrive))
			for i, at := range c.arrive {
				d := &WriteDesc{Ino: 7, Offset: uint32(i) * 8192, Length: 8192}
				d.Send = func(p *sim.Proc, ok bool) {
					replies = append(replies, replyRec{id: i, ok: ok})
					*d = WriteDesc{}
				}
				descs[i] = d
				s.SpawnAfter(at, "nfsd", func(p *sim.Proc) {
					e.HandleWrite(p, i, d, make([]byte, 8192))
				})
			}
			s.Run(0)
			if c.adopt {
				s.Spawn("adopter", func(p *sim.Proc) { e.AdoptOrphan(p, len(c.arrive), 7) })
				s.Run(0)
			}
			if !c.took(e.Stats()) {
				t.Fatalf("path not taken: %+v", e.Stats())
			}
			if len(replies) != len(c.arrive) {
				t.Fatalf("%d replies for %d writes: %+v", len(replies), len(c.arrive), replies)
			}
			for _, r := range replies {
				if r.ok != c.replyOK {
					t.Fatalf("replies %+v, want ok=%v", replies, c.replyOK)
				}
			}
			for i, d := range descs {
				if d.Ino != 0 || d.Offset != 0 || d.Send != nil || d.sent {
					t.Fatalf("descriptor %d written after its reply: %+v", i, *d)
				}
			}
			if n, g, h := e.PendingReplies(), len(e.files), e.HandlesHeld(); n != 0 || g != 0 || h != 0 {
				t.Fatalf("engine not clean: %d replies pending, %d file records, %d handles held", n, g, h)
			}
			for _, l := range fs.log {
				if strings.Contains(l, "ino=0 ") {
					t.Fatalf("filesystem call on a scribbled descriptor's file: %q in %q", l, fs.log)
				}
			}
			for i, st := range e.NfsdStates() {
				if st != (NfsdState{Stage: StageIdle}) {
					t.Fatalf("nfsd %d left in state %+v", i, st)
				}
			}
		})
	}
}

var errBoom = errors.New("boom")
