package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
)

// call is one NFS call as it reached the server: its procedure, the
// handle its arguments start with, and the name or offset it carries.
type call struct {
	proc nfsproto.Proc
	fh   nfsproto.FH
	name string
	off  uint32
}

// wiretap builds the testbed with a relay where the client's server
// should be: every call is recorded in order and forwarded unchanged to
// the real server at "nfs", whose replies go straight back to the client.
func wiretap(t *testing.T) (*sim.Sim, *client.Client, nfsproto.FH, *[]call) {
	t.Helper()
	s, n, cli, srv := rig(t, false, "nfs")
	ep := n.Attach("server", 0, 0)
	calls := new([]call)
	s.Spawn("wiretap", func(p *sim.Proc) {
		for {
			dg := ep.Inbox.Get(p)
			from, payload := dg.From, append([]byte(nil), dg.Payload...)
			body, blen := dg.TakeBody()
			dg.Release()
			var msg oncrpc.CallMsg
			if err := oncrpc.DecodeCallInto(payload, &msg); err != nil {
				t.Errorf("wiretap: %v", err)
				continue
			}
			*calls = append(*calls, decodeCall(t, &msg, body, blen))
			n.SendHead(p, from, "nfs", netsim.Head{Bytes: payload}, body, blen)
			if body != nil {
				body.Release()
			}
		}
	})
	return s, cli, srv.RootFH(), calls
}

func decodeCall(t *testing.T, m *oncrpc.CallMsg, body *block.Buf, n int) call {
	c := call{proc: nfsproto.Proc(m.Proc)}
	copy(c.fh[:], m.Args)
	var err error
	switch c.proc {
	case nfsproto.ProcLookup, nfsproto.ProcRemove:
		var a nfsproto.DirOpArgs
		err = nfsproto.DecodeDirOpArgsInto(m.Args, &a)
		c.name = a.Name
	case nfsproto.ProcCreate:
		var a nfsproto.CreateArgs
		err = nfsproto.DecodeCreateArgsInto(m.Args, &a)
		c.name = a.Where.Name
	case nfsproto.ProcRead:
		var a nfsproto.ReadArgs
		err = nfsproto.DecodeReadArgsInto(m.Args, &a)
		c.off = a.Offset
	case nfsproto.ProcWrite:
		var a nfsproto.WriteArgs
		var data []byte
		if body != nil {
			data = body.Data()[:n]
		}
		err = nfsproto.DecodeWriteArgsSplitInto(m.Args, data, &a)
		c.off = a.Offset
	}
	if err != nil {
		t.Errorf("wiretap: proc %d: %v", c.proc, err)
	}
	return c
}

// TestTargetGo issues each of the nine operations through a closed-loop
// Target's task, the write and create through the open loop's shape of
// one (no RemoveNewest), and a closed-loop write burst, and checks every
// call that reaches the server: procedure, order, and what it names.
// client.OnRPC confirms each of them was answered.
func TestTargetGo(t *testing.T) {
	s, cli, root, calls := wiretap(t)
	defer s.Close()
	answered := 0
	cli.OnRPC = func(_ nfsproto.Proc, _ uint32, _ sim.Time, attempts int, ok bool) {
		if ok && attempts == 1 {
			answered++
		}
	}
	const M = nfsproto.MaxData
	// Three shard roots: the export root and two directories in it.
	roots := []nfsproto.FH{root}
	var l *LADDIS
	s.Spawn("setup", func(p *sim.Proc) {
		for _, name := range []string{"shard1", "shard2"} {
			res, err := cli.Mkdir(p, root, name, 0755)
			if err != nil || res.Status != nfsproto.OK {
				t.Errorf("mkdir %s: %v %v", name, err, res)
				return
			}
			roots = append(roots, res.File)
		}
		l = NewLADDIS(cli, root, LADDISConfig{Files: 6, FileBlocks: 4, Procs: 1, Roots: roots})
		if err := l.Setup(p); err != nil {
			t.Errorf("Setup: %v", err)
		}
	})
	s.Run(0)
	if t.Failed() {
		return
	}
	w := &l.t
	open := &Target{Client: cli, Names: w.Names, Files: w.Files, Roots: w.Roots, Scratch: w.Scratch}
	// A file off the first shard, and a READDIR root that is neither
	// its shard nor f % len(Roots), so a misplaced target shows.
	f := -1
	for i, name := range w.Names {
		if RootFor(roots, name) != roots[0] {
			f = i
			break
		}
	}
	if f < 0 {
		t.Fatal("every working-set file hashed to the first shard")
	}
	dir := 1
	if f%len(roots) == 1 {
		dir = 2
	}
	fh, name, scratch := w.Files[f], w.Names[f], w.Scratch
	d := Draw{File: f, Off: 2 * M, Dir: dir}
	for _, tc := range []struct {
		name string
		t    *Target
		op   Op
		want []call
	}{
		{"lookup", w, OpLookup, []call{{nfsproto.ProcLookup, RootFor(roots, name), name, 0}}},
		{"read", w, OpRead, []call{{nfsproto.ProcRead, fh, "", 2 * M}}},
		{"write", w, OpWrite, []call{{nfsproto.ProcWrite, fh, "", 2 * M}}},
		{"getattr", w, OpGetattr, []call{{nfsproto.ProcGetattr, fh, "", 0}}},
		{"readdir", w, OpReaddir, []call{{nfsproto.ProcReaddir, roots[dir], "", 0}}},
		{"create", w, OpCreate, []call{{nfsproto.ProcCreate, scratch, "t1", 0}, {nfsproto.ProcRemove, scratch, "t1", 0}}},
		{"remove", w, OpRemove, []call{{nfsproto.ProcRemove, scratch, "absent", 0}}},
		{"statfs", w, OpStatfs, []call{{nfsproto.ProcStatfs, roots[0], "", 0}}},
		{"setattr", w, OpSetattr, []call{{nfsproto.ProcSetattr, fh, "", 0}}},
		{"open write", open, OpWrite, []call{{nfsproto.ProcWrite, fh, "", 2 * M}}},
		{"open create", open, OpCreate, []call{{nfsproto.ProcCreate, scratch, "t1", 0}, {nfsproto.ProcRemove, scratch, "t1", 0}}},
	} {
		*calls, answered = nil, 0
		settled := 0
		tc.t.NewTask(func(err error) {
			settled++
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}).Go(tc.op, d)
		s.Run(0)
		if settled != 1 {
			t.Errorf("%s: done called %d times, want once", tc.name, settled)
		}
		if !reflect.DeepEqual(*calls, tc.want) {
			t.Errorf("%s: calls\n%+v\nwant\n%+v", tc.name, *calls, tc.want)
		}
		if answered != len(tc.want) {
			t.Errorf("%s: %d calls answered at the first attempt, want %d", tc.name, answered, len(tc.want))
		}
	}

	// The closed loop's write op: a burst of sequential WRITEs, each
	// accounted on its own, then one more pass round the generator's loop,
	// which finds the window closed.
	*calls, answered = nil, 0
	l.end, l.cond = s.Now(), sim.NewCond(s)
	g := l.newGen()
	g.burst(Draw{File: f, Off: M}, 3)
	s.Run(0)
	want := []call{{nfsproto.ProcWrite, fh, "", M}, {nfsproto.ProcWrite, fh, "", 2 * M}, {nfsproto.ProcWrite, fh, "", 3 * M}}
	if !reflect.DeepEqual(*calls, want) || answered != 3 {
		t.Errorf("write burst: calls\n%+v\nwant\n%+v (%d answered)", *calls, want, answered)
	}
	if l.done != 3 || l.perOp[OpWrite] != 3 || l.finished != 1 {
		t.Errorf("burst accounted %d ops, %v, finished %d; want the 3 WRITEs and one finished generator", l.done, l.perOp, l.finished)
	}
}

// burstScript runs one closed-loop write burst of four WRITEs, either on
// the writer pool the closed loop used to run it on (workers parked on a
// queue, the issuing process waiting on a Cond until they drain them) or
// through gen.burst, and records every WRITE's send and reply and the
// generator's going on — seen by a watcher its Broadcast wakes — each
// with its instant and the events fired since the burst began.
func burstScript(t *testing.T, gathering, pool bool) []string {
	s, cli, srv := testbed(t, gathering)
	defer s.Close()
	l := NewLADDIS(cli, srv.RootFH(), LADDISConfig{Files: 1, FileBlocks: 8, Procs: 1})
	s.Spawn("setup", func(p *sim.Proc) {
		if err := l.Setup(p); err != nil {
			t.Errorf("Setup: %v", err)
		}
	})
	s.Run(0)
	var trace []string
	var base uint64
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("t=%d fired+%d ", s.Now(), s.EventsFired()-base)+fmt.Sprintf(format, args...))
	}
	cli.OnWriteEvent = func(ev string, off uint32, _ int) { logf("%s %d", ev, off) }
	// The generator's loop finds the window closed and finishes, which
	// wakes the watcher.
	l.end, l.cond = s.Now(), sim.NewCond(s)
	s.Spawn("watcher", func(p *sim.Proc) {
		l.cond.Wait(p)
		logf("generator went on after %d WRITEs", l.done)
	})
	const n, M = 4, nfsproto.MaxData
	fh := l.t.Files[0]
	jobs, drained, left := sim.NewQueue[uint32](s, 0), sim.NewCond(s), n
	if pool {
		for w := 0; w < 8; w++ { // the largest burst burstLen draws
			s.Spawn("writer", func(w *sim.Proc) {
				for {
					off := jobs.Get(w)
					begin := w.Now()
					err := cli.WritePattern(w, fh, off)
					l.account(OpWrite, w.Now().Sub(begin), err, l.done > 0)
					if left--; left == 0 {
						drained.Signal()
					}
				}
			})
		}
	}
	s.Run(0) // the watcher, and any writers, park
	base = s.EventsFired()
	if pool {
		s.Spawn("generator", func(q *sim.Proc) {
			for i := 0; i < n; i++ {
				jobs.Put(uint32(i * M))
			}
			for left > 0 {
				drained.Wait(q)
			}
			l.finished++
			l.cond.Broadcast()
		})
	} else {
		s.At(0, func() { l.newGen().burst(Draw{}, n) })
	}
	s.Run(0)
	return trace
}

// A write burst's WRITEs start, settle and hand back to their generator
// in the slots the writer pool did: the same burst either way sends and
// answers each WRITE at the same instant after the same number of
// events, and the generator goes on one event after the last reply, where
// the pool's Signal woke it, not inline in that reply's event.
func TestBurstRunsInThePoolSlots(t *testing.T) {
	for _, gathering := range []bool{false, true} {
		pool, cb := burstScript(t, gathering, true), burstScript(t, gathering, false)
		if len(pool) != 9 {
			t.Fatalf("gathering=%v: pool script logged %d lines, want 4 sends, 4 replies and the generator:\n%s",
				gathering, len(pool), strings.Join(pool, "\n"))
		}
		if !reflect.DeepEqual(pool, cb) {
			t.Errorf("gathering=%v: writer pool:\n%s\ngen.burst:\n%s", gathering, strings.Join(pool, "\n"), strings.Join(cb, "\n"))
		}
	}
}

// TestOverlappingCreatesRemoveTheNewest pins the recorded closed-loop
// rule: with RemoveNewest, two CREATEs in flight at once both REMOVE the
// newest name; without it each removes its own.
func TestOverlappingCreatesRemoveTheNewest(t *testing.T) {
	for _, tc := range []struct {
		newest bool
		want   []string
	}{{true, []string{"t2", "t2"}}, {false, []string{"t1", "t2"}}} {
		s, cli, root, calls := wiretap(t)
		s.Spawn("driver", func(p *sim.Proc) {
			res, err := cli.Mkdir(p, root, "scratch", 0755)
			if err != nil || res.Status != nfsproto.OK {
				t.Errorf("mkdir: %v %v", err, res)
				return
			}
			tg := &Target{Client: cli, Files: []nfsproto.FH{root}, Roots: []nfsproto.FH{root}, Scratch: res.File, RemoveNewest: tc.newest}
			*calls = nil
			for i := 0; i < 2; i++ {
				k := tg.NewTask(func(error) {})
				s.At(0, func() { k.Go(OpCreate, Draw{}) })
			}
		})
		s.Run(0)
		var creates, removes []string
		for _, c := range *calls {
			switch c.proc {
			case nfsproto.ProcCreate:
				creates = append(creates, c.name)
			case nfsproto.ProcRemove:
				removes = append(removes, c.name)
			}
		}
		if !reflect.DeepEqual(creates, []string{"t1", "t2"}) || !reflect.DeepEqual(removes, tc.want) {
			t.Errorf("RemoveNewest %v: created %v, removed %v; want removed %v", tc.newest, creates, removes, tc.want)
		}
		s.Close()
	}
}
