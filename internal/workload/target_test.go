package workload

import (
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/client"
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
			msg, err := oncrpc.DecodeCall(payload)
			if err != nil {
				t.Errorf("wiretap: %v", err)
				continue
			}
			*calls = append(*calls, decodeCall(t, msg, body, blen))
			if body == nil {
				n.Send(p, from, "nfs", payload)
				continue
			}
			n.SendBuf(p, from, "nfs", payload, body, blen)
			body.Release()
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
		if body != nil {
			err = nfsproto.DecodeWriteArgsSplitInto(m.Args, body.Data()[:n], &a)
		} else {
			err = nfsproto.DecodeWriteArgsInto(m.Args, &a)
		}
		c.off = a.Offset
	}
	if err != nil {
		t.Errorf("wiretap: proc %d: %v", c.proc, err)
	}
	return c
}

// TestTargetDo issues each of the nine operations through a closed-loop
// Target and the write and create through the open loop's shape of one
// (no Writes, no RemoveNewest), and checks every call that reaches the
// server: procedure, order, and what it names. client.OnRPC confirms
// each of them was answered.
func TestTargetDo(t *testing.T) {
	s, cli, root, calls := wiretap(t)
	defer s.Close()
	answered := 0
	cli.OnRPC = func(_ nfsproto.Proc, _ uint32, _ sim.Time, attempts int, ok bool) {
		if ok && attempts == 1 {
			answered++
		}
	}
	const M = nfsproto.MaxData
	s.Spawn("driver", func(p *sim.Proc) {
		// Three shard roots: the export root and two directories in it.
		roots := []nfsproto.FH{root}
		for _, name := range []string{"shard1", "shard2"} {
			res, err := cli.Mkdir(p, root, name, 0755)
			if err != nil || res.Status != nfsproto.OK {
				t.Errorf("mkdir %s: %v %v", name, err, res)
				return
			}
			roots = append(roots, res.File)
		}
		l := NewLADDIS(cli, root, LADDISConfig{Files: 6, FileBlocks: 4, Procs: 1, Roots: roots})
		if err := l.Setup(p); err != nil {
			t.Errorf("Setup: %v", err)
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
			t.Error("every working-set file hashed to the first shard")
			return
		}
		dir := 1
		if f%len(roots) == 1 {
			dir = 2
		}
		fh, name, scratch := w.Files[f], w.Names[f], w.Scratch
		d := Draw{File: f, Off: 2 * M, Dir: dir, Blocks: 1}
		burst := d
		burst.Off, burst.Blocks = M, 3
		l.startWriters(s)
		for _, tc := range []struct {
			name string
			t    *Target
			op   Op
			d    Draw
			want []call
		}{
			{"lookup", w, OpLookup, d, []call{{nfsproto.ProcLookup, RootFor(roots, name), name, 0}}},
			{"read", w, OpRead, d, []call{{nfsproto.ProcRead, fh, "", 2 * M}}},
			{"write", w, OpWrite, d, []call{{nfsproto.ProcWrite, fh, "", 2 * M}}},
			{"write burst", w, OpWrite, burst, []call{
				{nfsproto.ProcWrite, fh, "", M}, {nfsproto.ProcWrite, fh, "", 2 * M}, {nfsproto.ProcWrite, fh, "", 3 * M}}},
			{"getattr", w, OpGetattr, d, []call{{nfsproto.ProcGetattr, fh, "", 0}}},
			{"readdir", w, OpReaddir, d, []call{{nfsproto.ProcReaddir, roots[dir], "", 0}}},
			{"create", w, OpCreate, d, []call{{nfsproto.ProcCreate, scratch, "t1", 0}, {nfsproto.ProcRemove, scratch, "t1", 0}}},
			{"remove", w, OpRemove, d, []call{{nfsproto.ProcRemove, scratch, "absent", 0}}},
			{"statfs", w, OpStatfs, d, []call{{nfsproto.ProcStatfs, roots[0], "", 0}}},
			{"setattr", w, OpSetattr, d, []call{{nfsproto.ProcSetattr, fh, "", 0}}},
			{"open write", open, OpWrite, d, []call{{nfsproto.ProcWrite, fh, "", 2 * M}}},
			{"open create", open, OpCreate, d, []call{{nfsproto.ProcCreate, scratch, "t1", 0}, {nfsproto.ProcRemove, scratch, "t1", 0}}},
		} {
			*calls, answered = nil, 0
			if err := tc.t.Do(p, tc.op, tc.d); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			if !reflect.DeepEqual(*calls, tc.want) {
				t.Errorf("%s: calls\n%+v\nwant\n%+v", tc.name, *calls, tc.want)
			}
			if answered != len(tc.want) {
				t.Errorf("%s: %d calls answered at the first attempt, want %d", tc.name, answered, len(tc.want))
			}
		}
		l.stopWriters()
		// The closed loop's WRITEs, a burst of one included, were issued
		// and accounted by its pool; Do accounts for nothing itself.
		if l.done != 4 || l.perOp[OpWrite.String()] != 4 {
			t.Errorf("pool accounted %d ops, %v; want the 4 closed-loop WRITEs", l.done, l.perOp)
		}
	})
	s.Run(0)
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
				s.Spawn("creator", func(q *sim.Proc) { tg.Do(q, OpCreate, Draw{}) })
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
