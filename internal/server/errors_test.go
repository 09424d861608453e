package server

import (
	"testing"

	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// TestErrorReplies drives every error reply from a raw endpoint. Each
// procedure that takes arguments, WRITE included, answers truncated
// arguments with GARBAGE_ARGS and forgets the call's dup entry, so the
// same XID with good arguments then executes. A wrong program gets
// PROG_UNAVAIL, a procedure the server does not implement PROC_UNAVAIL,
// and a datagram whose RPC header does not decode has no XID to answer:
// it is dropped and counted in BadCalls.
func TestErrorReplies(t *testing.T) {
	r := newRig(t, 1, rigOpts{})
	probe := r.net.Attach("probe", 0, 0)
	root := r.srv.RootFH()
	// rpc sends raw and returns the reply's accept status (SYSTEM_ERR for
	// a reply that is not an accepted one).
	rpc := func(p *sim.Proc, raw []byte) oncrpc.AcceptStat {
		r.net.Send(p, "probe", "server", raw)
		dg := probe.Inbox.Get(p)
		defer dg.Release()
		var reply oncrpc.ReplyMsg
		if err := oncrpc.DecodeReplyInto(dg.Payload, &reply); err != nil || reply.Stat != oncrpc.MsgAccepted {
			t.Errorf("reply %+v: %v", reply, err)
			return oncrpc.SystemErr
		}
		return reply.AccStat
	}
	ops := func(proc nfsproto.Proc) uint64 { return r.srv.OpCounts[proc].Ops }
	finished := false
	r.sim.Spawn("probe", func(p *sim.Proc) {
		f, err := r.cli.Create(p, root, "f", 0644)
		if err != nil || f.Status != nfsproto.OK {
			t.Errorf("Create: %v", err)
			return
		}
		file := f.File
		for _, name := range []string{"gone", "old"} {
			if _, err := r.cli.Create(p, root, name, 0644); err != nil {
				t.Errorf("Create %s: %v", name, err)
				return
			}
		}
		if _, err := r.cli.Mkdir(p, root, "dir", 0755); err != nil {
			t.Errorf("Mkdir: %v", err)
			return
		}
		calls := []struct {
			proc nfsproto.Proc
			args xdr.Record
		}{
			{nfsproto.ProcGetattr, &nfsproto.FHArgs{File: file}},
			{nfsproto.ProcSetattr, &nfsproto.SetattrArgs{File: file, Attr: nfsproto.DefaultSAttr(0600)}},
			{nfsproto.ProcLookup, &nfsproto.DirOpArgs{Dir: root, Name: "f"}},
			{nfsproto.ProcRead, &nfsproto.ReadArgs{File: file, Count: nfsproto.MaxData}},
			{nfsproto.ProcWrite, &nfsproto.WriteArgs{File: file, Data: make([]byte, nfsproto.MaxData)}},
			{nfsproto.ProcCreate, &nfsproto.CreateArgs{Where: nfsproto.DirOpArgs{Dir: root, Name: "new"}, Attr: nfsproto.DefaultSAttr(0644)}},
			{nfsproto.ProcMkdir, &nfsproto.CreateArgs{Where: nfsproto.DirOpArgs{Dir: root, Name: "newdir"}, Attr: nfsproto.DefaultSAttr(0755)}},
			{nfsproto.ProcRemove, &nfsproto.DirOpArgs{Dir: root, Name: "gone"}},
			{nfsproto.ProcRmdir, &nfsproto.DirOpArgs{Dir: root, Name: "dir"}},
			{nfsproto.ProcRename, &nfsproto.RenameArgs{From: nfsproto.DirOpArgs{Dir: root, Name: "old"}, To: nfsproto.DirOpArgs{Dir: root, Name: "renamed"}}},
			{nfsproto.ProcReaddir, &nfsproto.ReaddirArgs{Dir: root, Count: 1024}},
			{nfsproto.ProcStatfs, &nfsproto.FHArgs{File: root}},
		}
		for i, c := range calls {
			xid := uint32(100 + i)
			good := xdr.Marshal(c.args)
			before := ops(c.proc)
			if st := rpc(p, rawCall(xid, c.proc, good[:len(good)/2])); st != oncrpc.GarbageArgs {
				t.Errorf("%v with truncated args: accept status %d, want GARBAGE_ARGS", c.proc, st)
			}
			if st := rpc(p, rawCall(xid, c.proc, good)); st != oncrpc.Success {
				t.Errorf("%v with good args after GARBAGE_ARGS: accept status %d, want SUCCESS", c.proc, st)
			}
			if got := ops(c.proc) - before; got != 1 {
				t.Errorf("%v executed %d times, want once", c.proc, got)
			}
		}

		wrongProg := xdr.Marshal(&oncrpc.CallMsg{
			XID: 200, Prog: nfsproto.Program + 1, Vers: nfsproto.Version,
			Proc: uint32(nfsproto.ProcGetattr), Cred: oncrpc.NullAuth(), Verf: oncrpc.NullAuth(),
			Args: xdr.Marshal(&nfsproto.FHArgs{File: root}),
		})
		if st := rpc(p, wrongProg); st != oncrpc.ProgUnavail {
			t.Errorf("wrong program: accept status %d, want PROG_UNAVAIL", st)
		}
		if st := rpc(p, rawCall(201, nfsproto.ProcLink, xdr.Marshal(&nfsproto.FHArgs{File: file}))); st != oncrpc.ProcUnavail {
			t.Errorf("LINK: accept status %d, want PROC_UNAVAIL", st)
		}

		r.net.Send(p, "probe", "server", rawCall(202, nfsproto.ProcGetattr, nil)[:10])
		finished = true
	})
	r.sim.Run(0)
	if !finished {
		t.Fatal("the probe stalled waiting for a reply")
	}
	if n := probe.Inbox.Len(); n != 0 {
		t.Errorf("a call with a truncated header was answered (%d datagrams)", n)
	}
	if r.srv.BadCalls != 1 {
		t.Errorf("BadCalls = %d, want 1", r.srv.BadCalls)
	}
}
