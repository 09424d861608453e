package server

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// TestErrorReplies drives every error reply from a raw endpoint. Each
// procedure that takes arguments, WRITE included, answers truncated
// arguments with GARBAGE_ARGS and forgets the call's dup entry, so the
// same XID with good arguments then executes. A WRITE's arguments are its
// head; its body follows as a WRITE's always does. A wrong program gets
// PROG_UNAVAIL, a procedure the server does not implement PROC_UNAVAIL,
// and a datagram whose RPC header does not decode has no XID to answer:
// it is dropped and counted in BadCalls.
func TestErrorReplies(t *testing.T) {
	r := newRig(t, 1, rigOpts{})
	probe := r.net.Attach("probe", 0, 0)
	root := r.srv.RootFH()
	// rpc sends raw, followed by bodyLen bytes of body when body is not
	// nil, and returns the reply's accept status (SYSTEM_ERR for a reply
	// that is not an accepted one).
	rpc := func(p *sim.Proc, raw []byte, body *block.Buf, bodyLen int) oncrpc.AcceptStat {
		r.net.SendHead(p, "probe", "server", netsim.Head{Bytes: raw}, body, bodyLen)
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
		writeHead := xdr.NewEncoder(nil)
		writeLen := nfsproto.AppendWriteArgsHead(writeHead, file, 0, nfsproto.MaxData)
		writeBody := r.cli.GetWriteBuf()
		defer writeBody.Release()
		calls := []struct {
			proc nfsproto.Proc
			args []byte
		}{
			{nfsproto.ProcGetattr, xdr.Marshal(&nfsproto.FHArgs{File: file})},
			{nfsproto.ProcSetattr, xdr.Marshal(&nfsproto.SetattrArgs{File: file, Attr: nfsproto.DefaultSAttr(0600)})},
			{nfsproto.ProcLookup, xdr.Marshal(&nfsproto.DirOpArgs{Dir: root, Name: "f"})},
			{nfsproto.ProcRead, xdr.Marshal(&nfsproto.ReadArgs{File: file, Count: nfsproto.MaxData})},
			{nfsproto.ProcWrite, writeHead.Bytes()},
			{nfsproto.ProcCreate, xdr.Marshal(&nfsproto.CreateArgs{Where: nfsproto.DirOpArgs{Dir: root, Name: "new"}, Attr: nfsproto.DefaultSAttr(0644)})},
			{nfsproto.ProcMkdir, xdr.Marshal(&nfsproto.CreateArgs{Where: nfsproto.DirOpArgs{Dir: root, Name: "newdir"}, Attr: nfsproto.DefaultSAttr(0755)})},
			{nfsproto.ProcRemove, xdr.Marshal(&nfsproto.DirOpArgs{Dir: root, Name: "gone"})},
			{nfsproto.ProcRmdir, xdr.Marshal(&nfsproto.DirOpArgs{Dir: root, Name: "dir"})},
			{nfsproto.ProcRename, xdr.Marshal(&nfsproto.RenameArgs{From: nfsproto.DirOpArgs{Dir: root, Name: "old"}, To: nfsproto.DirOpArgs{Dir: root, Name: "renamed"}})},
			{nfsproto.ProcReaddir, xdr.Marshal(&nfsproto.ReaddirArgs{Dir: root, Count: 1024})},
			{nfsproto.ProcStatfs, xdr.Marshal(&nfsproto.FHArgs{File: root})},
		}
		for i, c := range calls {
			xid := uint32(100 + i)
			var body *block.Buf
			bodyLen := 0
			if c.proc == nfsproto.ProcWrite {
				body, bodyLen = writeBody, writeLen
			}
			before := ops(c.proc)
			if st := rpc(p, rawCall(xid, c.proc, c.args[:len(c.args)/2]), body, bodyLen); st != oncrpc.GarbageArgs {
				t.Errorf("%v with truncated args: accept status %d, want GARBAGE_ARGS", c.proc, st)
			}
			if st := rpc(p, rawCall(xid, c.proc, c.args), body, bodyLen); st != oncrpc.Success {
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
		if st := rpc(p, wrongProg, nil, 0); st != oncrpc.ProgUnavail {
			t.Errorf("wrong program: accept status %d, want PROG_UNAVAIL", st)
		}
		if st := rpc(p, rawCall(201, nfsproto.ProcLink, xdr.Marshal(&nfsproto.FHArgs{File: file})), nil, 0); st != oncrpc.ProcUnavail {
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

// TestWriteWithoutBodyIsGarbageArgs: a WRITE is a head and a body, so a
// WRITE datagram with no body is answered GARBAGE_ARGS and runs nothing,
// even when its payload holds the data after the head as XDR's contiguous
// encoding would; sent with its body, the same call executes.
func TestWriteWithoutBodyIsGarbageArgs(t *testing.T) {
	for _, gathering := range []bool{false, true} {
		r := newRig(t, 1, rigOpts{gathering: gathering})
		probe := r.net.Attach("probe", 0, 0)
		writes := func() uint64 { return r.srv.OpCounts[nfsproto.ProcWrite].Ops }
		accept := func(p *sim.Proc) oncrpc.AcceptStat {
			dg := probe.Inbox.Get(p)
			defer dg.Release()
			var reply oncrpc.ReplyMsg
			if err := oncrpc.DecodeReplyInto(dg.Payload, &reply); err != nil {
				t.Errorf("reply: %v", err)
			}
			return reply.AccStat
		}
		done := false
		r.sim.Spawn("probe", func(p *sim.Proc) {
			f, err := r.cli.Create(p, r.srv.RootFH(), "f", 0644)
			if err != nil || f.Status != nfsproto.OK {
				t.Errorf("Create: %v", err)
				return
			}
			head, n := writeCall(7, f.File, 0, nfsproto.MaxData)
			r.net.Send(p, "probe", "server", append(head[:len(head):len(head)], make([]byte, n)...))
			if st := accept(p); st != oncrpc.GarbageArgs || writes() != 0 {
				t.Errorf("gathering=%v: body-less WRITE: accept status %d, %d writes; want GARBAGE_ARGS and none", gathering, st, writes())
			}
			body := r.cli.GetWriteBuf()
			defer body.Release()
			sendWrite(p, r.net, "probe", head, body, n)
			if st := accept(p); st != oncrpc.Success || writes() != 1 {
				t.Errorf("gathering=%v: WRITE with its body: accept status %d, %d writes; want SUCCESS and one", gathering, st, writes())
			}
			done = true
		})
		r.sim.Run(0)
		if !done {
			t.Fatalf("gathering=%v: the probe stalled", gathering)
		}
	}
}

// TestOddLengthWriteSync: a WRITE whose length XDR pads travels as a head
// and a body that carries the pad, so its arguments are on the wire at the
// size XDR's contiguous encoding gives them, and the server lands exactly
// the payload, not the pad. The client's calls go through a relay that
// measures each one and forwards it unchanged.
func TestOddLengthWriteSync(t *testing.T) {
	r := newRig(t, 1, rigOpts{})
	cli := client.New(r.sim, r.net, "c2", "relay", hw.DEC3000Client(), 0, nil)
	relay := r.net.Attach("relay", 0, 0)
	var argBytes []int // each WRITE call's arguments, head and body
	r.sim.Spawn("relay", func(p *sim.Proc) {
		for {
			dg := relay.Inbox.Get(p)
			from, payload := dg.From, append([]byte(nil), dg.Payload...)
			body, n := dg.TakeBody()
			dg.Release()
			var call oncrpc.CallMsg
			if err := oncrpc.DecodeCallInto(payload, &call); err == nil && nfsproto.Proc(call.Proc) == nfsproto.ProcWrite {
				argBytes = append(argBytes, len(call.Args)+n)
			}
			r.net.SendHead(p, from, "server", netsim.Head{Bytes: payload}, body, n)
			if body != nil {
				body.Release()
			}
		}
	})
	data := []byte("6bytes")
	done := false
	r.sim.Spawn("app", func(p *sim.Proc) {
		f, err := cli.Create(p, r.srv.RootFH(), "odd", 0644)
		if err != nil || f.Status != nfsproto.OK {
			t.Errorf("Create: %v", err)
			return
		}
		fh := f.File
		if err := writeSync(cli, p, fh, 100, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		res, err := cli.Read(p, fh, 96, 16)
		if err != nil || res.Status != nfsproto.OK {
			t.Errorf("Read: %v", err)
			return
		}
		if want := append(make([]byte, 4), data...); !bytes.Equal(res.Data, want) {
			t.Errorf("read back %q, want %q", res.Data, want)
		}
		done = true
	})
	r.sim.Run(0)
	if !done {
		t.Fatal("the app did not finish")
	}
	if want := nfsproto.FHSize + 12 + xdr.OpaqueSize(len(data)); len(argBytes) != 1 || argBytes[0] != want {
		t.Fatalf("WRITE arguments on the wire: %v bytes, want [%d]", argBytes, want)
	}
}
