package openload

import (
	"testing"

	"repro/internal/client"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xdr"
)

// An admitted operation is a pooled record its RPC's callbacks drive, not
// a process: once the pools are warm, one GETATTR, LOOKUP or READDIR op end
// to end — admission, dispatch, the call, its reply and the accounting —
// allocates nothing. The READDIR reply carries named entries, which the
// client decodes in place.
func TestOpSteadyStateAllocs(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := netsim.New(s, hw.FDDI())
	ep := n.Attach("server", 0, 0)
	templates := map[nfsproto.Proc][]byte{}
	for proc, res := range map[nfsproto.Proc]interface {
		EncodedSize() int
		EncodeTo(*xdr.Encoder)
	}{
		nfsproto.ProcGetattr: &nfsproto.AttrStat{Status: nfsproto.OK},
		nfsproto.ProcLookup:  &nfsproto.DirOpRes{Status: nfsproto.OK},
		nfsproto.ProcReaddir: &nfsproto.ReaddirRes{Status: nfsproto.OK, EOF: true, Entries: []nfsproto.DirEntry{
			{FileID: 2, Name: "f0", Cookie: 1}, {FileID: 3, Name: "f1", Cookie: 2}, {FileID: 4, Name: "f2", Cookie: 3},
		}},
	} {
		e := xdr.NewEncoder(make([]byte, 0, oncrpc.SuccessHeaderSize+res.EncodedSize()))
		oncrpc.AppendSuccessHeader(e, 0)
		res.EncodeTo(e)
		templates[proc] = e.Bytes()
	}
	s.Spawn("server", func(p *sim.Proc) {
		var call oncrpc.CallMsg
		for {
			dg := ep.Inbox.Get(p)
			if err := oncrpc.DecodeCallInto(dg.Payload, &call); err != nil {
				t.Error(err)
				return
			}
			template := templates[nfsproto.Proc(call.Proc)]
			dg.Release()
			n.Encoder(len(template)).FixedOpaque(template)
			reply := n.Encoded()
			b := reply.Bytes
			b[0], b[1], b[2], b[3] = byte(call.XID>>24), byte(call.XID>>16), byte(call.XID>>8), byte(call.XID)
			n.SendHead(p, "server", "c", reply, nil, 0)
			reply.Release()
		}
	})
	cli := client.New(s, n, "c", "server", hw.DEC3000Client(), 0, nil)
	pop, err := NewPopulation(4, 1, PopFlat, 0, []nfsproto.FH{{}})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGen(cli, pop, Config{Rate: 1})
	// A zero-length window: Start opens and closes it, leaving the
	// admission path ready for the ops the test admits by hand.
	if err := g.Start(s, func(*Result) {}); err != nil {
		t.Fatal(err)
	}
	var ops uint64
	for _, op := range []workload.Op{workload.OpGetattr, workload.OpLookup, workload.OpReaddir} {
		oneOp := func() {
			g.admit(task{at: s.Now(), op: op})
			s.Run(0)
		}
		for i := 0; i < 64; i++ {
			oneOp()
		}
		if allocs := testing.AllocsPerRun(200, oneOp); allocs > 0 {
			t.Errorf("one open-loop %v allocates %.2f objects, want 0", op, allocs)
		}
		ops += 64 + 201
	}
	if r := g.res; r.Completed != ops || r.Errors != 0 || g.active != 0 {
		t.Errorf("completed %d, errors %d, %d still active; want %d clean ops", r.Completed, r.Errors, g.active, ops)
	}
}
