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
// a process: once the pools are warm, one GETATTR op end to end —
// admission, dispatch, the call, its reply and the accounting — allocates
// nothing.
func TestOpSteadyStateAllocs(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := netsim.New(s, hw.FDDI())
	ep := n.Attach("server", 0, 0)
	res := &nfsproto.AttrStat{Status: nfsproto.OK}
	e := xdr.NewEncoder(make([]byte, 0, oncrpc.SuccessHeaderSize+res.EncodedSize()))
	oncrpc.AppendSuccessHeader(e, 0)
	res.EncodeTo(e)
	template := e.Bytes()
	s.Spawn("server", func(p *sim.Proc) {
		for {
			dg := ep.Inbox.Get(p)
			xid, _ := oncrpc.PeekXID(dg.Payload)
			dg.Release()
			reply := append(n.WireBuf(len(template)), template...)
			reply[0], reply[1], reply[2], reply[3] = byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid)
			n.Send(p, "server", "c", reply)
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
	if err := g.Start(s, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	oneOp := func() {
		g.admit(task{at: s.Now(), op: workload.OpGetattr})
		s.Run(0)
	}
	for i := 0; i < 64; i++ {
		oneOp()
	}
	if allocs := testing.AllocsPerRun(200, oneOp); allocs > 0 {
		t.Errorf("one open-loop GETATTR allocates %.2f objects, want 0", allocs)
	}
	if r := g.res; r.Completed != 64+201 || r.Errors != 0 || g.active != 0 {
		t.Errorf("completed %d, errors %d, %d still active; want 265 clean ops", r.Completed, r.Errors, g.active)
	}
}
