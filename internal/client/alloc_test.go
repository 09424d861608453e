package client

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// TestReplyDecodeSteadyStateAllocs pins the client-side decode pooling:
// once the pending-call pool has warmed up, a reply costs no ReplyMsg and
// no per-procedure result allocation (both decode into pooled/per-client
// records). The bound below covers what the round trip legitimately
// allocates — the args record and the two wire buffers, which must stay
// fresh because in-flight datagrams alias them — and fails if per-reply
// decode records come back.
func TestReplyDecodeSteadyStateAllocs(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, hw.FDDI())

	// Minimal echo server: patch the XID into a prebuilt OK attrstat reply.
	ep := n.Attach("server", 0, 0)
	res := &nfsproto.AttrStat{Status: nfsproto.OK}
	e := xdr.NewEncoder(make([]byte, 0, oncrpc.SuccessHeaderSize+res.EncodedSize()))
	oncrpc.AppendSuccessHeader(e, 0)
	res.EncodeTo(e)
	template := e.Bytes()
	s.Spawn("echo", func(p *sim.Proc) {
		for {
			dg := ep.Inbox.Get(p)
			xid, _ := oncrpc.PeekXID(dg.Payload)
			reply := make([]byte, len(template))
			copy(reply, template)
			reply[0], reply[1], reply[2], reply[3] = byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid)
			dg.Release()
			n.Send(p, "server", "c", reply)
		}
	})

	c := New(s, n, "c", "server", fastParams(), 0, nil)
	trigger := sim.NewQueue[int](s, 0)
	s.Spawn("app", func(p *sim.Proc) {
		for {
			trigger.Get(p)
			res, err := c.Getattr(p, nfsproto.FH{})
			if err != nil || res.Status != nfsproto.OK {
				t.Errorf("getattr: %v %v", err, res)
				return
			}
		}
	})

	oneOp := func() {
		trigger.Put(0)
		s.Run(0)
	}
	for i := 0; i < 64; i++ {
		oneOp() // warm every pool (events, waiters, datagrams, pending calls)
	}
	allocs := testing.AllocsPerRun(200, oneOp)
	// The 3 legitimate per-op allocations: args record, call wire buffer,
	// and the echo server's reply buffer (wire buffers must stay fresh —
	// in-flight datagrams alias them; the encoder is the client's one
	// reusable value). An un-pooled decode path adds at least two more
	// (ReplyMsg + AttrStat).
	if allocs > 3 {
		t.Fatalf("steady-state round trip allocates %.1f objects/op; decode records are no longer pooled", allocs)
	}
}
