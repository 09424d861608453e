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

// TestReplyDecodeSteadyStateAllocs pins the client's steady-state RPC
// path: once the pending-call pool has warmed up, a round trip allocates
// nothing. The reply decodes into the pooled ReplyMsg and the per-client
// result scratch, the argument record lives on the caller's stack, and
// both wire heads — the call and the echo server's reply — are carved
// from the segment's slabs (Network.Encoder), which are carved again once
// their last head is released: not one malloc each.
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
			n.Encoder(len(template)).FixedOpaque(template)
			reply := n.Encoded()
			b := reply.Bytes
			b[0], b[1], b[2], b[3] = byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid)
			dg.Release()
			n.SendHead(p, "server", "c", reply, nil, 0)
			reply.Release()
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
	// Any object is a regression: an args record built per call, a wire
	// head made instead of carved, or an un-pooled decode record
	// (ReplyMsg, AttrStat).
	if allocs > 0 {
		t.Fatalf("steady-state round trip allocates %.2f objects/op, want 0", allocs)
	}
}
