package server

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// TestDupResendOutlivesSlabRecycling plays a client at the datagram level
// on a ledger with Debug on, so every slab that goes back on the spare
// list is scribbled first. Its READDIR is answered, and the reply
// consumed and released; then more READDIRs turn the dup cache over
// until a slab that held earlier replies is recarved; then the first call
// is retransmitted. The dup cache's own reference kept that reply's head
// out of the recycling, so the resend carries the first reply's bytes,
// and no name decoded from either reads a scribbled byte.
func TestDupResendOutlivesSlabRecycling(t *testing.T) {
	// Some 18 replies fill a slab, so the calls between the first and its
	// retransmission retire the first reply's slab too.
	const dupCap = 40
	acct := block.NewAccounting()
	acct.Debug = true
	r := newRig(t, 51, rigOpts{fddi: true, acct: acct, dupCap: dupCap})
	probe := r.net.Attach("probe", 0, 0)
	root := r.srv.RootFH()

	var want []string
	for i := 0; i < 40; i++ {
		want = append(want, fmt.Sprintf("f%02d", i))
	}
	// names decodes a READDIR reply; the names alias the datagram's head.
	names := func(dg *netsim.Datagram) []string {
		var reply oncrpc.ReplyMsg
		var res nfsproto.ReaddirRes
		if err := oncrpc.DecodeReplyInto(dg.Payload, &reply); err != nil {
			t.Fatalf("reply: %v", err)
		}
		if err := nfsproto.DecodeReaddirResInto(reply.Results, &res); err != nil || res.Status != nfsproto.OK {
			t.Fatalf("readdir result: %v %v", err, res.Status)
		}
		var out []string
		for _, e := range res.Entries {
			out = append(out, e.Name)
		}
		return out
	}
	check := func(what string, got []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: names %v, want %v", what, got, want)
		}
	}

	var seen = map[*byte]bool{} // where replies' heads sat before the first call
	recycled := false
	r.sim.Spawn("probe", func(p *sim.Proc) {
		for _, name := range want {
			if res, err := r.cli.Create(p, root, name, 0644); err != nil || res.Status != nfsproto.OK {
				t.Errorf("create %s: %v", name, err)
				return
			}
		}
		call := func(xid uint32) *netsim.Datagram {
			r.net.Send(p, "probe", "server", rawCall(xid, nfsproto.ProcReaddir,
				xdr.Marshal(&nfsproto.ReaddirArgs{Dir: root, Count: 1024})))
			return probe.Inbox.Get(p)
		}
		for i := 0; i < 3*dupCap; i++ {
			dg := call(uint32(100 + i))
			check("an earlier reply", names(dg))
			seen[&dg.Payload[0]] = true
			dg.Release()
		}

		first := call(1)
		check("the first reply", names(first))
		sent := bytes.Clone(first.Payload)
		first.Release() // consumed

		for i := 0; i < dupCap-2; i++ {
			dg := call(uint32(1000 + i))
			recycled = recycled || seen[&dg.Payload[0]]
			dg.Release()
		}

		resends := r.srv.DupResends
		again := call(1) // the retransmission
		if r.srv.DupResends != resends+1 {
			t.Error("the retransmission was not answered from the dup cache")
		}
		if !bytes.Equal(again.Payload, sent) {
			t.Errorf("the resend carries other bytes than the first reply (scribbled: %v)",
				bytes.Contains(again.Payload, bytes.Repeat([]byte{0xA5}, 8)))
		}
		check("the resend", names(again))
		again.Release()
	})
	r.sim.Run(0)
	if !recycled {
		t.Fatal("no slab was recarved while the first reply's entry lived: the test proves nothing")
	}
	if got, held := r.net.HeadRefs(), r.heldHeads(); got != held {
		t.Fatalf("%d head references at quiesce, %d held by the dup cache and the client", got, held)
	}
}
