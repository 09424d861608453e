package client

import (
	"testing"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
)

// TestCrashLeavesArmedDemuxInert crashes a client host at the instant a
// reply reaches its socket buffer, after the delivery: the drain the
// delivery scheduled comes up only after the crash, on a dead endpoint. It
// must do nothing — the reply's 8K body was released with the socket
// buffer, and no call completes — whether the host stays down or reboots
// in the same instant. After the reboot a fresh call is answered through
// the new endpoint's demultiplexer.
func TestCrashLeavesArmedDemuxInert(t *testing.T) {
	for _, reboot := range []bool{false, true} {
		s := sim.New(1)
		n := netsim.New(s, hw.FDDI())
		acct := block.NewAccounting()
		c := New(s, n, "c", "server", fastParams(), 0, acct)
		srv := n.Attach("server", 0, 0)
		pool := acct.NewPool()
		replies := 0
		s.Spawn("server", func(p *sim.Proc) {
			for {
				dg := srv.Inbox.Get(p)
				var call oncrpc.CallMsg
				err := oncrpc.DecodeCallInto(dg.Payload, &call)
				dg.Release()
				if err != nil {
					t.Errorf("server: %v", err)
					return
				}
				// Answer with a body by reference, as a READ reply travels.
				body := pool.Get()
				n.SendHead(p, "server", "c", netsim.Head{Bytes: attrReply(call.XID)}, body, nfsproto.MaxData)
				body.Release()
				if replies++; replies > 1 {
					continue
				}
				s.At(n.Params().Latency, func() {
					// Pending: the drain and the caller's retransmission timer.
					if c.ep.Inbox.Len() != 1 || s.Pending() != 2 {
						t.Errorf("at the crash: %d replies queued, %d events pending; want the reply, its drain and the caller's timer",
							c.ep.Inbox.Len(), s.Pending())
					}
					c.Crash()
					if reboot {
						c.Reboot()
						s.SpawnAfter(sim.Millisecond, "after", func(p *sim.Proc) {
							if _, err := c.Getattr(p, nfsproto.FH{}); err != nil {
								t.Errorf("call after the reboot: %v", err)
							}
						})
					}
				})
			}
		})
		app := s.Spawn("app", func(p *sim.Proc) {
			c.Getattr(p, nfsproto.FH{})
			t.Error("the crashed host's call returned")
		})
		c.AdoptApp(app)
		s.Run(0)

		wantReplied := uint64(0)
		if reboot {
			wantReplied = 1
		}
		if c.Calls != wantReplied+1 || c.Replied != wantReplied || c.Abandoned != 1 || c.Timeouts != 0 || c.PendingRPCs() != 0 {
			t.Errorf("reboot=%v: calls %d, replied %d, abandoned %d, timeouts %d, pending %d",
				reboot, c.Calls, c.Replied, c.Abandoned, c.Timeouts, c.PendingRPCs())
		}
		if unaccounted := acct.TotalRefs() - int64(c.HeldBodies()); unaccounted != 0 {
			t.Errorf("reboot=%v: %d block references unaccounted for", reboot, unaccounted)
		}
		s.Close()
	}
}
