package client

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// attrServer answers every call with an OK attrstat after delay, releasing
// each call datagram (and the WRITE body it may carry) as it goes, so the
// block ledger sees only what the client holds. While mute it drains
// calls without answering.
type attrServer struct {
	mute    bool
	drop    int // calls still to swallow, as a lost datagram
	answers int
}

func newAttrServer(s *sim.Sim, n *netsim.Network, delay sim.Duration) *attrServer {
	srv := &attrServer{}
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
			from := dg.From
			dg.Release()
			if srv.mute {
				continue
			}
			if srv.drop > 0 {
				srv.drop--
				continue
			}
			p.Sleep(delay)
			reply := append(n.WireBuf(len(template)), template...)
			reply[0], reply[1], reply[2], reply[3] = byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid)
			n.Send(p, "server", from, reply)
			srv.answers++
		}
	})
	return srv
}

// driverScript issues three GETATTRs and a STATFS one after another,
// each at the previous one's completion, from a parked process (Getattr) or as
// callback calls (Go), while a second host keeps the medium busy and the
// server loses the second call's first transmission. It records every
// completion and every OnRPC report with its instant and the events
// fired by then.
func driverScript(callback bool) []string {
	s := sim.New(1)
	defer s.Close()
	n := netsim.New(s, hw.Ethernet())
	srv := newAttrServer(s, n, 2*sim.Millisecond)
	c := New(s, n, "c", "server", fastParams(), 0, nil)
	n.Attach("noise", 0, 0)
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("t=%d fired=%d ", s.Now(), s.EventsFired())+fmt.Sprintf(format, args...))
	}
	c.OnRPC = func(_ nfsproto.Proc, xid uint32, _ sim.Time, attempts int, ok bool) {
		logf("rpc %d: %d attempts, ok %v", xid, attempts, ok)
	}
	s.Spawn("noise", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			n.Send(p, "noise", "nowhere", make([]byte, 1000+100*i))
			p.Sleep(sim.Duration(300 * (i % 4)))
		}
	})
	s.At(3*sim.Millisecond, func() { srv.drop = 1 })
	const calls = 4
	if !callback {
		s.Spawn("app", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				if i == calls-1 {
					res, err := c.Statfs(p, nfsproto.FH{})
					logf("call %d: %v %v", i, res.Status, err)
					continue
				}
				res, err := c.Getattr(p, nfsproto.FH{})
				logf("call %d: %v %v", i, res.Status, err)
			}
		})
	} else {
		i := 0
		var next func()
		done := func(st nfsproto.Status, err error) {
			logf("call %d: %v %v", i, st, err)
			i++
			next()
		}
		next = func() {
			switch {
			case i < calls-1:
				c.Go(Req{Proc: nfsproto.ProcGetattr}, done)
			case i == calls-1:
				c.Go(Req{Proc: nfsproto.ProcStatfs}, done)
			}
		}
		s.At(0, next)
	}
	s.Run(0)
	return trace
}

// Go and the blocking procedures drive one retransmission loop through
// the same slots: the same calls either way are answered, retransmitted
// and completed at the same instants with the same events fired before
// each. A blocking caller is woken by its reply's Signal directly; any
// intermediate event would show here.
func TestGoRunsInTheBlockingSlots(t *testing.T) {
	blocking, callback := driverScript(false), driverScript(true)
	if len(blocking) != 8 {
		t.Fatalf("blocking script logged %d lines, want 4 reports and 4 completions:\n%s", len(blocking), strings.Join(blocking, "\n"))
	}
	if !strings.Contains(strings.Join(blocking, "\n"), "2 attempts, ok true") {
		t.Errorf("no call was retransmitted:\n%s", strings.Join(blocking, "\n"))
	}
	if !reflect.DeepEqual(blocking, callback) {
		t.Errorf("blocking:\n%s\ncallback:\n%s", strings.Join(blocking, "\n"), strings.Join(callback, "\n"))
	}
}

// A callback call is nobody's stack, so a host crash does not unwind it:
// in flight across Crash it transmits nothing while the host is down and
// settles as a reply once a retransmission goes out after the Reboot, or
// as a timeout if the host never comes back. Either way the RPC ledger
// balances with nothing pending, and a WRITE's staging buffer is back in
// the pool: the block ledger holds nothing but the client's reply scratch.
func TestGoSettlesAcrossCrash(t *testing.T) {
	for _, tc := range []struct {
		proc   nfsproto.Proc
		reboot bool
	}{
		{nfsproto.ProcGetattr, true}, {nfsproto.ProcGetattr, false},
		{nfsproto.ProcWrite, true}, {nfsproto.ProcWrite, false},
	} {
		s := sim.New(1)
		n := netsim.New(s, hw.FDDI())
		acct := block.NewAccounting()
		srv := newAttrServer(s, n, 5*sim.Millisecond)
		c := New(s, n, "c", "server", fastParams(), 0, acct)
		c.MaxRetries = 4
		settled := 0
		var got error
		s.At(0, func() {
			c.Go(Req{Proc: tc.proc, Off: nfsproto.MaxData}, func(_ nfsproto.Status, err error) {
				settled++
				got = err
			})
		})
		// The first reply reaches a dead host; the retransmissions at 20 ms
		// and 60 ms find it down; the one at 140 ms goes out after a reboot.
		s.At(sim.Millisecond, c.Crash)
		if tc.reboot {
			s.At(100*sim.Millisecond, c.Reboot)
		}
		s.Run(0)
		want := ErrTimeout
		if tc.reboot {
			want = nil
		}
		if settled != 1 || got != want {
			t.Errorf("proc %d reboot=%v: settled %d times with %v, want once with %v", tc.proc, tc.reboot, settled, got, want)
		}
		if c.Calls != 1 || c.Calls != c.Replied+c.Timeouts+c.Abandoned || c.PendingRPCs() != 0 {
			t.Errorf("proc %d reboot=%v: calls %d, replied %d, timeouts %d, abandoned %d, pending %d",
				tc.proc, tc.reboot, c.Calls, c.Replied, c.Timeouts, c.Abandoned, c.PendingRPCs())
		}
		if tc.reboot && (srv.answers != 2 || c.Retransmissions != 3) {
			t.Errorf("proc %d: %d answers, %d retransmissions; want the lost first reply and the one after the reboot, 3 retransmissions",
				tc.proc, srv.answers, c.Retransmissions)
		}
		if unaccounted := acct.TotalRefs() - int64(c.HeldBodies()); unaccounted != 0 {
			t.Errorf("proc %d reboot=%v: %d block references unaccounted for", tc.proc, tc.reboot, unaccounted)
		}
		s.Close()
	}
}

// A biod killed mid-RPC is a blocking caller unwound by a kill: its call
// counts Abandoned, its flow-control slot settles, and the unwinding write
// releases its staging buffer.
func TestKillBiodsMidRPCAbandons(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := netsim.New(s, hw.FDDI())
	acct := block.NewAccounting()
	srv := newAttrServer(s, n, 0)
	srv.mute = true
	c := New(s, n, "c", "server", fastParams(), 1, acct)
	s.Spawn("app", func(p *sim.Proc) {
		buf := c.GetWriteBuf()
		if err := c.writeBehindBuf(p, nfsproto.FH{}, 0, buf, nfsproto.MaxData); err != nil {
			t.Errorf("write-behind: %v", err)
		}
	})
	s.At(30*sim.Millisecond, func() {
		if c.PendingRPCs() != 1 || c.Outstanding() != 1 {
			t.Errorf("before the kill: %d pending, %d outstanding; want the biod's write in flight", c.PendingRPCs(), c.Outstanding())
		}
		if k := c.KillBiods(1); k != 1 {
			t.Errorf("KillBiods killed %d, want 1", k)
		}
	})
	s.Run(0)
	if c.Calls != 1 || c.Abandoned != 1 || c.Replied+c.Timeouts != 0 || c.PendingRPCs() != 0 || c.Outstanding() != 0 {
		t.Errorf("calls %d, abandoned %d, replied %d, timeouts %d, pending %d, outstanding %d",
			c.Calls, c.Abandoned, c.Replied, c.Timeouts, c.PendingRPCs(), c.Outstanding())
	}
	if refs := acct.TotalRefs(); refs != 0 {
		t.Errorf("%d block references left after the kill", refs)
	}
}

// A steady-state Go round trip allocates nothing: the pending-call record
// and its bound continuations, the callback send's record, the waiter and
// the event records all come from pools.
func TestGoSteadyStateAllocs(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := netsim.New(s, hw.FDDI())
	newAttrServer(s, n, 0)
	c := New(s, n, "c", "server", fastParams(), 0, nil)
	var failed error
	done := func(st nfsproto.Status, err error) {
		if err != nil || st != nfsproto.OK {
			failed = err
		}
	}
	oneOp := func() {
		c.Go(Req{Proc: nfsproto.ProcGetattr}, done)
		s.Run(0)
	}
	for i := 0; i < 64; i++ {
		oneOp()
	}
	if allocs := testing.AllocsPerRun(200, oneOp); allocs > 0 {
		t.Errorf("steady-state Go GETATTR allocates %.2f objects/op, want 0", allocs)
	}
	if failed != nil || c.Replied != c.Calls {
		t.Errorf("calls %d, replied %d, last error %v", c.Calls, c.Replied, failed)
	}
}
