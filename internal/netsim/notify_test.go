package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// contend runs two senders against one Ethernet segment, each sending a
// train of datagrams of mixed sizes (so holds differ and the medium's
// FIFO is exercised), and returns what reached the receiver: instant,
// sender, sequence and how many events had fired by then. Sender b is a
// process calling Send, or, with callback set, a chain of SendNotify
// continuations started in the slot its spawn would have had.
func contend(callback bool) []string {
	s := sim.New(1)
	defer s.Close()
	n := New(s, hw.Ethernet())
	dst := n.Attach("server", 0, 0)
	n.Attach("a", 0, 0)
	n.Attach("b", 0, 0)
	var got []string
	dst.Serve(func(dg *Datagram) {
		got = append(got, fmt.Sprintf("t=%d fired=%d %s %s", s.Now(), s.EventsFired(), dg.From, dg.Payload[:2]))
		dg.Release()
	})
	sizes := []int{1400, 64, 8192, 300, 64, 4000}
	payload := func(from string, i int) []byte {
		b := make([]byte, sizes[i])
		copy(b, fmt.Sprintf("%s%d", from, i))
		return b
	}
	s.Spawn("a", func(p *sim.Proc) {
		for i := range sizes {
			n.Send(p, "a", "server", payload("a", i))
			p.Sleep(sim.Duration(100 * i))
		}
	})
	if !callback {
		s.Spawn("b", func(p *sim.Proc) {
			for i := range sizes {
				n.Send(p, "b", "server", payload("b", i))
			}
		})
	} else {
		i := 0
		var next func()
		next = func() {
			if i < len(sizes) {
				i++
				n.SendNotify("b", "server", Head{Bytes: payload("b", i-1)}, nil, 0, next)
			}
		}
		s.At(0, next)
	}
	s.Run(0)
	return got
}

// A callback sender takes the medium in the FIFO place a process sender
// would, holds it as long and releases it at the same instant: contending
// with a process sender, it leaves every delivery at the same instant, in
// the same order, with the same events fired before it.
func TestSendNotifyRunsInTheProcessSlots(t *testing.T) {
	proc, cb := contend(false), contend(true)
	if len(proc) != 12 {
		t.Fatalf("%d deliveries, want 12", len(proc))
	}
	if !reflect.DeepEqual(proc, cb) {
		t.Errorf("process sender:\n%v\ncallback sender:\n%v", proc, cb)
	}
}
