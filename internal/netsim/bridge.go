package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// A Bridge is a store-and-forward node joining two or more Network
// segments. Each port attaches one endpoint on its segment (receiving
// datagrams through the normal delivery path — the "store") and owns a
// bounded FIFO output queue feeding a transmitter process that
// re-serializes forwarded datagrams onto the attached segment (the
// "forward"). Routing an arrival onto an output queue never blocks, so
// the receive side is a callback on the port's endpoint, not a process;
// only the transmitter, which holds the medium, is one. Queueing delay is
// therefore charged in sim time by the target medium itself: one
// transmitter per port drains the FIFO in order, and each datagram pays
// the full wire time of the outgoing segment. The queue bound is the bridge's drop budget; overflow and
// down-port losses are counted per port.
//
// Only NewFabric builds bridges, one per non-root segment, joining it to
// its parent. Forwarding keeps no per-host state: the bridge asks its
// fabric which way the destination's segment lies. Datagrams for unknown
// destinations are filtered, as a learning bridge discards frames for
// addresses local to the arrival segment.
type Bridge struct {
	Name  string
	Ports []*BridgePort

	sim *sim.Sim
	p   BridgeParams
}

// BridgeParams configures a bridge's per-port behaviour.
type BridgeParams struct {
	// ForwardLatency is the per-datagram store-and-forward processing
	// time between dequeue and retransmission.
	ForwardLatency sim.Duration
	// QueueItems bounds each port's output FIFO in datagrams
	// (0 = unbounded). This is the drop budget: a full queue drops.
	QueueItems int
}

// BridgePort is one attachment of a bridge to a segment, transmitting
// forwarded datagrams onto that segment.
type BridgePort struct {
	Index   int
	Segment string // label for reporting (the attached segment's name)

	bridge *Bridge
	net    *Network
	ep     *Endpoint
	out    *sim.Queue[*Datagram]
	down   bool

	// Counters.
	Forwarded      uint64 // datagrams retransmitted onto this port's segment
	ForwardedBytes uint64 // payload bytes retransmitted
	DropsNoRoute   uint64 // arrivals with no forwarding entry (filtered)
	dropsLinkDown  uint64 // dequeued while the port was down
	received       uint64 // arrivals on this port's endpoint
	routed         uint64 // arrivals offered to an output port's FIFO
}

// Net returns the segment network the port is attached to.
func (bp *BridgePort) Net() *Network { return bp.net }

// Down reports whether the port's link is severed.
func (bp *BridgePort) Down() bool { return bp.down }

// QueueLen reports the current output FIFO depth in datagrams.
func (bp *BridgePort) QueueLen() int { return bp.out.Len() }

// PeakQueueLen reports the high-water output FIFO depth.
func (bp *BridgePort) PeakQueueLen() int { return bp.out.PeakLen() }

// DropsQueueFull counts datagrams lost to output FIFO overflow — the
// drop budget spent on this port.
func (bp *BridgePort) DropsQueueFull() uint64 { return bp.out.Drops() }

// DropsLinkDown counts datagrams lost because the port was down: queued
// output drained while severed, plus in-flight deliveries that arrived
// at the severed attachment (counted by the segment, attributed here).
func (bp *BridgePort) DropsLinkDown() uint64 { return bp.dropsLinkDown }

// CheckDatagrams checks the bridge's datagram identity port by port:
// every arrival on a port was filtered (no route) or offered to an output
// FIFO, and every datagram a FIFO accepted was forwarded, dropped at a
// down port or is still queued. Offers a full FIFO rejected are its
// queue-full drops, so summed over the ports, datagrams received =
// forwarded + dropped (no route, queue full, link down) + still queued.
// It holds whenever no transmitter is between dequeue and send — at
// quiesce. The error names the bridge and the port.
func (b *Bridge) CheckDatagrams() error {
	for _, bp := range b.Ports {
		if bp.received != bp.DropsNoRoute+bp.routed {
			return fmt.Errorf("bridge %s port %d (%s): received %d != no route %d + routed %d",
				b.Name, bp.Index, bp.Segment, bp.received, bp.DropsNoRoute, bp.routed)
		}
		if q := uint64(bp.out.Len()); bp.out.Puts() != bp.Forwarded+bp.dropsLinkDown+q {
			return fmt.Errorf("bridge %s port %d (%s): queued %d != forwarded %d + link down %d + still queued %d",
				b.Name, bp.Index, bp.Segment, bp.out.Puts(), bp.Forwarded, bp.dropsLinkDown, q)
		}
	}
	return nil
}

// SetDown severs or restores the port. While down the port neither
// receives (in-flight deliveries to its endpoint are lost, exactly as
// for a host behind SetLinkDown) nor transmits (dequeued datagrams are
// dropped and counted). Queued datagrams in the output FIFO do NOT
// survive an outage: the transmitter keeps draining and dropping, which
// is what a bridge flushing a dead interface does.
func (bp *BridgePort) SetDown(down bool) {
	bp.down = down
	bp.net.SetLinkDown(bp.ep.Name, down)
}

// attachPort joins the bridge to one of its fabric's segments: it
// attaches an endpoint named after the bridge, serves it with the port's
// router, and spawns the port's transmitter process. segment is a
// reporting label.
func (b *Bridge) attachPort(n *Network, segment string) *BridgePort {
	bp := &BridgePort{
		Index:   len(b.Ports),
		Segment: segment,
		bridge:  b,
		net:     n,
		ep:      n.Attach(b.Name, 0, 0),
		out:     sim.NewQueue[*Datagram](b.sim, b.p.QueueItems),
	}
	b.Ports = append(b.Ports, bp)
	bp.ep.Serve(func(dg *Datagram) { b.route(bp, dg) })
	b.sim.Spawn(fmt.Sprintf("%s.tx%d", b.Name, bp.Index), func(p *sim.Proc) { bp.transmit(p) })
	return bp
}

// outPort resolves the port a datagram for host leaves through, having
// arrived on in: the far side of this bridge when it is the fabric's hop
// from the arrival segment toward the host's. nil filters the datagram.
func (b *Bridge) outPort(in *BridgePort, host string) *BridgePort {
	if h := in.net.fabric.hopToward(in.net.seg, host); h.via == in.ep {
		return h.out
	}
	return nil
}

// route looks up the output port for one datagram that arrived on in and
// enqueues it on that port's FIFO. No way onward — or one pointing back
// out the arrival port — filters the datagram.
func (b *Bridge) route(in *BridgePort, dg *Datagram) {
	in.received++
	out := b.outPort(in, dg.To)
	if out == nil || out == in {
		in.DropsNoRoute++
		dg.Release()
		return
	}
	in.routed++
	if !out.out.Put(dg) {
		// Queue full: the per-port drop budget is spent; the byte queue
		// counted the drop, we just release the record.
		dg.Release()
	}
}

// transmit drains a port's output FIFO onto its segment. The original
// addressing is preserved; the target network resolves the destination
// again (an attached host, or the next bridge on the fabric) and takes
// its own references to the head and any body buffer, so pooled datagram
// records never migrate between networks. A carved head stays its origin
// segment's: the release that frees its slab returns the slab there.
func (bp *BridgePort) transmit(p *sim.Proc) {
	for {
		dg := bp.out.Get(p)
		if bp.down {
			bp.dropsLinkDown++
			dg.Release()
			continue
		}
		if d := bp.bridge.p.ForwardLatency; d > 0 {
			p.Sleep(d)
		}
		if bp.down {
			// The port went down while the datagram was being processed.
			bp.dropsLinkDown++
			dg.Release()
			continue
		}
		bp.Forwarded++
		bp.ForwardedBytes += uint64(dg.Size())
		bp.net.send(p, dg.From, dg.To, Head{Bytes: dg.Payload, slab: dg.head}, dg.Body, dg.BodyLen)
		dg.Release()
	}
}
