// Package netsim models a shared-medium LAN (Ethernet or FDDI) carrying
// UDP datagrams between named endpoints: per-fragment serialization on a
// half-duplex medium, fragmentation of 8K NFS datagrams into MTU-sized
// pieces, propagation latency, and bounded receive socket buffers that
// drop on overflow — the behaviour NFS clients' retransmission machinery
// exists to paper over.
package netsim

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/sim"
)

// UDPIPOverhead is the per-datagram header cost added to payloads.
const UDPIPOverhead = 28 // IP (20) + UDP (8)

// PerFragmentHeader is the link+IP framing per fragment.
const PerFragmentHeader = 34

// Datagram is one UDP message in flight or queued at a receiver.
//
// A datagram carries either one contiguous Payload, or — for the
// zero-copy WRITE calls and READ replies — a Payload holding the message
// head (RPC header and argument or result prefix) plus a refcounted Body
// buffer carrying the data bytes. Body rides by reference: the datagram
// holds one reference, taken at Send and dropped at Release, wherever the
// datagram dies (consumed, socket overflow, crashed destination, detach
// scrub) — unless the consumer took it over with TakeBody.
//
// Datagrams are pooled per Network: a consumer that has finished with one
// (the payload may still be referenced — Release only drops the struct's
// references) can hand it back with Release, and the next Send reuses it.
// Consumers that never call Release simply leave collection to the GC —
// except for Body references, which MUST be released.
type Datagram struct {
	From    string
	To      string
	Payload []byte
	// Body is the optional refcounted payload segment; BodyLen is the
	// number of bytes of it on the wire (a multiple of 4, so the XDR
	// padding of the opaque it encodes is complete).
	Body    *block.Buf
	BodyLen int
	// Frags is the number of link-level fragments the datagram needed;
	// receivers charge per-fragment CPU.
	Frags int
	// WireSize is the total bytes that crossed the medium.
	WireSize int
	// Sent is when the datagram finished serializing onto the wire.
	Sent sim.Time
	// Parsed is a memoization slot for receivers that peek at queued
	// datagrams (the server's mbuf hunter).
	Parsed any

	net *Network  // pool owner; nil once released
	dst *Endpoint // delivery target for the in-flight latency event
	// deliver is bound once per pooled record so the per-send latency
	// event needs no fresh closure.
	deliver func()
}

// Size reports the datagram's total UDP payload bytes (head plus body).
func (d *Datagram) Size() int { return len(d.Payload) + d.BodyLen }

// TakeBody hands the datagram's Body reference over to the caller (nil, 0
// when it carries none): the consumer of a split message keeps the
// payload past Release without a copy, and owes the reference's release.
func (d *Datagram) TakeBody() (*block.Buf, int) {
	b, n := d.Body, d.BodyLen
	d.Body, d.BodyLen = nil, 0
	return b, n
}

// Release returns the datagram record to its network's pool and drops its
// Body reference, if any. The head payload bytes are not recycled — slices
// aliasing them (decoded calls, replies) stay valid. Releasing twice is a
// no-op.
func (d *Datagram) Release() {
	n := d.net
	if n == nil {
		return
	}
	d.net = nil
	d.dst = nil
	d.Payload = nil
	if d.Body != nil {
		d.Body.Release()
		d.Body = nil
	}
	d.BodyLen = 0
	d.Parsed = nil
	d.From, d.To = "", ""
	n.free = append(n.free, d)
}

// Endpoint is a named host attachment with a receive socket buffer.
type Endpoint struct {
	Name string
	// Inbox is the receive socket buffer. For servers it is bounded in
	// bytes (DEC OSF/1 used 0.25 MB); overflow drops datagrams.
	Inbox *sim.Queue[*Datagram]
	// dead marks a detached endpoint (host crashed / interface down);
	// in-flight deliveries to it are dropped like any other lost datagram.
	dead bool
	// linkDown marks a severed attachment (SetLinkDown): the host is alive
	// — queued datagrams stay in the socket buffer — but nothing crosses
	// the interface in either direction until the link comes back.
	linkDown bool
}

// Serve hands every datagram that reaches the socket buffer to fn, oldest
// first, from a callback armed on the buffer (Queue.Notify): a consumer
// that never blocks mid-datagram needs no process. Serving stops when the
// endpoint is detached; a drain already scheduled then finds it dead and
// does nothing, and Detach has released whatever was queued.
func (e *Endpoint) Serve(fn func(*Datagram)) {
	var drain func()
	drain = func() {
		for !e.dead {
			dg, ok := e.Inbox.TryGet()
			if !ok {
				e.Inbox.Notify(drain)
				return
			}
			fn(dg)
		}
	}
	e.Inbox.Notify(drain)
}

// Dead reports whether the endpoint has been detached from its network.
func (e *Endpoint) Dead() bool { return e.dead }

// LinkDown reports whether the endpoint's attachment is severed.
func (e *Endpoint) LinkDown() bool { return e.linkDown }

// Network is one shared-medium LAN segment.
type Network struct {
	sim       *sim.Sim
	p         hw.NetParams
	medium    *sim.Resource
	endpoints map[string]*Endpoint
	// routes maps destination host names that are NOT attached to this
	// segment to the local endpoint of a bridge that is one hop closer to
	// them. A local endpoint always wins over a route.
	routes map[string]*Endpoint
	// fabric, when the segment is part of one, resolves the destinations
	// that have neither an endpoint nor a route here; seg is this segment's
	// index in it.
	fabric *Fabric
	seg    int
	free   []*Datagram // datagram record pool
	freeTx []*transmit // SendNotify record pool
	// slab is the current wire-head slab: WireBuf carves heads off its
	// front and never hands the same bytes out twice.
	slab []byte

	// Counters.
	SentDatagrams uint64
	SentBytes     uint64
	DropsNoDest   uint64
	// DropsLinkDown counts datagrams lost to a severed attachment: sends
	// from a link-down host (the NIC cannot drive the medium) and
	// deliveries arriving at one.
	DropsLinkDown uint64

	// The rest of the datagram ledger (CheckDatagrams): sends a severed
	// driver dropped before the medium (the send half of DropsLinkDown),
	// datagrams accepted into a socket buffer, and arrivals lost to a full
	// socket buffer or a crashed host.
	severedSends, delivered, dropsSocket, dropsHostDown uint64
}

// New builds a network with the given link parameters.
func New(s *sim.Sim, p hw.NetParams) *Network {
	return &Network{
		sim:       s,
		p:         p,
		medium:    sim.NewResource(s, 1),
		endpoints: make(map[string]*Endpoint),
	}
}

// Params returns the link parameters.
func (n *Network) Params() hw.NetParams { return n.p }

// Utilization reports the fraction of time the medium has been busy.
func (n *Network) Utilization() float64 { return n.medium.Utilization() }

// MediumBusy reports the cumulative time the medium has been busy
// (probes derive windowed utilization from deltas of this).
func (n *Network) MediumBusy() sim.Duration { return n.medium.BusyTime() }

// AddRoute declares that datagrams addressed to dest — a host name with no
// endpoint on this segment — should be delivered to via, the local
// endpoint of a bridge one hop closer to dest. The original destination
// address is preserved, so the next segment resolves it again; chains of
// routes carry a datagram across hand-built bridged segments. A locally
// attached endpoint always shadows a route with the same name, and on a
// Fabric's segment a route overrides where the fabric placed dest.
func (n *Network) AddRoute(dest string, via *Endpoint) {
	if n.routes == nil {
		n.routes = make(map[string]*Endpoint)
	}
	n.routes[dest] = via
}

// Attach creates an endpoint with a socket buffer bounded to maxBytes of
// payload (0 = unbounded), and at most maxItems datagrams (0 = unbounded).
func (n *Network) Attach(name string, maxItems, maxBytes int) *Endpoint {
	if _, dup := n.endpoints[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate endpoint %q", name))
	}
	ep := &Endpoint{
		Name: name,
		Inbox: sim.NewByteQueue[*Datagram](n.sim, maxItems, maxBytes,
			func(d *Datagram) int { return d.Size() }),
	}
	n.endpoints[name] = ep
	return ep
}

// Detach removes an endpoint from the network, modelling a host crash: the
// socket buffer's queued datagrams are lost, and datagrams still in flight
// toward it are dropped on arrival. The name becomes free for a later
// Attach (the rebooted host's fresh socket buffer). Detaching an unknown
// name is a no-op, so crash injectors may fire at arbitrary times.
func (n *Network) Detach(name string) *Endpoint {
	ep, ok := n.endpoints[name]
	if !ok {
		return nil
	}
	delete(n.endpoints, name)
	ep.dead = true
	for {
		dg, ok := ep.Inbox.TryGet()
		if !ok {
			break
		}
		dg.Release()
	}
	return ep
}

// SetLinkDown severs or restores an endpoint's attachment without
// discarding the host — the link-outage fault primitive, and the stepping
// stone to bridged media (a bridge port going down is exactly this).
// While down, the host cannot transmit (sends are dropped before they
// reach the medium, as a dead NIC cannot drive it) and in-flight
// deliveries to it are lost on arrival; the socket buffer's queued
// datagrams survive, because host memory does. Unknown names are a no-op,
// so outage injectors may race host crashes harmlessly.
func (n *Network) SetLinkDown(name string, down bool) {
	if ep, ok := n.endpoints[name]; ok {
		ep.linkDown = down
	}
}

const (
	// wireSlab is the size of the slab WireBuf carves heads from.
	wireSlab = 16 << 10
	// wireHeadMax is the largest head WireBuf carves; a bigger one (a large
	// READDIR reply, a copying READ reply or WRITE call) gets its own
	// allocation.
	wireHeadMax = 2 << 10
)

// WireBuf returns a zero-length buffer of capacity size for encoding one
// message head sent on this segment. Heads are carved from a shared slab
// rather than allocated one by one, but each is still a fresh, private
// buffer: carved bytes are never handed out twice and never pooled, so a
// head stays valid for as long as anything references it — an in-flight
// or queued datagram, a pending retransmission, a dup-cache entry, a
// decoded alias — and the GC frees a slab once no head in it is
// referenced. The result is cap-limited, so an encoder that outgrows size
// reallocates instead of writing into the next head.
func (n *Network) WireBuf(size int) []byte {
	if size > wireHeadMax {
		return make([]byte, 0, size)
	}
	if len(n.slab)+size > cap(n.slab) {
		n.slab = make([]byte, 0, wireSlab)
	}
	i := len(n.slab)
	n.slab = n.slab[:i+size]
	return n.slab[i : i : i+size]
}

// FragCount reports how many fragments a payload of n bytes needs.
func (n *Network) FragCount(payload int) int {
	total := payload + UDPIPOverhead
	mtu := n.p.MTU
	frags := (total + mtu - 1) / mtu
	if frags < 1 {
		frags = 1
	}
	return frags
}

// wireTime is the serialization time for a payload on the medium.
func (n *Network) wireTime(payload int) (sim.Duration, int, int) {
	frags := n.FragCount(payload)
	wire := payload + UDPIPOverhead + frags*PerFragmentHeader
	d := sim.Duration(int64(wire)*int64(sim.Second)/(int64(n.p.BandwidthKBps)*1024)) +
		sim.Duration(frags)*n.p.FragOverhead
	return d, frags, wire
}

// Send transmits payload from -> to, blocking p while the datagram
// serializes onto the shared medium (half-duplex: requests and replies
// contend). Delivery into the destination socket buffer happens after the
// propagation latency; a full buffer silently drops the datagram, exactly
// like a UDP socket. It reports whether a destination existed.
func (n *Network) Send(p *sim.Proc, from, to string, payload []byte) bool {
	return n.send(p, from, to, payload, nil, 0)
}

// SendBuf transmits a two-segment message: head (RPC header plus argument
// or result prefix) followed by bodyLen bytes of the refcounted body buffer. The
// wire behaviour — serialization time, fragmentation, socket-buffer byte
// accounting — is identical to a contiguous Send of the combined bytes;
// only the host-side copies differ. The datagram takes its own reference
// to body for its lifetime; the caller keeps (and eventually releases)
// its own. bodyLen must be a multiple of 4 so the encoded opaque needs no
// trailing padding bytes.
func (n *Network) SendBuf(p *sim.Proc, from, to string, head []byte, body *block.Buf, bodyLen int) bool {
	if bodyLen%4 != 0 {
		panic(fmt.Sprintf("netsim: split body of %d bytes needs XDR padding", bodyLen))
	}
	return n.send(p, from, to, head, body, bodyLen)
}

func (n *Network) send(p *sim.Proc, from, to string, payload []byte, body *block.Buf, bodyLen int) bool {
	if n.severed(from) {
		return false
	}
	d, frags, wire := n.wireTime(len(payload) + bodyLen)
	// Use (not Acquire/Release) so a sender killed mid-serialization — a
	// crashing server's nfsd half-way through a reply — frees the shared
	// medium as it unwinds.
	n.medium.Use(p, d)
	return n.emit(from, to, payload, body, bodyLen, frags, wire)
}

// severed drops a datagram whose sender's attachment is down: it dies in
// the driver without ever touching the shared medium.
func (n *Network) severed(from string) bool {
	if src, ok := n.endpoints[from]; ok && src.linkDown {
		n.DropsLinkDown++
		n.severedSends++
		return true
	}
	return false
}

// emit is a send's second half, once the datagram has serialized onto the
// medium: count it and schedule its delivery after the latency.
func (n *Network) emit(from, to string, payload []byte, body *block.Buf, bodyLen, frags, wire int) bool {
	n.SentDatagrams++
	n.SentBytes += uint64(wire)
	dst, ok := n.endpoints[to]
	if !ok {
		// Off-segment destination: hand the datagram to the bridge one hop
		// closer, keeping the original addressing.
		if dst = n.routeTo(to); dst == nil || dst.dead {
			n.DropsNoDest++
			return false
		}
	}
	dg := n.getDatagram()
	dg.From, dg.To, dg.Payload = from, to, payload
	if body != nil {
		dg.Body, dg.BodyLen = body.Ref(), bodyLen
	}
	dg.Frags, dg.WireSize, dg.Sent = frags, wire, n.sim.Now()
	dg.dst = dst
	n.sim.At(n.p.Latency, dg.deliver)
	return true
}

// SendNotify is Send and SendBuf for a sender that is no process (body nil
// for a contiguous payload): it takes the medium with a callback acquire,
// holds it with an At event where Send's process sleeps, releases it and
// schedules the delivery, and then calls done. Every step schedules the
// one event the process form does, in the same (time, seq) slot, and done
// runs where Send would return: inline when the datagram dies in a severed
// driver, at the end of the hold otherwise. The caller keeps its own
// reference to body, as with SendBuf.
func (n *Network) SendNotify(from, to string, payload []byte, body *block.Buf, bodyLen int, done func()) {
	if bodyLen%4 != 0 {
		panic(fmt.Sprintf("netsim: split body of %d bytes needs XDR padding", bodyLen))
	}
	if n.severed(from) {
		done()
		return
	}
	t := n.getTransmit()
	t.from, t.to, t.payload, t.body, t.bodyLen, t.done = from, to, payload, body, bodyLen, done
	t.hold, t.frags, t.wire = n.wireTime(len(payload) + bodyLen)
	t.acquire()
}

// transmit is one SendNotify waiting for or holding the medium. Records
// are pooled per network, each with its continuations bound once, so a
// callback send allocates nothing in the steady state.
type transmit struct {
	n           *Network
	from, to    string
	payload     []byte
	body        *block.Buf
	bodyLen     int
	hold        sim.Duration
	frags, wire int
	done        func()
	acquireFn   func()
	releaseFn   func()
}

func (n *Network) getTransmit() *transmit {
	if k := len(n.freeTx); k > 0 {
		t := n.freeTx[k-1]
		n.freeTx = n.freeTx[:k-1]
		return t
	}
	t := &transmit{n: n}
	t.acquireFn, t.releaseFn = t.acquire, t.release
	return t
}

// acquire takes the medium, or waits for it in Acquire's FIFO place, and
// holds it for the serialization time.
func (t *transmit) acquire() {
	if t.n.medium.AcquireNotify(t.acquireFn) {
		t.n.sim.At(t.hold, t.releaseFn)
	}
}

// release ends the hold: the medium goes to the next sender before the
// delivery is scheduled, as Use's deferred Release does, and the record
// is back in the pool before done runs.
func (t *transmit) release() {
	n := t.n
	n.medium.Release()
	n.emit(t.from, t.to, t.payload, t.body, t.bodyLen, t.frags, t.wire)
	done := t.done
	t.payload, t.body, t.done = nil, nil, nil
	n.freeTx = append(n.freeTx, t)
	done()
}

// routeTo returns the local bridge endpoint one hop closer to an
// off-segment host: an explicit route if there is one, else the hop toward
// the segment the fabric placed the host on; nil if neither knows it.
func (n *Network) routeTo(host string) *Endpoint {
	if via, ok := n.routes[host]; ok {
		return via
	}
	if n.fabric != nil {
		return n.fabric.hopToward(n.seg, host).via
	}
	return nil
}

// getDatagram takes a record from the pool, or builds one with its
// delivery closure bound.
func (n *Network) getDatagram() *Datagram {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free = n.free[:k-1]
		d.net = n
		return d
	}
	d := &Datagram{net: n}
	d.deliver = func() {
		n := d.net
		switch {
		case d.dst.linkDown:
			// The destination's attachment went down while the datagram
			// was in flight: it arrives at a severed interface and is lost.
			n.DropsLinkDown++
		case d.dst.dead:
			// The destination host crashed while the datagram was in
			// flight.
			n.dropsHostDown++
		case d.dst.Inbox.Put(d):
			n.delivered++
			return
		default:
			// Socket buffer overflow: it dies here, exactly as a UDP
			// socket drops it.
			n.dropsSocket++
		}
		d.Release() // recycle the record immediately
	}
	return d
}

// CheckDatagrams is the segment's datagram identity, for a segment with
// nothing in flight (a quiesced simulation): every datagram sent onto the
// medium was delivered into a socket buffer or dropped for a counted
// cause — no destination, a severed attachment at arrival, a full socket
// buffer, or a crashed host. A datagram that vanished uncounted fails
// it, and the error carries the numbers.
func (n *Network) CheckDatagrams() error {
	linkDown := n.DropsLinkDown - n.severedSends
	if n.SentDatagrams != n.delivered+n.DropsNoDest+linkDown+n.dropsSocket+n.dropsHostDown {
		return fmt.Errorf("sent %d != delivered %d + no destination %d + link down %d + socket buffer full %d + host down %d",
			n.SentDatagrams, n.delivered, n.DropsNoDest, linkDown, n.dropsSocket, n.dropsHostDown)
	}
	return nil
}

// Drops reports datagrams dropped at an endpoint's socket buffer.
func (e *Endpoint) Drops() uint64 { return e.Inbox.Drops() }
