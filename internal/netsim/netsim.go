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
	"repro/internal/xdr"
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
// scrub) — unless the consumer took it over with TakeBody. A Payload that
// is a carved head (Encoder) is held the same way: one reference from the
// send to Release, unless the consumer took it over with TakeHead.
//
// Datagrams are pooled per Network: a consumer that has finished with one
// hands it back with Release, and the next Send reuses it. Consumers that
// never call Release leave collection to the GC — except for the Body and
// head references, which MUST be released.
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

	head *slab     // the slab Payload was carved from; nil for plain bytes
	net  *Network  // pool owner; nil once released
	dst  *Endpoint // delivery target for the in-flight latency event
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

// TakeHead hands the datagram's reference to its Payload over to the
// caller, as TakeBody does for the Body: the consumer keeps reading the
// head (decoded aliases of it) past Release, and owes the Release of the
// returned Head. A plain payload comes back uncounted.
func (d *Datagram) TakeHead() Head {
	h := Head{Bytes: d.Payload, slab: d.head}
	d.head = nil
	return h
}

// Release returns the datagram record to its network's pool and drops its
// Body and head references, if any. Slices aliasing the payload (decoded
// calls, replies) are valid only while something holds the head.
// Releasing twice is a no-op.
func (d *Datagram) Release() {
	n := d.net
	if n == nil {
		return
	}
	d.net = nil
	d.dst = nil
	d.Payload = nil
	if d.head != nil {
		d.head.release()
		d.head = nil
	}
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
	// fabric, when the segment is part of one, resolves the destinations
	// that have no endpoint here; seg is this segment's index in it.
	fabric *Fabric
	seg    int
	free   []*Datagram // datagram record pool
	freeTx []*transmit // SendNotify record pool
	// slab is the slab heads are carved from; spare is the stack of slabs
	// no head references any more, the ones carving takes before it makes
	// one.
	slab, spare *slab
	// acct is the ledger head references are charged to, heads the
	// references held to this segment's slabs.
	acct  *block.Accounting
	heads int64
	// enc is reset onto each head Encoder begins, and head is that head
	// (encoding never yields, so one serves every host on the segment).
	enc  xdr.Encoder
	head Head

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
		acct:      block.Global(),
	}
}

// SetAccounting charges the segment's head references to a, the
// simulation's buffer ledger, instead of the process-global one, and has a
// lend its slabs' memory. Call it before the first head is carved.
func (n *Network) SetAccounting(a *block.Accounting) { n.acct = block.Or(a) }

// Acct returns the ledger the segment charges: the one the hosts attached
// to it lend their tables from.
func (n *Network) Acct() *block.Accounting { return n.acct }

// HeadRefs reports the references held to heads carved on this segment —
// by senders, datagrams on any segment, dup caches and clients.
func (n *Network) HeadRefs() int64 { return n.heads }

// Params returns the link parameters.
func (n *Network) Params() hw.NetParams { return n.p }

// Utilization reports the fraction of time the medium has been busy.
func (n *Network) Utilization() float64 { return n.medium.Utilization() }

// MediumBusy reports the cumulative time the medium has been busy
// (probes derive windowed utilization from deltas of this).
func (n *Network) MediumBusy() sim.Duration { return n.medium.BusyTime() }

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
	// wireSlab is the size of a slab's memory: one 16 KB size class, lent
	// by the segment's ledger (block.Lend).
	wireSlab = 16 << 10
	// wireHeadMax is the largest head carved from a slab; a bigger one (a large
	// READDIR reply, a copying READ reply or WRITE call) gets its own
	// allocation.
	wireHeadMax = 2 << 10
	// scribble is what a recycled slab is filled with under the ledger's
	// Debug flag, so a reader of a dead head decodes garbage.
	scribble = 0xA5
)

// Head is one message head: the bytes a datagram carries in front of its
// body (Payload). A head Encoder carved is reference-counted by its slab,
// and every holder — the sender, each datagram carrying it, a dup-cache
// entry, a client's kept reply — holds one reference, taken with Ref and
// dropped with Release. Bytes aliasing it (decoded names, verifiers) are
// valid while some reference is held. A Head of plain bytes (Head{Bytes:
// b}, or one over wireHeadMax) is owned by its caller and the GC: Ref and
// Release do nothing.
type Head struct {
	Bytes []byte
	slab  *slab
}

// Ref takes one more reference to the head and returns it.
func (h Head) Ref() Head {
	if h.slab != nil {
		h.slab.ref()
	}
	return h
}

// Release drops one reference to the head.
func (h Head) Release() {
	if h.slab != nil {
		h.slab.release()
	}
}

// Carved reports whether the head is counted, i.e. was carved from a slab.
func (h Head) Carved() bool { return h.slab != nil }

// slab is the memory heads are carved from. It goes back on its origin
// segment's spare stack once it is no longer the one being carved and no
// reference to any of its heads is left. The header is the simulation's;
// mem is lent by the segment's ledger, so at the end of a scenario cell it
// goes to the next cell, and nothing may keep a head's bytes past that.
type slab struct {
	used int // bytes of mem carved so far
	refs int
	net  *Network
	next *slab // the spare below this one
	mem  []byte
}

func (s *slab) ref() {
	s.refs++
	s.net.heads++
	s.net.acct.ChargeRefs(1)
}

func (s *slab) release() {
	if s.refs <= 0 {
		panic("netsim: wire head released more often than it was held")
	}
	s.refs--
	n := s.net
	n.heads--
	n.acct.ChargeRefs(-1)
	if s.refs == 0 && s != n.slab {
		n.recycle(s)
	}
}

// recycle puts a slab nothing references on the spare stack.
func (n *Network) recycle(s *slab) {
	if n.acct.Debugging() {
		for i := range s.mem {
			s.mem[i] = scribble
		}
	}
	s.used = 0
	s.next, n.spare = n.spare, s
}

// Encoder starts a message sent on this segment: it carves a head of
// exactly size bytes and returns the segment's encoder, reset onto it.
// Encoding never yields, so one encoder serves every host on the segment;
// the caller encodes the whole message and collects it with Encoded before
// anything yields.
func (n *Network) Encoder(size int) *xdr.Encoder {
	n.head = n.wireBuf(size)
	n.enc.Reset(n.head.Bytes)
	return &n.enc
}

// Encoded returns the head the last Encoder call began, holding what was
// encoded into it, and the reference to it, which the caller now owns.
func (n *Network) Encoded() Head {
	h := n.head
	h.Bytes = n.enc.Bytes()
	n.head = Head{}
	return h
}

// wireBuf returns a head of capacity size, with no bytes yet, and the
// caller's reference to it. A head up to wireHeadMax is carved from the
// segment's current slab, taken from the spare stack or made when the
// current one is full; the slab it replaces is recycled as soon as nothing
// references its heads. So a head's bytes are not handed out again while
// anything holds it — an in-flight or queued datagram, a pending
// retransmission, a dup-cache entry, a decoded alias's owner. The bytes
// are cap-limited, so an encoder that outgrows size reallocates instead of
// writing into the next head.
func (n *Network) wireBuf(size int) Head {
	if size > wireHeadMax {
		return Head{Bytes: make([]byte, 0, size)}
	}
	s := n.slab
	if s == nil || s.used+size > len(s.mem) {
		s = n.nextSlab()
	}
	i := s.used
	s.used += size
	s.ref()
	return Head{Bytes: s.mem[i : i : i+size], slab: s}
}

// nextSlab retires the current slab and makes a spare one current.
func (n *Network) nextSlab() *slab {
	old := n.slab
	s := n.spare
	if s != nil {
		n.spare, s.next = s.next, nil
	} else {
		s = &slab{net: n, mem: block.Lend[byte](n.acct, wireSlab)}
	}
	n.slab = s
	if old != nil && old.refs == 0 {
		n.recycle(old)
	}
	return s
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

// Send transmits a plain payload from -> to: SendHead of an uncounted
// head with no body.
func (n *Network) Send(p *sim.Proc, from, to string, payload []byte) bool {
	return n.send(p, from, to, Head{Bytes: payload}, nil, 0)
}

// SendHead transmits h followed by bodyLen bytes of the refcounted body
// buffer (none when body is nil) from -> to, blocking p while the
// datagram serializes onto the shared medium (half-duplex: requests and
// replies contend). Delivery into the destination socket buffer happens
// after the propagation latency; a full buffer silently drops the
// datagram, exactly like a UDP socket. It reports whether a destination
// existed. The wire behaviour — serialization time, fragmentation,
// socket-buffer byte accounting — is that of one contiguous payload; only
// the host-side copies differ. The datagram takes its own references to
// h and body once it has serialized; the caller holds its own across the
// call. bodyLen must be a multiple of 4 so the encoded opaque needs no
// trailing padding bytes.
func (n *Network) SendHead(p *sim.Proc, from, to string, h Head, body *block.Buf, bodyLen int) bool {
	if bodyLen%4 != 0 {
		panic(fmt.Sprintf("netsim: split body of %d bytes needs XDR padding", bodyLen))
	}
	return n.send(p, from, to, h, body, bodyLen)
}

func (n *Network) send(p *sim.Proc, from, to string, h Head, body *block.Buf, bodyLen int) bool {
	if n.severed(from) {
		return false
	}
	d, frags, wire := n.wireTime(len(h.Bytes) + bodyLen)
	// Use (not Acquire/Release) so a sender killed mid-serialization — a
	// crashing server's nfsd half-way through a reply — frees the shared
	// medium as it unwinds.
	n.medium.Use(p, d)
	return n.emit(from, to, h, body, bodyLen, frags, wire)
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
func (n *Network) emit(from, to string, h Head, body *block.Buf, bodyLen, frags, wire int) bool {
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
	dg.From, dg.To, dg.Payload = from, to, h.Bytes
	if h.slab != nil {
		h.slab.ref()
		dg.head = h.slab
	}
	if body != nil {
		dg.Body, dg.BodyLen = body.Ref(), bodyLen
	}
	dg.Frags, dg.WireSize, dg.Sent = frags, wire, n.sim.Now()
	dg.dst = dst
	n.sim.At(n.p.Latency, dg.deliver)
	return true
}

// SendNotify is SendHead for a sender that is no process: it takes the
// medium with a callback acquire, holds it with an At event where
// SendHead's process sleeps, releases it and schedules the delivery, and
// then calls done. Every step schedules the one event the process form
// does, in the same (time, seq) slot, and done runs where SendHead would
// return: inline when the datagram dies in a severed driver, at the end of
// the hold otherwise. The caller holds its own references to h and body
// until done, as with SendHead.
func (n *Network) SendNotify(from, to string, h Head, body *block.Buf, bodyLen int, done func()) {
	if bodyLen%4 != 0 {
		panic(fmt.Sprintf("netsim: split body of %d bytes needs XDR padding", bodyLen))
	}
	if n.severed(from) {
		done()
		return
	}
	t := n.getTransmit()
	t.from, t.to, t.head, t.body, t.bodyLen, t.done = from, to, h, body, bodyLen, done
	t.hold, t.frags, t.wire = n.wireTime(len(h.Bytes) + bodyLen)
	t.acquire()
}

// transmit is one SendNotify waiting for or holding the medium. Records
// are pooled per network, each with its continuations bound once, so a
// callback send allocates nothing in the steady state.
type transmit struct {
	n           *Network
	from, to    string
	head        Head
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
	n.emit(t.from, t.to, t.head, t.body, t.bodyLen, t.frags, t.wire)
	done := t.done
	t.head, t.body, t.done = Head{}, nil, nil
	n.freeTx = append(n.freeTx, t)
	done()
}

// routeTo returns the local bridge endpoint one hop closer to an
// off-segment host: the hop toward the segment the fabric placed the host
// on; nil if the fabric does not know it, or for a lone network (New).
func (n *Network) routeTo(host string) *Endpoint {
	if n.fabric == nil {
		return nil
	}
	return n.fabric.hopToward(n.seg, host).via
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
