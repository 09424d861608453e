package netsim

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
)

// SegmentSpec declares one named segment of a bridged fabric. Exactly
// one segment — the root — has an empty Uplink; every other segment is
// joined to its parent by a dedicated two-port store-and-forward bridge
// configured by Bridge. The resulting graph is a tree, so forwarding is
// loop-free by construction.
type SegmentSpec struct {
	Name   string
	Params hw.NetParams
	Uplink string       // parent segment name; "" marks the root
	Bridge BridgeParams // uplink bridge parameters (ignored on the root)
}

// A Fabric is a tree of Network segments joined by uplink bridges, plus
// the placement bookkeeping that lets any attached host reach any other by
// name. Routing is by segment, not by host: placing a host records the
// segment it lives on, and a segment or bridge holding a datagram for a
// host it does not know asks the fabric, which resolves host -> segment ->
// next hop from a table over segment pairs built once in NewFabric.
type Fabric struct {
	sim   *sim.Sim
	names []string       // declaration order
	index map[string]int // segment name -> its index in names and segs
	segs  []segment
	hosts map[string]int // host name -> index of its segment
	root  int
	// hops[from*len(segs)+to] is the first hop from segment from toward
	// segment to; the diagonal holds zero hops.
	hops []hop
}

// segment is one segment of the tree and, unless it is the root, the
// bridge joining it to its parent.
type segment struct {
	net    *Network
	parent int         // index of the parent segment; -1 on the root
	uplink *Bridge     // nil on the root
	child  *BridgePort // the uplink bridge's port on this segment
	toward *BridgePort // its port on the parent segment
}

// hop is how a datagram leaves a segment toward another: it is delivered
// to via, the local endpoint of the bridge joining the segment to the next
// one on the path, and that bridge forwards it through out.
type hop struct {
	via *Endpoint
	out *BridgePort
}

// NewFabric builds the segment tree. The spec must be well formed
// (unique names, exactly one root, every uplink naming a declared
// segment, no cycles) — scenario validation enforces this; NewFabric
// panics on violations rather than limping.
func NewFabric(s *sim.Sim, segs []SegmentSpec) *Fabric {
	f := &Fabric{
		sim:   s,
		names: make([]string, len(segs)),
		index: make(map[string]int, len(segs)),
		segs:  make([]segment, len(segs)),
		hosts: make(map[string]int),
		root:  -1,
	}
	for i, sp := range segs {
		if _, dup := f.index[sp.Name]; dup || sp.Name == "" {
			panic(fmt.Sprintf("netsim: bad segment name %q", sp.Name))
		}
		f.names[i] = sp.Name
		f.index[sp.Name] = i
		n := New(s, sp.Params)
		n.fabric, n.seg = f, i
		f.segs[i] = segment{net: n, parent: -1}
		if sp.Uplink == "" {
			if f.root >= 0 {
				panic(fmt.Sprintf("netsim: two root segments (%q, %q)", f.names[f.root], sp.Name))
			}
			f.root = i
		}
	}
	if f.root < 0 {
		panic("netsim: no root segment")
	}
	// Bridges are attached child-side first, in declaration order, so
	// process spawn order — and with it event ordering — is a pure
	// function of the spec.
	for i, sp := range segs {
		if sp.Uplink == "" {
			continue
		}
		up, ok := f.index[sp.Uplink]
		if !ok || up == i {
			panic(fmt.Sprintf("netsim: segment %q has bad uplink %q", sp.Name, sp.Uplink))
		}
		br := &Bridge{Name: "bridge:" + sp.Name, sim: s, p: sp.Bridge}
		seg := &f.segs[i]
		seg.parent, seg.uplink = up, br
		seg.child = br.attachPort(seg.net, sp.Name)
		seg.toward = br.attachPort(f.segs[up].net, sp.Uplink)
	}
	// Cycle check: every segment must reach the root by parent links.
	for i := range f.segs {
		seen := 0
		for at := i; at != f.root; at = f.segs[at].parent {
			if seen++; seen > len(f.segs) {
				panic(fmt.Sprintf("netsim: segment %q cannot reach root %q", f.names[i], f.names[f.root]))
			}
		}
	}
	n := len(f.segs)
	f.hops = make([]hop, n*n)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				f.hops[from*n+to] = f.hopBetween(from, f.nextHop(from, to))
			}
		}
	}
	return f
}

// Root returns the root segment's name.
func (f *Fabric) Root() string { return f.names[f.root] }

// Names returns the segment names in declaration order.
func (f *Fabric) Names() []string { return f.names }

// Segment returns a segment's network; "" means the root.
func (f *Fabric) Segment(name string) *Network {
	if name == "" {
		return f.segs[f.root].net
	}
	i, ok := f.index[name]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown segment %q", name))
	}
	return f.segs[i].net
}

// Uplink returns a non-root segment's uplink bridge, or nil for the
// root or an unknown name.
func (f *Fabric) Uplink(segment string) *Bridge {
	if i, ok := f.index[segment]; ok {
		return f.segs[i].uplink
	}
	return nil
}

// SegmentOf reports the segment a placed host lives on ("" if unknown).
func (f *Fabric) SegmentOf(host string) string {
	if i, ok := f.hosts[host]; ok {
		return f.names[i]
	}
	return ""
}

// depth counts parent hops from a segment to the root.
func (f *Fabric) depth(seg int) int {
	d := 0
	for at := seg; at != f.root; at = f.segs[at].parent {
		d++
	}
	return d
}

// nextHop returns the neighbouring segment one hop from `from` along
// the unique tree path toward `to`.
func (f *Fabric) nextHop(from, to int) int {
	// Lift the deeper of the two to the other's depth, remembering the
	// last segment `to` was lifted from — if the walks meet at `from`,
	// that segment is the next hop (descend); otherwise the path climbs
	// through from's parent.
	df, dt := f.depth(from), f.depth(to)
	a, b, lastB := from, to, -1
	for ; dt > df; dt-- {
		b, lastB = f.segs[b].parent, b
	}
	for ; df > dt; df-- {
		a = f.segs[a].parent
	}
	// Climb both until they meet.
	for a != b {
		a = f.segs[a].parent
		b, lastB = f.segs[b].parent, b
	}
	if a == from {
		// from is an ancestor of to: descend toward lastB.
		return lastB
	}
	return f.segs[from].parent
}

// hopBetween returns the hop from a segment to the adjacent segment next:
// the joining bridge's endpoint on the from side, and its port facing next.
func (f *Fabric) hopBetween(from, next int) hop {
	if f.segs[from].parent == next {
		// Up through from's own uplink bridge.
		return hop{via: f.segs[from].child.ep, out: f.segs[from].toward}
	}
	if f.segs[next].parent == from {
		// Down through the child's uplink bridge.
		return hop{via: f.segs[next].toward.ep, out: f.segs[next].child}
	}
	panic(fmt.Sprintf("netsim: segments %q and %q are not adjacent", f.names[from], f.names[next]))
}

// Place registers a host as attached to a segment ("" = root), which makes
// it reachable from every other segment. Call it after the host's endpoint
// is attached; re-placing (an adopted export after failover) moves it.
func (f *Fabric) Place(host, segment string) {
	i := f.root
	if segment != "" {
		var ok bool
		if i, ok = f.index[segment]; !ok {
			panic(fmt.Sprintf("netsim: placing %q on unknown segment %q", host, segment))
		}
	}
	f.hosts[host] = i
}

// hopToward resolves the first hop from segment from toward wherever host
// was placed. It is the zero hop for a host never placed, or placed on from
// itself (it is not attached there, or the segment would have delivered).
func (f *Fabric) hopToward(from int, host string) hop {
	to, placed := f.hosts[host]
	if !placed {
		return hop{}
	}
	return f.hops[from*len(f.segs)+to]
}

// SetLinkDown severs or restores a host attachment wherever it lives —
// segment membership is irrelevant to the caller. Unknown names are a
// no-op on every segment, matching Network.SetLinkDown.
func (f *Fabric) SetLinkDown(host string, down bool) {
	for i := range f.segs {
		f.segs[i].net.SetLinkDown(host, down)
	}
}

// SetUplinkDown severs or restores a non-root segment's uplink: the
// child-side bridge port goes down, so nothing crosses between the
// segment and the rest of the fabric in either direction. It reports
// whether the segment had an uplink.
func (f *Fabric) SetUplinkDown(segment string, down bool) bool {
	i, ok := f.index[segment]
	if !ok || f.segs[i].child == nil {
		return false
	}
	f.segs[i].child.SetDown(down)
	return true
}

// Bridges returns the uplink bridges in child-segment declaration
// order.
func (f *Fabric) Bridges() []*Bridge {
	var out []*Bridge
	for i := range f.segs {
		if br := f.segs[i].uplink; br != nil {
			out = append(out, br)
		}
	}
	return out
}
