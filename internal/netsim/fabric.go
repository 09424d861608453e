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
	sim     *sim.Sim
	names   []string // declaration order
	index   map[string]int
	nets    map[string]*Network
	parent  map[string]string
	uplinks map[string]*Bridge // child segment -> its uplink bridge
	child   map[string]*BridgePort
	toward  map[string]*BridgePort // child segment -> parent-side port
	hosts   map[string]int         // host name -> index of its segment
	root    string
	// hops[from][to] is the first hop from segment from toward segment to
	// (indices into names); the diagonal holds zero hops.
	hops [][]hop
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
		sim:     s,
		index:   make(map[string]int, len(segs)),
		nets:    make(map[string]*Network, len(segs)),
		parent:  make(map[string]string, len(segs)),
		uplinks: make(map[string]*Bridge),
		child:   make(map[string]*BridgePort),
		toward:  make(map[string]*BridgePort),
		hosts:   make(map[string]int),
	}
	for i, sp := range segs {
		if _, dup := f.nets[sp.Name]; dup || sp.Name == "" {
			panic(fmt.Sprintf("netsim: bad segment name %q", sp.Name))
		}
		f.names = append(f.names, sp.Name)
		f.index[sp.Name] = i
		n := New(s, sp.Params)
		n.fabric, n.seg = f, i
		f.nets[sp.Name] = n
		f.parent[sp.Name] = sp.Uplink
		if sp.Uplink == "" {
			if f.root != "" {
				panic(fmt.Sprintf("netsim: two root segments (%q, %q)", f.root, sp.Name))
			}
			f.root = sp.Name
		}
	}
	if f.root == "" {
		panic("netsim: no root segment")
	}
	// Bridges are attached child-side first, in declaration order, so
	// process spawn order — and with it event ordering — is a pure
	// function of the spec.
	for _, sp := range segs {
		if sp.Uplink == "" {
			continue
		}
		up, ok := f.nets[sp.Uplink]
		if !ok || sp.Uplink == sp.Name {
			panic(fmt.Sprintf("netsim: segment %q has bad uplink %q", sp.Name, sp.Uplink))
		}
		br := &Bridge{Name: "bridge:" + sp.Name, sim: s, p: sp.Bridge}
		f.uplinks[sp.Name] = br
		f.child[sp.Name] = br.attachPort(f.nets[sp.Name], sp.Name)
		f.toward[sp.Name] = br.attachPort(up, sp.Uplink)
	}
	// Cycle check: every segment must reach the root by parent links.
	for _, name := range f.names {
		seen := 0
		for at := name; at != f.root; at = f.parent[at] {
			if seen++; seen > len(f.names) {
				panic(fmt.Sprintf("netsim: segment %q cannot reach root %q", name, f.root))
			}
		}
	}
	f.hops = make([][]hop, len(f.names))
	for i, from := range f.names {
		f.hops[i] = make([]hop, len(f.names))
		for j, to := range f.names {
			if i != j {
				f.hops[i][j] = f.hopBetween(from, f.nextHop(from, to))
			}
		}
	}
	return f
}

// Root returns the root segment's name.
func (f *Fabric) Root() string { return f.root }

// Names returns the segment names in declaration order.
func (f *Fabric) Names() []string { return f.names }

// Segment returns a segment's network; "" means the root.
func (f *Fabric) Segment(name string) *Network {
	if name == "" {
		name = f.root
	}
	n, ok := f.nets[name]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown segment %q", name))
	}
	return n
}

// Uplink returns a non-root segment's uplink bridge, or nil for the
// root or an unknown name.
func (f *Fabric) Uplink(segment string) *Bridge { return f.uplinks[segment] }

// SegmentOf reports the segment a placed host lives on ("" if unknown).
func (f *Fabric) SegmentOf(host string) string {
	if i, ok := f.hosts[host]; ok {
		return f.names[i]
	}
	return ""
}

// depth counts parent hops from a segment to the root.
func (f *Fabric) depth(seg string) int {
	d := 0
	for at := seg; at != f.root; at = f.parent[at] {
		d++
	}
	return d
}

// nextHop returns the neighbouring segment one hop from `from` along
// the unique tree path toward `to`.
func (f *Fabric) nextHop(from, to string) string {
	// Lift `to` until it is at from's depth or shallower, remembering
	// the last segment lifted from — if the walk meets `from`, that
	// segment is the next hop (descend); otherwise the path climbs
	// through from's parent.
	df, dt := f.depth(from), f.depth(to)
	at, last := to, ""
	for dt > df {
		at, last = f.parent[at], at
		dt--
	}
	// Climb both until they meet.
	a, b, lastB := from, at, last
	for a != b {
		a = f.parent[a]
		b, lastB = f.parent[b], b
	}
	if a == from {
		// from is an ancestor of to: descend toward lastB.
		return lastB
	}
	return f.parent[from]
}

// hopBetween returns the hop from a segment to the adjacent segment next:
// the joining bridge's endpoint on the from side, and its port facing next.
func (f *Fabric) hopBetween(from, next string) hop {
	if f.parent[from] == next {
		// Up through from's own uplink bridge.
		return hop{via: f.child[from].ep, out: f.toward[from]}
	}
	if f.parent[next] == from {
		// Down through the child's uplink bridge.
		return hop{via: f.toward[next].ep, out: f.child[next]}
	}
	panic(fmt.Sprintf("netsim: segments %q and %q are not adjacent", from, next))
}

// Place registers a host as attached to a segment ("" = root), which makes
// it reachable from every other segment. Call it after the host's endpoint
// is attached; re-placing (an adopted export after failover) moves it.
func (f *Fabric) Place(host, segment string) {
	if segment == "" {
		segment = f.root
	}
	i, ok := f.index[segment]
	if !ok {
		panic(fmt.Sprintf("netsim: placing %q on unknown segment %q", host, segment))
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
	return f.hops[from][to]
}

// SetLinkDown severs or restores a host attachment wherever it lives —
// segment membership is irrelevant to the caller. Unknown names are a
// no-op on every segment, matching Network.SetLinkDown.
func (f *Fabric) SetLinkDown(host string, down bool) {
	for _, name := range f.names {
		f.nets[name].SetLinkDown(host, down)
	}
}

// SetUplinkDown severs or restores a non-root segment's uplink: the
// child-side bridge port goes down, so nothing crosses between the
// segment and the rest of the fabric in either direction. It reports
// whether the segment had an uplink.
func (f *Fabric) SetUplinkDown(segment string, down bool) bool {
	bp, ok := f.child[segment]
	if !ok {
		return false
	}
	bp.SetDown(down)
	return true
}

// Bridges returns the uplink bridges in child-segment declaration
// order.
func (f *Fabric) Bridges() []*Bridge {
	var out []*Bridge
	for _, name := range f.names {
		if br, ok := f.uplinks[name]; ok {
			out = append(out, br)
		}
	}
	return out
}
