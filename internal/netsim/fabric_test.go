package netsim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// installed is what placing one host used to leave on one other segment: a
// route to via, the local endpoint of the bridge one hop closer, and in that
// bridge a forwarding entry through out.
type installed struct {
	via *Endpoint
	out *BridgePort
}

// perHostRoutes is the reference for next-hop resolution: the entries the
// per-host Place installed for a host on segment, worked out from the tree
// alone — an ancestor of the host's segment descends toward it, every other
// segment climbs to its parent.
func perHostRoutes(f *Fabric, segment string) map[string]installed {
	below := map[int]int{} // ancestor of segment -> its child on the way down
	for at, last := f.index[segment], -1; ; at, last = f.segs[at].parent, at {
		below[at] = last
		if at == f.root {
			break
		}
	}
	routes := map[string]installed{}
	for i, other := range f.names {
		if other == segment {
			continue
		}
		if down, ancestor := below[i]; ancestor {
			routes[other] = installed{via: f.segs[down].toward.ep, out: f.segs[down].child}
		} else {
			routes[other] = installed{via: f.segs[i].child.ep, out: f.segs[i].toward}
		}
	}
	return routes
}

// checkResolution holds every segment's and every bridge port's answer for
// every placed host to the reference.
func checkResolution(t *testing.T, f *Fabric, when string, placed map[string]string) {
	t.Helper()
	for host, segment := range placed {
		want := perHostRoutes(f, segment)
		for _, other := range f.names {
			got := f.Segment(other).routeTo(host)
			if other == segment {
				if got != nil {
					t.Errorf("%s: %s resolves its own host %s off-segment", when, other, host)
				}
				continue
			}
			if got != want[other].via {
				t.Errorf("%s: %s -> %s leaves through %v, per-host route was %s",
					when, other, host, got, want[other].via.Name)
			}
		}
		for _, br := range f.Bridges() {
			for _, in := range br.Ports {
				out := br.outPort(in, host)
				if w, onPath := want[in.Segment]; onPath && w.via == in.ep {
					if out != w.out {
						t.Errorf("%s: %s port %d forwards %s to %v, per-host entry was port %d",
							when, br.Name, in.Index, host, out, w.out.Index)
					}
				} else if out != nil && out != in {
					// The per-host entry pointed back out the arrival port.
					t.Errorf("%s: %s port %d forwards %s, which it used to filter", when, br.Name, in.Index, host)
				}
			}
		}
	}
}

// TestNextHopMatchesPerHostRoutes: on a three-level tree the segment-pair
// table answers every (segment, host) pair the way the routes and
// forwarding entries of the per-host Place did — also with an uplink down
// (routing is static; the port drops) and after a host moved.
func TestNextHopMatchesPerHostRoutes(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	eth := hw.Ethernet()
	f := NewFabric(s, []SegmentSpec{
		{Name: "core", Params: hw.FDDI()},
		{Name: "mid1", Params: eth, Uplink: "core"},
		{Name: "mid2", Params: eth, Uplink: "core"},
		{Name: "leaf1a", Params: eth, Uplink: "mid1"},
		{Name: "leaf1b", Params: eth, Uplink: "mid1"},
		{Name: "leaf2a", Params: eth, Uplink: "mid2"},
	})
	placed := map[string]string{}
	for i, seg := range f.Names() {
		for j := 0; j < 2; j++ {
			host := fmt.Sprintf("h%d-%d", i, j)
			f.Segment(seg).Attach(host, 0, 0)
			f.Place(host, seg)
			placed[host] = seg
		}
	}
	checkResolution(t, f, "as placed", placed)

	f.SetUplinkDown("mid1", true)
	checkResolution(t, f, "mid1 uplink down", placed)
	f.SetUplinkDown("mid1", false)

	// A host moves from leaf1a to leaf2a, as an adopted export does.
	moved := "h3-0"
	f.Segment("leaf1a").Detach(moved)
	f.Segment("leaf2a").Attach(moved, 0, 0)
	f.Place(moved, "leaf2a")
	placed[moved] = "leaf2a"
	if got := f.SegmentOf(moved); got != "leaf2a" {
		t.Errorf("SegmentOf(%s) = %q after the move", moved, got)
	}
	checkResolution(t, f, "after the move", placed)

	// Never placed: no segment and no bridge knows a way.
	for _, seg := range f.Names() {
		if via := f.Segment(seg).routeTo("stranger"); via != nil {
			t.Errorf("%s routes an unplaced host through %s", seg, via.Name)
		}
	}
}

// TestPlaceAllocatesPerHostOnly is a host-work guard that does not read the
// clock: placing 5,000 hosts on a 50-leaf fabric allocates under 2 MB —
// the host table — where a route and a forwarding entry per host on each of
// the other 50 segments took some 40 MB.
func TestPlaceAllocatesPerHostOnly(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	segs := []SegmentSpec{{Name: "core", Params: hw.FDDI()}}
	for i := 1; i <= 50; i++ {
		segs = append(segs, SegmentSpec{Name: fmt.Sprintf("lan%d", i), Params: hw.Ethernet(), Uplink: "core"})
	}
	f := NewFabric(s, segs)
	hosts := make([]string, 5000)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("client%d", i+1)
		f.Segment(segs[1+i/100].Name).Attach(hosts[i], 0, 0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, host := range hosts {
		f.Place(host, segs[1+i/100].Name)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("placing 5000 hosts allocated %d bytes, want under 2 MB", got)
	} else {
		t.Logf("placing 5000 hosts allocated %d bytes", got)
	}
	if got := f.Segment("lan7").routeTo("client4321"); got != f.segs[f.index["lan7"]].child.ep {
		t.Errorf("lan7 -> client4321 resolves to %v, want its uplink bridge", got)
	}
}

var (
	fabricSink  *Fabric
	networkSink *Network
)

// TestOneSegmentFabricAllocs pins what a one-segment fabric costs beyond
// its one Network: the Fabric, its names, segs and hops slices, and two
// maps — index (its header and the group its one insert fills) and hosts
// (a header, empty until a host is placed). The per-segment bookkeeping is
// indexed through index, so a map per field would show here.
func TestOneSegmentFabricAllocs(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	one := []SegmentSpec{{Name: "lan", Params: hw.FDDI()}}
	fabric := testing.AllocsPerRun(100, func() { fabricSink = NewFabric(s, one) })
	network := testing.AllocsPerRun(100, func() { networkSink = New(s, hw.FDDI()) })
	if got := fabric - network; got != 7 {
		t.Errorf("a one-segment fabric allocates %v objects beyond its network's %v, want 7", got, network)
	}
}
