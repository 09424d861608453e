package openload

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestArrivalMeetsTargetRate draws a long gap sequence from each process
// and checks the long-run rate lands on the target: the open-loop
// contract is that the offered rate is a property of the arrival clock,
// not of the server.
func TestArrivalMeetsTargetRate(t *testing.T) {
	const rate = 200.0 // ops/s
	const n = 200_000
	for _, kind := range []string{ArrivalFixed, ArrivalPoisson, ArrivalBursty} {
		arr, err := NewArrival(kind, rate, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rng := rand.New(rand.NewSource(1))
		var total sim.Duration
		total += arr.First(rng)
		for i := 1; i < n; i++ {
			total += arr.Gap(rng)
		}
		got := float64(n) / total.Seconds()
		if got < rate*0.97 || got > rate*1.03 {
			t.Errorf("%s: long-run rate = %.1f ops/s, want ~%.0f", kind, got, rate)
		}
	}
}

// TestArrivalDeterministic re-draws the same seed and wants identical
// gap sequences — the determinism the sweep engine's byte-identity
// contract rests on.
func TestArrivalDeterministic(t *testing.T) {
	for _, kind := range []string{ArrivalFixed, ArrivalPoisson, ArrivalBursty} {
		seq := func() []sim.Duration {
			arr, err := NewArrival(kind, 500, 0, 0)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			rng := rand.New(rand.NewSource(42))
			out := []sim.Duration{arr.First(rng)}
			for i := 0; i < 1000; i++ {
				out = append(out, arr.Gap(rng))
			}
			return out
		}
		a, b := seq(), seq()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: gap %d differs: %v vs %v", kind, i, a[i], b[i])
			}
		}
	}
}

func TestArrivalRejectsBadParams(t *testing.T) {
	if _, err := NewArrival(ArrivalPoisson, 0, 0, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewArrival("fractal", 100, 0, 0); err == nil {
		t.Error("unknown arrival kind accepted")
	}
}

// TestZipfSkewsHot checks the Zipf population concentrates picks on the
// low ranks while the flat population does not: the hot-set behavior the
// cache-effect scenarios rely on.
func TestZipfSkewsHot(t *testing.T) {
	const files = 100
	const draws = 100_000
	hotShare := func(kind string, s float64) float64 {
		pop, err := NewPopulation(files, 1, kind, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		hot := 0
		for i := 0; i < draws; i++ {
			if pop.Pick(rng) < files/10 {
				hot++
			}
		}
		return float64(hot) / draws
	}
	flat := hotShare(PopFlat, 0)
	zipf := hotShare(PopZipf, 1.1)
	if flat < 0.08 || flat > 0.12 {
		t.Errorf("flat population hot-decile share = %.3f, want ~0.10", flat)
	}
	if zipf < 0.5 {
		t.Errorf("zipf(1.1) hot-decile share = %.3f, want > 0.5", zipf)
	}
}

func TestPopulationRejectsUnknownKind(t *testing.T) {
	if _, err := NewPopulation(10, 1, "normal", 0, nil); err == nil {
		t.Error("unknown population kind accepted")
	}
}

// imageRig is kneecurve's testbed: four FDDI clients on the paper's one
// server.
func imageRig(gathering bool) *cluster.Cluster {
	return cluster.New(cluster.Config{Net: hw.FDDI(), Gathering: gathering, StripeDisks: 8, NumNfsds: 32,
		Clients: 4, CPUScale: 1.8, Seed: 5151, Inodes: 2048, PaperBoot: true})
}

// TestImageEqualsWire holds Populate to the wire path it replaced: on two
// identical rigs the same population and scratch directories are built
// once with RPCs (client 0 Builds, then each generator Setups, in client
// order) and once by Populate, and the two exports are the same export:
// equal handles, equal root listing, equal file bytes, equal Statfs. The
// engine used to send the MKDIRs all at once, and the order a server
// happened to take them in (clients 0, 3, 1, 2 on this rig) was a race on
// the medium; the image fixes client order, which permutes four scratch
// inodes and moved no row of kneecurve. This is the only test the kept
// Build needs.
func TestImageEqualsWire(t *testing.T) {
	for _, gathering := range []bool{false, true} {
		build := func(wire bool) (*cluster.Cluster, *Population, []*Gen) {
			r := imageRig(gathering)
			pop, err := NewPopulation(64, 4, PopZipf, 1.1, r.Roots())
			if err != nil {
				t.Fatal(err)
			}
			gens := make([]*Gen, len(r.Clients))
			for i, cli := range r.Clients {
				gens[i] = NewGen(cli, pop, Config{})
			}
			if wire {
				r.Sim.Spawn("wire", func(p *sim.Proc) {
					if err := pop.Build(p, r.Clients[0]); err != nil {
						t.Error(err)
						return
					}
					for _, g := range gens {
						if err := g.Setup(p); err != nil {
							t.Error(err)
						}
					}
				})
			} else {
				r.Sim.Spawn("populate", func(p *sim.Proc) {
					if err := pop.Populate(p, r.FSByFSID, gens); err != nil {
						t.Error(err)
					}
				})
			}
			r.Sim.Run(0)
			return r, pop, gens
		}
		wr, wpop, wgens := build(true)
		ir, ipop, igens := build(false)
		if t.Failed() {
			wr.Sim.Close()
			ir.Sim.Close()
			return
		}
		if !reflect.DeepEqual(wpop.Files, ipop.Files) {
			t.Errorf("gathering=%v: file handles differ:\nwire  %v\nimage %v", gathering, wpop.Files, ipop.Files)
		}
		for i := range wgens {
			if wgens[i].scratch != igens[i].scratch || igens[i].scratch == (nfsproto.FH{}) {
				t.Errorf("gathering=%v: client %d scratch handle: wire %v, image %v",
					gathering, i, wgens[i].scratch, igens[i].scratch)
			}
		}
		if d := ir.Nodes[0].FS.DirtyBlocks(); d != 0 {
			t.Errorf("gathering=%v: the image left %d dirty blocks", gathering, d)
		}

		type export struct {
			root   []vfs.DirEntry
			bytes  [][]byte
			blocks int
			free   [2]int64
		}
		read := func(r *cluster.Cluster, pop *Population) (e export) {
			fs := r.Nodes[0].FS
			r.Sim.Spawn("read", func(p *sim.Proc) {
				for cookie := uint32(0); ; {
					ents, eof, err := fs.Readdir(p, fs.Root(), cookie, 4096)
					if err != nil {
						t.Error(err)
						return
					}
					e.root = append(e.root, ents...)
					if eof || len(ents) == 0 {
						break
					}
					cookie = ents[len(ents)-1].Cookie
				}
				for _, fh := range pop.Files {
					data := make([]byte, pop.Blocks*nfsproto.MaxData)
					if n, err := fs.Read(p, vfs.Ino(fh.Ino()), 0, data); err != nil || n != len(data) {
						t.Errorf("read %v: %d bytes, %v", fh, n, err)
					}
					e.bytes = append(e.bytes, data)
				}
				e.blocks, e.free[0], e.free[1] = fs.Statfs(p)
			})
			r.Sim.Run(0)
			return e
		}
		we, ie := read(wr, wpop), read(ir, ipop)
		if want := len(wpop.Files) + len(wgens); len(we.root) != want {
			t.Errorf("gathering=%v: the wire root lists %d entries, want %d", gathering, len(we.root), want)
		}
		if !reflect.DeepEqual(we, ie) {
			t.Errorf("gathering=%v: exports differ: roots equal %v, bytes equal %v, statfs wire %d/%v image %d/%v",
				gathering, reflect.DeepEqual(we.root, ie.root), reflect.DeepEqual(we.bytes, ie.bytes),
				we.blocks, we.free, ie.blocks, ie.free)
		}
		wr.Sim.Close()
		ir.Sim.Close()
	}
}
