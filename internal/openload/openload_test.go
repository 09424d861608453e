package openload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/trace"
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
		rng := newRand(1)
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
			rng := newRand(42)
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

// TestNeighbouringSeedsDrawApart holds newRand to what a cell relies on:
// its clients are seeded w.Seed + i, and generators seeded s and s+1 draw
// distinct, uncorrelated streams. No value repeats across the first 1,000
// draws of the two, and paired exponential gaps correlate by less than
// 0.05 over 100,000 draws.
func TestNeighbouringSeedsDrawApart(t *testing.T) {
	const distinct, paired = 1000, 100_000
	for _, s := range []int64{0, 1, 12, 5151, 8282, -1} {
		a, b := newRand(s), newRand(s+1)
		seen := make(map[uint64]bool, distinct)
		for i := 0; i < distinct; i++ {
			seen[a.Uint64()] = true
		}
		for i := 0; i < distinct; i++ {
			if v := b.Uint64(); seen[v] {
				t.Fatalf("seeds %d and %d: draw %d of the second, %#x, is among the first's %d", s, s+1, i, v, distinct)
			}
		}

		a, b = newRand(s), newRand(s+1)
		var sx, sy, sxx, syy, sxy float64
		for i := 0; i < paired; i++ {
			x, y := a.ExpFloat64(), b.ExpFloat64()
			sx, sy, sxx, syy, sxy = sx+x, sy+y, sxx+x*x, syy+y*y, sxy+x*y
		}
		n := float64(paired)
		r := (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
		t.Logf("seeds %d and %d: r = %.4f", s, s+1, r)
		if math.Abs(r) >= 0.05 {
			t.Errorf("seeds %d and %d: paired exponential draws correlate, r = %.4f", s, s+1, r)
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
		rng := newRand(7)
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
			if wgens[i].t.Scratch != igens[i].t.Scratch || igens[i].t.Scratch == (nfsproto.FH{}) {
				t.Errorf("gathering=%v: client %d scratch handle: wire %v, image %v",
					gathering, i, wgens[i].t.Scratch, igens[i].t.Scratch)
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
					n := len(e.root)
					ents, eof, err := fs.Readdir(p, fs.Root(), cookie, 4096, e.root)
					if err != nil {
						t.Error(err)
						return
					}
					e.root, ents = ents, ents[n:]
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

// TestRunIsStartPlusWait holds the one arrival path to its two entry
// points: generators started as events (Start, as the engine starts them)
// and generators run by a waiting process (Run) give the same accounting
// and end the simulation at the same instant. The last generator replays a
// timeline whose only record falls past its window, so it settles inside
// Start, before Run's process has blocked.
func TestRunIsStartPlusWait(t *testing.T) {
	run := func(wait bool) ([]Result, sim.Time) {
		r := imageRig(true)
		defer r.Sim.Close()
		pop, err := NewPopulation(32, 4, PopZipf, 1.1, r.Roots())
		if err != nil {
			t.Fatal(err)
		}
		gens := make([]*Gen, len(r.Clients))
		for i, cli := range r.Clients {
			cfg := Config{Arrival: ArrivalPoisson, Rate: 150, Measure: 2 * sim.Second, Seed: 40 + int64(i)}
			if i == len(gens)-1 {
				cfg.Replay = &trace.OpTrace{Ops: []trace.OpRecord{{At: 3 * sim.Second, Op: "read"}}}
			}
			gens[i] = NewGen(cli, pop, cfg)
		}
		results := make([]Result, len(gens))
		settled := 0
		r.Sim.Spawn("populate", func(p *sim.Proc) {
			if err := pop.Populate(p, r.FSByFSID, gens); err != nil {
				t.Error(err)
				return
			}
			for i, g := range gens {
				if wait {
					r.Sim.Spawn("run", func(q *sim.Proc) {
						res, err := g.Run(q)
						if err != nil {
							t.Error(err)
						}
						results[i] = res
						settled++
					})
				} else if err := g.Start(r.Sim, func(res *Result) { results[i] = *res; settled++ }); err != nil {
					t.Error(err)
				}
			}
		})
		end := r.Sim.Run(0)
		if settled != len(gens) {
			t.Fatalf("wait=%v: %d of %d generators settled", wait, settled, len(gens))
		}
		return results, end
	}
	started, startEnd := run(false)
	waited, waitEnd := run(true)
	if startEnd != waitEnd || !reflect.DeepEqual(started, waited) {
		t.Errorf("Start ended at %v, Run at %v; accounting equal: %v", startEnd, waitEnd, reflect.DeepEqual(started, waited))
	}
	if started[0].Completed == 0 || started[len(started)-1].Offered != 0 {
		t.Errorf("first generator completed %d ops, the replay offered %d; want some and none",
			started[0].Completed, started[len(started)-1].Offered)
	}
}

// TestAdmissionCapsInFlight drives one client far past what its window
// lets through: the backlog fills and arrivals are shed, yet at no sampled
// instant are more than Window operations (or their RPCs) in flight, and
// the peak the result reports is Window exactly.
func TestAdmissionCapsInFlight(t *testing.T) {
	const window = 3
	r := imageRig(true)
	defer r.Sim.Close()
	pop, err := NewPopulation(16, 4, PopFlat, 0, r.Roots())
	if err != nil {
		t.Fatal(err)
	}
	cli := r.Clients[0]
	g := NewGen(cli, pop, Config{Arrival: ArrivalFixed, Rate: 20000, Window: window,
		Measure: 100 * sim.Millisecond, Seed: 1})
	var res *Result
	var maxOps, maxRPCs int
	var sample func()
	sample = func() {
		maxOps, maxRPCs = max(maxOps, g.active), max(maxRPCs, cli.PendingRPCs())
		if res == nil {
			r.Sim.At(20*sim.Microsecond, sample)
		}
	}
	r.Sim.Spawn("populate", func(p *sim.Proc) {
		if err := pop.Populate(p, r.FSByFSID, []*Gen{g}); err != nil {
			t.Error(err)
			return
		}
		if err := g.Start(r.Sim, func(rs *Result) { res = rs }); err != nil {
			t.Error(err)
			return
		}
		sample()
	})
	r.Sim.Run(0)
	if res == nil {
		t.Fatal("the generator never settled")
	}
	if res.Shed == 0 {
		t.Fatalf("no arrival shed (offered %d, completed %d): the client was not overloaded", res.Offered, res.Completed)
	}
	if maxOps > window || maxRPCs > window {
		t.Fatalf("sampled %d operations and %d RPCs in flight, window %d", maxOps, maxRPCs, window)
	}
	if res.PeakInFlight != window {
		t.Fatalf("PeakInFlight = %d, want the window, %d", res.PeakInFlight, window)
	}
}
