package main

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/nfsproto"
	"repro/internal/openload"
	"repro/internal/rig"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The server drivers are a vertical slice, not a unit: one client with
// one RPC outstanding against a gathering FDDI server built by rig.New.
// A call's cost is everything the simulator does for that RPC — client
// encode, two datagrams, nfsd dispatch, ufs, disk — with nothing else
// running.
var serverDrivers = []driver{
	{family: "server", setup: rpcLoop(rpcWrite), metrics: []metricOf{
		nsPerCall("server.rpc_write_ns"), eventsPerCall("server.rpc_write_events"), allocsPerCall("server.rpc_write_allocs")}},
	{family: "server", setup: rpcLoop(rpcRead), metrics: []metricOf{
		nsPerCall("server.rpc_read_ns"), eventsPerCall("server.rpc_read_events"), allocsPerCall("server.rpc_read_allocs")}},
	{family: "server", setup: rpcLoop(rpcLookup), metrics: []metricOf{
		nsPerCall("server.rpc_lookup_ns"), eventsPerCall("server.rpc_lookup_events")}},
	{family: "server", setup: rpcLoop(rpcGetattr), metrics: []metricOf{nsPerCall("server.rpc_getattr_ns")}},
	{family: "server", setup: rpcCreate, metrics: []metricOf{nsPerCall("server.rpc_create_ns")}},
}

func sliceRig(biods int) *rig.Rig {
	return rig.New(rig.Config{Net: hw.FDDI(), Gathering: true, Clients: 1, Biods: biods, CPUScale: 1.8, Seed: 1})
}

// rpcTarget is the file the RPC loops work on.
type rpcTarget struct {
	cli  *client.Client
	root nfsproto.FH
	fh   nfsproto.FH
}

func newTarget(r *rig.Rig) *rpcTarget {
	t := &rpcTarget{cli: r.Clients[0], root: r.Server.RootFH()}
	inSim(r.Sim, func(p *sim.Proc) {
		res, err := t.cli.Create(p, t.root, "data", 0644)
		must(err)
		t.fh = res.File // res is client scratch, dead at the next RPC
		for b := 0; b < fileBlocks; b++ {
			rpcWrite(p, t, b)
		}
	})
	return t
}

func rpcLoop(call func(p *sim.Proc, t *rpcTarget, i int)) func() loopFn {
	return func() loopFn {
		r := sliceRig(0)
		t := newTarget(r)
		return func(n int) (c cost) {
			inSim(r.Sim, func(p *sim.Proc) {
				// Metered from inside, so the events counted are the RPCs'
				// alone, without this process's own dispatch.
				m := startMeter(r.Sim)
				for i := 0; i < n; i++ {
					call(p, t, i)
				}
				c = m.stop()
			})
			return c
		}
	}
}

func rpcWrite(p *sim.Proc, t *rpcTarget, i int) {
	off := uint32(i % fileBlocks * nfsproto.MaxData)
	buf := t.cli.GetWriteBuf()
	client.FillPattern(buf.Data(), off)
	must(t.cli.WriteSyncBufRelease(p, t.fh, off, buf, nfsproto.MaxData))
}

func rpcRead(p *sim.Proc, t *rpcTarget, i int) {
	res, err := t.cli.Read(p, t.fh, uint32(i%fileBlocks*nfsproto.MaxData), nfsproto.MaxData)
	must(err)
	must(res.Status.Err())
}

func rpcLookup(p *sim.Proc, t *rpcTarget, _ int) {
	res, err := t.cli.Lookup(p, t.root, "data")
	must(err)
	must(res.Status.Err())
}

func rpcGetattr(p *sim.Proc, t *rpcTarget, _ int) {
	res, err := t.cli.Getattr(p, t.fh)
	must(err)
	must(res.Status.Err())
}

// rpcCreate times CREATE alone; the REMOVE that keeps the directory small
// runs untimed between calls.
func rpcCreate() loopFn {
	r := sliceRig(0)
	t := newTarget(r)
	seq := 0
	return func(n int) cost {
		var c cost
		inSim(r.Sim, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				seq++
				name := fmt.Sprintf("o%d", seq)
				c.add(lap(r.Sim, func() {
					res, err := t.cli.Create(p, t.root, name, 0644)
					must(err)
					must(res.Status.Err())
				}))
				_, err := t.cli.Remove(p, t.root, name)
				must(err)
			}
		})
		return c
	}
}

var clientDrivers = []driver{
	{family: "client", setup: fillPattern, metrics: []metricOf{nsPerCall("client.fillpattern8k_ns")}},
	{family: "client", setup: writeMB, metrics: []metricOf{msPerCall("client.write_mb_ms")}, countN: 4},
}

func fillPattern() loopFn {
	buf := make([]byte, nfsproto.MaxData)
	return func(n int) cost {
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			client.FillPattern(buf, uint32(i)*nfsproto.MaxData)
		}
		sink += int(buf[1])
		return m.stop()
	}
}

// writeMB: WriteFile of 1 MB through seven biods, the copy-seq inner loop.
func writeMB() loopFn {
	r := sliceRig(7)
	t := newTarget(r)
	return func(n int) cost {
		m := startMeter(r.Sim)
		inSim(r.Sim, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := t.cli.WriteFile(p, t.fh, mb)
				must(err)
			}
		})
		return m.stop()
	}
}

// The generator drivers run the kneecurve testbed far below its knee, so
// a call's cost is one operation end to end plus whatever the generator
// adds to it. The two differ only in the generator: openload spawns a
// process per arrival, LADDIS draws from pre-spawned pools.
var generatorDrivers = []driver{
	{family: "generator", setup: openloadOps, metrics: []metricOf{
		nsPerCall("openload.op_overhead_ns"), allocsPerCall("openload.op_allocs")}, countN: 512},
	{family: "generator", setup: laddisOps, metrics: []metricOf{nsPerCall("workload.laddis_op_ns")}, countN: 512},
}

func kneeRig() *rig.Rig {
	return rig.New(rig.Config{Net: hw.FDDI(), Gathering: true, StripeDisks: 8, NumNfsds: 32,
		Clients: 4, CPUScale: 1.8, Seed: 5151, Inodes: 2048})
}

// generatorBarrier is when the generators start, as in the scenario
// runners: late enough that every client's set-up is over.
const generatorBarrier = sim.Time(20 * sim.Second)

// openloadOps offers about n operations at 100 ops/s. Building the rig and
// the population is not metered; the clock starts at the barrier.
func openloadOps() loopFn {
	return func(n int) cost {
		const rate = 100.0
		r := kneeRig()
		roots := []nfsproto.FH{r.Server.RootFH()}
		pop, err := openload.NewPopulation(32, 8, openload.PopZipf, 1.1, roots)
		must(err)
		results := make([]openload.Result, len(r.Clients))
		built := sim.NewCond(r.Sim)
		ready := false
		for i, cli := range r.Clients {
			i, cli := i, cli
			gen := openload.NewGen(cli, pop, openload.Config{
				Arrival: openload.ArrivalPoisson,
				Rate:    rate / float64(len(r.Clients)),
				Measure: sim.Duration(float64(n) / rate * float64(sim.Second)),
				Seed:    5151 + int64(i),
			})
			r.Sim.Spawn("openload-driver", func(p *sim.Proc) {
				if i == 0 {
					must(pop.Build(p, cli))
					ready = true
					built.Broadcast()
				}
				for !ready {
					built.Wait(p)
				}
				must(gen.Setup(p))
				p.Sleep(generatorBarrier.Sub(p.Now()))
				var err error
				results[i], err = gen.Run(p)
				must(err)
			})
		}
		r.Sim.Run(generatorBarrier - 1)
		m := startMeter(r.Sim)
		r.Sim.Run(0)
		c := m.stop()
		for _, res := range results {
			if res.Errors != 0 || res.Shed != 0 {
				panic(fmt.Sprintf("openload driver: %d errors, %d shed at %v ops/s", res.Errors, res.Shed, rate))
			}
			c.calls += int(res.Offered)
		}
		return c
	}
}

// laddisOps runs the closed-loop generator on the same rig at 200 ops/s.
func laddisOps() loopFn {
	return func(n int) cost {
		const rate = 200.0
		r := kneeRig()
		results := make([]workload.LADDISResult, len(r.Clients))
		for i, cli := range r.Clients {
			i, cli := i, cli
			gen := workload.NewLADDIS(cli, r.Server.RootFH(), workload.LADDISConfig{
				Files: 32, FileBlocks: 8, Procs: 16,
				OfferedOpsPerSec: rate / float64(len(r.Clients)),
				Duration:         sim.Duration(float64(n) / rate * float64(sim.Second)),
				Seed:             5151 + int64(i),
			})
			r.Sim.Spawn("laddis-driver", func(p *sim.Proc) {
				must(gen.Setup(p))
				p.Sleep(generatorBarrier.Sub(p.Now()))
				results[i] = gen.Run(p)
			})
		}
		r.Sim.Run(generatorBarrier - 1)
		m := startMeter(r.Sim)
		r.Sim.Run(0)
		c := m.stop()
		for _, res := range results {
			if res.Errors != 0 {
				panic(fmt.Sprintf("laddis driver: %d errors", res.Errors))
			}
			for _, k := range res.PerOp {
				c.calls += k
			}
		}
		return c
	}
}

var assemblyDrivers = []driver{
	{family: "assembly", setup: clusterBuild5K, metrics: []metricOf{msPerCall("cluster.build_5k_ms")}, countN: 1},
	{family: "assembly", setup: rigBuild, metrics: []metricOf{msPerCall("rig.build_ms")}, countN: 16},
	{family: "assembly", setup: validateSpec, metrics: []metricOf{msPerCall("scenario.validate_ms")}, countN: 16},
}

// clusterBuild5K: cluster.New for the fanin-5k topology — 5,000 client
// hosts placed on 50 bridged segments — before a single event runs.
func clusterBuild5K() loopFn {
	spec, err := loadSpec("fanin-5k", false, 0)
	must(err)
	top := spec.Topology
	cfg := cluster.Config{
		Segments:    bridgedSegments(len(top.Media) - 1),
		Servers:     top.Servers.Count,
		Gathering:   true,
		StripeDisks: top.Servers.StripeDisks,
		NumNfsds:    top.Servers.Nfsds,
		CPUScale:    top.CPUScale,
		Seed:        spec.Seed,
		Inodes:      top.Servers.Inodes,
	}
	for _, g := range top.Clients {
		cfg.ClientGroups = append(cfg.ClientGroups, cluster.ClientGroup(g))
	}
	return func(n int) cost {
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			if c := cluster.New(cfg); len(c.Clients) != 5000 {
				panic(fmt.Sprintf("cluster driver: built %d clients", len(c.Clients)))
			}
		}
		return m.stop()
	}
}

// rigBuild: rig.New for the laddis-closed testbed.
func rigBuild() loopFn {
	return func(n int) cost {
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			sink += len(kneeRig().Clients)
		}
		return m.stop()
	}
}

// validateSpec: decode plus validate of the fanin-5k spec.
func validateSpec() loopFn {
	blob, err := specFiles.ReadFile(specPath("fanin-5k", false))
	must(err)
	return func(n int) cost {
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			spec, err := scenario.Decode(blob)
			must(err)
			must(spec.Validate())
		}
		return m.stop()
	}
}
