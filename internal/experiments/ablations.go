package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Ablations probe the design choices the paper discusses:
//
//   - reply order (§6.7): FIFO vs the abandoned LIFO;
//   - the procrastination interval (§6.6): the paper derived 8 ms/5 ms
//     empirically and admits "I wish I could say I know how to calculate
//     the right number";
//   - the [SIVA93] first-write-as-latency-device policy (§6.6);
//   - the mbuf hunter (§6.5), which matters most under NVRAM;
//   - gathering with a single nfsd (§6.1's claim that the architecture
//     achieves optimal gathering with as few as one daemon).

// AblationResult is one labelled copy measurement.
type AblationResult struct {
	Label      string
	ClientKBps float64
	CPUPercent float64
	DiskTps    float64
	MeanBatch  float64
}

func meanBatch(g core.Stats) float64 {
	if g.Gathers == 0 {
		return 0
	}
	return float64(g.GatheredWrites) / float64(g.Gathers)
}

// runWithPolicy executes a 2MB FDDI copy with 7 biods under the given
// engine policy (nil = standard server).
func runWithPolicy(label string, policy *core.Config, nfsds int) AblationResult {
	spec := Table3Spec()
	spec.FileMB = 2
	spec.GatherOverride = policy
	cfg := RigConfig{
		Net: spec.Net, Gathering: policy != nil, GatherOverride: policy,
		NumNfsds: nfsds, Biods: 7, CPUScale: 1.8, Seed: 313,
	}
	r := NewRig(cfg)
	defer r.Sim.Close()
	var elapsed sim.Duration
	r.Sim.Spawn("copy", func(p *sim.Proc) {
		cres, err := r.Clients[0].Create(p, r.Server.RootFH(), "abl.dat", 0644)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		r.MarkInterval()
		elapsed, _ = r.Clients[0].WriteFile(p, cres.File, 2*1024*1024)
	})
	r.Sim.Run(0)
	res := AblationResult{Label: label}
	res.ClientKBps = 2 * 1024 / elapsed.Seconds()
	res.CPUPercent, _, res.DiskTps = r.IntervalStats()
	if eng := r.Server.Engine(); eng != nil {
		res.MeanBatch = meanBatch(eng.Stats())
	}
	return res
}

// AblationReplyOrder compares FIFO and LIFO reply delivery (§6.7).
func AblationReplyOrder() []AblationResult {
	fifo := core.DefaultConfig(false, hw.FDDI().Procrastinate)
	lifo := fifo
	lifo.LIFOReplies = true
	return []AblationResult{
		runWithPolicy("FIFO replies (paper)", &fifo, 8),
		runWithPolicy("LIFO replies (abandoned)", &lifo, 8),
	}
}

// AblationProcrastination sweeps the gather wait (§6.6).
func AblationProcrastination() []AblationResult {
	var out []AblationResult
	for _, ms := range []int{0, 1, 2, 5, 8, 12, 20} {
		cfg := core.DefaultConfig(false, sim.Duration(ms)*sim.Millisecond)
		if ms == 0 {
			cfg.MaxProcrastinations = 0
		}
		out = append(out, runWithPolicy(fmt.Sprintf("procrastinate %dms", ms), &cfg, 8))
	}
	return out
}

// AblationFirstWriteLatency compares the paper's procrastination against
// the [SIVA93] policy of using the first write's disk I/O as the latency
// device.
func AblationFirstWriteLatency() []AblationResult {
	paper := core.DefaultConfig(false, hw.FDDI().Procrastinate)
	siva := paper
	siva.FirstWriteLatency = true
	return []AblationResult{
		runWithPolicy("procrastinate (paper)", &paper, 8),
		runWithPolicy("first-write latency [SIVA93]", &siva, 8),
		runWithPolicy("standard server", nil, 8),
	}
}

// AblationHunter measures the socket-buffer scan's contribution, which the
// paper argues is essential under NVRAM acceleration (§6.5).
func AblationHunter(presto bool) []AblationResult {
	on := core.DefaultConfig(presto, hw.FDDI().Procrastinate)
	off := on
	off.MbufHunter = false
	spec := Table3Spec()
	if presto {
		spec = Table4Spec()
	}
	spec.FileMB = 2
	run := func(label string, pol core.Config) AblationResult {
		cfg := RigConfig{
			Net: spec.Net, Presto: presto, Gathering: true, GatherOverride: &pol,
			NumNfsds: 8, Biods: 7, CPUScale: 1.8, Seed: 313,
		}
		r := NewRig(cfg)
		defer r.Sim.Close()
		var elapsed sim.Duration
		r.Sim.Spawn("copy", func(p *sim.Proc) {
			cres, err := r.Clients[0].Create(p, r.Server.RootFH(), "abl.dat", 0644)
			if err != nil {
				panic("experiments: " + err.Error())
			}
			r.MarkInterval()
			elapsed, _ = r.Clients[0].WriteFile(p, cres.File, 2*1024*1024)
		})
		r.Sim.Run(0)
		res := AblationResult{Label: label}
		res.ClientKBps = 2 * 1024 / elapsed.Seconds()
		res.CPUPercent, _, res.DiskTps = r.IntervalStats()
		res.MeanBatch = meanBatch(r.Server.Engine().Stats())
		return res
	}
	return []AblationResult{
		run("mbuf hunter on (paper)", on),
		run("mbuf hunter off", off),
	}
}

// AblationOneNfsd verifies §6.1: the detached-reply architecture gathers
// optimally with a single nfsd.
func AblationOneNfsd() []AblationResult {
	pol := core.DefaultConfig(false, hw.FDDI().Procrastinate)
	return []AblationResult{
		runWithPolicy("8 nfsds", &pol, 8),
		runWithPolicy("1 nfsd", &pol, 1),
	}
}

// RenderAblation formats a result set.
func RenderAblation(title string, rows []AblationResult) string {
	out := title + "\n"
	out += fmt.Sprintf("  %-32s %10s %8s %10s %10s\n", "", "KB/s", "cpu %", "disk t/s", "batch")
	for _, r := range rows {
		out += fmt.Sprintf("  %-32s %10.0f %8.1f %10.0f %10.2f\n",
			r.Label, r.ClientKBps, r.CPUPercent, r.DiskTps, r.MeanBatch)
	}
	return out
}
