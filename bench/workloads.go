package main

import (
	"embed"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// workloadDef is one benchmark input: a checked-in spec, its set-up twin,
// and the one cell the traced run observes.
type workloadDef struct {
	Name     string `json:"name"`
	Why      string `json:"why"` // one line; BENCHMARK.json carries these two
	Headline string `json:"-"`   // cell label of the traced run
	build    func() scenario.Spec
}

// The sizes below fix one rep at 1.8–3.3 s on the reference sandbox
// (2 cores, go1.24). Durations use sim.Second: the spec's `_ns` fields
// carry simulator ticks, which are microseconds, so a literal nanosecond
// count would silently make a workload 1000x longer (workloads_test pins
// the generated files).
var workloads = []workloadDef{
	{
		Name:     "copy-seq",
		Why:      "data plane: 12 sequential 64 MB copies, few processes, every byte crosses client, net, codecs, server, gather, ufs, nvram and disk",
		Headline: "wg-plain-b23",
		build:    copySeq,
	},
	{
		Name:     "laddis-closed",
		Why:      "control plane: closed-loop LADDIS mix, 4 clients x 16 procs, 16 cells; event kernel, goroutine switches, metadata and READ path",
		Headline: "wg-1000",
		build:    laddisClosed,
	},
	{
		Name:     "openload-knee",
		Why:      "same server as laddis-closed behind the open-loop generator: a process per op, admission window and backlog, driven past the knee",
		Headline: "wg-600",
		build:    openloadKnee,
	},
	{
		Name:     "fanin-5k",
		Why:      "set-up dominated: 5,000 clients on 50 bridged Ethernet segments; mkdir storm, cluster and fabric assembly, GC",
		Headline: "seg50-wg",
		build:    fanin5k,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// copySeq is the Table 5/6 testbed (FDDI, 3-disk stripe, 1.8x CPU, 8
// nfsds) copying 64 MB: {plain, presto} x biods {0, 7, 23} x {std, wg}.
func copySeq() scenario.Spec {
	spec := scenario.Copy("copy-seq", "64 MB sequential copy: FDDI, 3 striped drives, plain and Presto",
		"fddi", false, 3, 1.8, 64, nil)
	for _, presto := range []bool{false, true} {
		presto := presto
		stack := "plain"
		if presto {
			stack = "presto"
		}
		for _, biods := range []int{0, 7, 23} {
			for _, wg := range []bool{false, true} {
				cell := scenario.CopyCell(biods, wg)
				cell.Presto = &presto
				tag := "std"
				if wg {
					tag = "wg"
				}
				cell.Label = fmt.Sprintf("%s-%s-b%d", tag, stack, biods)
				spec.Cells = append(spec.Cells, cell)
			}
		}
	}
	return spec
}

// laddisClosed is the Figure 2 testbed swept 200..1600 ops/s, std and wg,
// 30 simulated seconds per cell.
func laddisClosed() scenario.Spec {
	return scenario.LADDISSweep(
		scenario.LADDISRig("laddis-closed", "LADDIS mix, 4 clients x 16 procs, FDDI, 32 nfsds, 8 drives",
			false, 4, 16, 32, 8, 30*sim.Second, 4242),
		[]float64{200, 400, 600, 800, 1000, 1200, 1400, 1600})
}

// openloadKnee is the kneecurve testbed at four offered loads, two of
// them past the knee. The backlog is sized so that no arrival is ever
// shed: an overloaded cell queues, and drains after its window closes, so
// every offered operation completes (the benchmark contract wants
// workloads on which no operation fails).
func openloadKnee() scenario.Spec {
	spec := scenario.OpenloadSweep(
		scenario.OpenloadRig("openload-knee", "open-loop Poisson arrivals over a Zipf population, swept past the knee",
			false, 4, 32, 8, scenario.ArrivalPoisson, scenario.PopZipf, scenario.MixLADDIS,
			openloadMeasure, 5151),
		[]float64{300, 600, 900, 1400})
	spec.Workload.Openload.QueueCap = 1 << 20
	return spec
}

const openloadMeasure = 40 * sim.Second

// fanin5k is the bridgedsat seg50 shape, gathering build only.
func fanin5k() scenario.Spec {
	spec := scenario.OpenloadBridged("fanin-5k", "50 Ethernet segments x 100 clients bridged into one FDDI core shard, open-loop",
		50, 100, 16, 2, 1200, 4*sim.Second, 8282)
	spec.Cells = []scenario.Cell{scenario.BridgedCell(spec.Seed, 50, true)}
	return spec
}

// twinOf cuts a spec's measured phase to its minimum, leaving set-up
// whole: what remains is the cost a user pays before the first measured
// operation.
func twinOf(spec scenario.Spec) scenario.Spec {
	spec.Name += "-twin"
	w := &spec.Workload
	switch {
	case w.Copy != nil:
		c := *w.Copy
		c.FileMB = 1
		w.Copy = &c
	case w.LADDIS != nil:
		l := *w.LADDIS
		l.Measure = sim.Millisecond
		w.LADDIS = &l
	case w.Openload != nil:
		o := *w.Openload
		o.Measure = sim.Millisecond
		w.Openload = &o
	}
	return spec
}

// withSeed adds n to every seed the spec carries: the base seed, every
// cell seed and the generator seed. The program under test only ever sees
// the resulting spec.
func withSeed(spec scenario.Spec, n int64) scenario.Spec {
	spec.Seed += n
	cells := make([]scenario.Cell, len(spec.Cells))
	for i, c := range spec.Cells {
		if c.Seed != nil {
			s := *c.Seed + n
			c.Seed = &s
		}
		cells[i] = c
	}
	spec.Cells = cells
	w := &spec.Workload
	if w.LADDIS != nil {
		l := *w.LADDIS
		l.Seed += n
		w.LADDIS = &l
	}
	if w.Openload != nil {
		o := *w.Openload
		o.Seed += n
		w.Openload = &o
	}
	return spec
}

// onlyCell keeps the one cell labelled label.
func onlyCell(spec scenario.Spec, label string) (scenario.Spec, error) {
	for _, c := range spec.Cells {
		if c.Label == label {
			spec.Cells = []scenario.Cell{c}
			return spec, nil
		}
	}
	return spec, fmt.Errorf("spec %s has no cell %q", spec.Name, label)
}

//go:embed workloads/*.json
var specFiles embed.FS

func specPath(name string, twin bool) string {
	if twin {
		return "workloads/" + name + ".twin.json"
	}
	return "workloads/" + name + ".json"
}

// loadSpec decodes a checked-in workload (or its twin) and applies seed.
func loadSpec(name string, twin bool, seed int64) (scenario.Spec, error) {
	blob, err := specFiles.ReadFile(specPath(name, twin))
	if err != nil {
		return scenario.Spec{}, err
	}
	spec, err := scenario.Decode(blob)
	if err != nil {
		return scenario.Spec{}, err
	}
	return withSeed(spec, seed), nil
}

// encodeSpec is the checked-in file format.
func encodeSpec(spec scenario.Spec) ([]byte, error) {
	blob, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}
