package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// report is everything one invocation measured: what is written to
// result.json and what `-compare` reads.
type report struct {
	Seed      int64              `json:"seed"`
	GoVersion string             `json:"go_version"`
	NumCPU    int                `json:"num_cpu"`
	Workloads []workloadReport   `json:"workloads"`
	Drivers   map[string]float64 `json:"drivers,omitempty"`
}

type workloadReport struct {
	Name         string             `json:"name"`
	Headline     string             `json:"headline"`
	Digest       string             `json:"sim_digest"`
	Reps         int                `json:"reps"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	OKShare      float64            `json:"ok_share"`
	Violations   []string           `json:"violations,omitempty"`
	P99Samples   int                `json:"p99_samples,omitempty"`
	EndToEnd     map[string]dist    `json:"end_to_end,omitempty"`
	Layer        map[string]float64 `json:"layer,omitempty"`
}

func newReport(cfg *runCfg) *report {
	return &report{Seed: cfg.seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Drivers: map[string]float64{}}
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if len(w.Violations) > 0 {
			return false
		}
	}
	return true
}

// print writes every metric by name, with its unit.
func (r *report) print(out io.Writer, cfg *runCfg) {
	fmt.Fprintf(out, "bench: seed %d, %s, %d CPUs; every rep a fresh child at GOMAXPROCS=1, -j 1\n",
		r.Seed, r.GoVersion, r.NumCPU)
	fmt.Fprintln(out, "model: unvalidated against the paper's absolute figures (PAPER.md holds no reference numbers); no error figure is given")
	fmt.Fprintln(out, "open-loop lateness: zero by construction, the generators run on the simulated clock")
	units := map[string]string{}
	for _, d := range perLayer() {
		units[d.Name] = d.Unit
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n== %s  (headline cell %s)\n", w.Name, w.Headline)
		fmt.Fprintf(out, "   sim_digest %s\n", w.Digest)
		fmt.Fprintf(out, "   ops_attempted %d  ops_failed %d\n", w.OpsAttempted, w.OpsFailed)
		if cfg.e2e {
			fmt.Fprintf(out, "   %-12s %-6s %12s %12s %12s %12s %12s %4s %7s  %s\n",
				"end-to-end", "unit", "median", "q1", "q3", "min", "max", "n", "spread", "bound (same seed)")
			for _, def := range endToEnd {
				d := w.EndToEnd[def.Name]
				fmt.Fprintf(out, "   %-12s %-6s %12.4f %12.4f %12.4f %12.4f %12.4f %4d %6.2f%%  %s\n",
					def.Name, def.Unit, d.Median, d.Q1, d.Q3, d.Min, d.Max, d.N, 100*d.spread(), def.boundText())
			}
			fmt.Fprintln(out, "   (these sample counts support no percentile beyond the quartiles)")
		}
		if cfg.layer {
			printLayer(out, w.Layer, units)
			fmt.Fprintf(out, "   (model.p99_ms: %d client RPC spans of the observed headline cell; p99.9 wants ten samples beyond it and is not reported)\n", w.P99Samples)
		}
		for _, v := range w.Violations {
			fmt.Fprintf(out, "   OUTPUT CHECK FAILED: %s\n", v)
		}
	}
	if cfg.layer && len(r.Drivers) > 0 {
		fmt.Fprintf(out, "\n== layer drivers  (median of %d loops of >= %.2fs at GOMAXPROCS=1; counts at a fixed call count)\n",
			cfg.loops, cfg.loopSeconds)
		printLayer(out, r.Drivers, units)
	}
}

func printLayer(out io.Writer, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "   %-32s %14.4f %s\n", k, m[k], units[k])
	}
}

// contractLine is the builder contract's result: the last line of standard
// output when one workload was run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) contractLine(cfg *runCfg) (string, error) {
	if len(r.Workloads) != 1 {
		return "", fmt.Errorf("the contract line reports one workload, not %d", len(r.Workloads))
	}
	w := r.Workloads[0]
	line := contractLine{
		Correct: len(w.Violations) == 0,
		// Every measured rep attempted the same operations.
		Attempted: w.OpsAttempted * int64(w.Reps),
		Failed:    w.OpsFailed * int64(w.Reps),
		Metrics:   map[string]contractMetric{},
	}
	if cfg.e2e {
		for _, def := range endToEnd {
			line.Metrics[def.Name] = contractMetric{Value: w.EndToEnd[def.Name].Median, Unit: def.Unit}
		}
	}
	if cfg.layer {
		for _, def := range perLayer() {
			v, ok := w.Layer[def.Name]
			if !ok {
				v, ok = r.Drivers[def.Name]
			}
			if !ok {
				return "", fmt.Errorf("per-layer metric %s was not measured", def.Name)
			}
			line.Metrics[def.Name] = contractMetric{Value: v, Unit: def.Unit}
		}
	}
	blob, err := json.Marshal(line)
	return string(blob), err
}

// contractRunSeconds is BENCHMARK.json's run_seconds: how long one of the
// driver's runs measures.
const contractRunSeconds = 24

// benchmarkJSON renders BENCHMARK.json from the catalogue, so the file
// and the program cannot name different metrics.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bounds: the zero Bound is omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: contractRunSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
