// Command nfsbench regenerates the paper's evaluation artifacts and runs
// declarative scenarios.
//
// Usage:
//
//	nfsbench -list                  # print the scenario registry
//	nfsbench -run table1            # one registered scenario by name
//	nfsbench -run table1,table3     # several
//	nfsbench -run all               # the whole registry
//	nfsbench -dump figure2          # emit a scenario spec as JSON
//	nfsbench -dump figure2 > f.json; vi f.json
//	nfsbench -validate f.json       # parse + validate without running
//	nfsbench -scenario f.json       # run an edited spec
//	nfsbench -run figure2 -quick    # coarser LADDIS sweep
//	nfsbench -mb 4                  # smaller copies (faster, same rates)
//	nfsbench -fuzz 200 -seed 7      # seed-driven scenario fuzzing; on a
//	                                # failure prints the shrunk spec and
//	                                # exits 1
//	nfsbench -run figure2 -j 8      # sweep cells across 8 workers
//	nfsbench -j 1 ...               # run everything in-line
//
// -j sets the worker count of the one ordered pool (scenario.Ordered)
// that runs sweep cells, registry scenarios and fuzz runs (default
// GOMAXPROCS). Every output byte is identical at any -j: cells are
// independent sims gathered in deterministic order, and only the
// wall-time lines (which report real time) differ.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// app is one invocation: where it prints, the worker count (-j) and the
// -trace / -probes destinations. Either destination being set forces the
// observe plane on for every scenario execSpec executes (when several
// scenarios run, the last one's artifacts win).
type app struct {
	out, errw           io.Writer
	jobs                int
	traceOut, probesOut string
}

// fail reports an error and returns the exit status to leave with.
func (a *app) fail(status int, format string, args ...any) int {
	fmt.Fprintf(a.errw, "nfsbench: "+format+"\n", args...)
	return status
}

// run is the whole command behind main: it parses args, writes to the
// given streams and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	a := &app{out: stdout, errw: stderr}
	fs := flag.NewFlagSet("nfsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("run", "", "scenarios to run: tableN, figureN, scale, crash, any registered scenario, comma separated, or 'all'")
	list := fs.Bool("list", false, "list the scenario registry and exit")
	dump := fs.String("dump", "", "print the named scenario's spec as JSON and exit")
	scenarioFile := fs.String("scenario", "", "run a scenario spec from a JSON file")
	validate := fs.String("validate", "", "parse and validate a scenario spec file without running it")
	mb := fs.Int("mb", 10, "file copy size in MB (the paper used 10)")
	quick := fs.Bool("quick", false, "coarser LADDIS sweeps for figures 2-3")
	fuzz := fs.Int("fuzz", 0, "run N fuzzed scenarios against the durability and leak invariants")
	seed := fs.Int64("seed", 1, "fuzzing campaign seed (with -fuzz)")
	fs.IntVar(&a.jobs, "j", 0, "worker-pool size for sweep cells, registry scenarios and fuzz runs (default GOMAXPROCS; 1 runs everything in-line)")
	fs.StringVar(&a.traceOut, "trace", "", "write a Chrome trace_event JSON file for scenario runs (view in chrome://tracing or ui.perfetto.dev); forces the observe plane on")
	fs.StringVar(&a.probesOut, "probes", "", "write the periodic probe time-series as CSV for scenario runs; forces the observe plane on")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if a.jobs <= 0 {
		a.jobs = runtime.GOMAXPROCS(0)
	}
	wall := time.Now()

	switch {
	case *fuzz > 0:
		return a.runFuzz(*fuzz, *seed)
	case *list:
		for _, e := range scenario.Registry() {
			fmt.Fprintf(a.out, "%-14s %s\n", e.Name, e.Description)
		}
		return 0
	case *dump != "":
		return a.dumpScenario(*dump)
	case *validate != "":
		return a.validateScenarioFile(*validate)
	case *scenarioFile != "":
		return a.runScenarioFile(*scenarioFile)
	}

	// Every requested name resolves before the first simulation starts.
	if *names == "" {
		*names = "all"
	}
	want := map[string]bool{}
	for _, n := range strings.Split(*names, ",") {
		n = strings.TrimSpace(n)
		if _, ok := scenario.Find(n); !ok && n != "all" {
			return a.fail(2, "no experiment or scenario named %q; known names: %s",
				n, strings.Join(knownNames(), ", "))
		}
		want[n] = true
	}
	// Blocks print in a fixed order: the entries with a layout of their
	// own (the paper's tables and figures, scale, crash) in registry
	// order, then the rest by name.
	var entries, rest []scenario.Entry
	for _, e := range scenario.Registry() {
		switch {
		case !want[e.Name] && !want["all"]:
		case e.Render != nil:
			entries = append(entries, e)
		default:
			rest = append(rest, e)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	entries = append(entries, rest...)
	specs := make([]scenario.Spec, len(entries))
	for i, e := range entries {
		specs[i] = e.Build()
		if c := specs[i].Workload.Copy; c != nil {
			c.FileMB = *mb
		}
		if *quick && e.Quick != nil {
			e.Quick(&specs[i])
		}
	}
	if status := a.runRegistryScenarios(entries, specs); status != 0 {
		return status
	}
	fmt.Fprintf(a.out, "nfsbench: total wall time %.2f s\n", time.Since(wall).Seconds())
	return 0
}

// runRegistryScenarios executes the registry scenarios on the ordered
// pool: each scenario renders into its own buffer, and the buffers print
// in the given order up to the first failure, so the transcript is the
// same at any -j (wall-time lines aside). With -trace or -probes the pool
// runs at one worker: each scenario overwrites the artifacts, and the
// last one's must win.
func (a *app) runRegistryScenarios(entries []scenario.Entry, specs []scenario.Spec) int {
	workers := a.jobs
	if a.traceOut != "" || a.probesOut != "" {
		workers = 1
	}
	outs := make([]string, len(specs))
	errs := make([]error, len(specs))
	k := scenario.Ordered(len(specs), workers, func(_, i int) bool {
		outs[i], errs[i] = a.execSpec(specs[i], entries[i].Render)
		return errs[i] != nil
	})
	for i := 0; i <= k && i < len(outs); i++ {
		fmt.Fprint(a.out, outs[i])
	}
	if k < len(specs) {
		return a.fail(1, "%s: %v", entries[k].Name, errs[k])
	}
	return 0
}

// knownNames lists every runnable name, sorted.
func knownNames() []string {
	var names []string
	for _, e := range scenario.Registry() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

func (a *app) dumpScenario(name string) int {
	spec, ok := scenario.Lookup(name)
	if !ok {
		return a.fail(2, "no scenario named %q (try -list)", name)
	}
	blob, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return a.fail(1, "%v", err)
	}
	fmt.Fprintln(a.out, string(blob))
	return 0
}

// decodeFile reads and strictly decodes a spec file.
func (a *app) decodeFile(path string) (scenario.Spec, int) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return scenario.Spec{}, a.fail(1, "%v", err)
	}
	spec, err := scenario.Decode(blob)
	if err != nil {
		return scenario.Spec{}, a.fail(1, "%s: %v", path, err)
	}
	return spec, 0
}

func (a *app) runScenarioFile(path string) int {
	spec, status := a.decodeFile(path)
	if status != 0 {
		return status
	}
	out, err := a.execSpec(spec, nil)
	fmt.Fprint(a.out, out)
	if err != nil {
		return a.fail(1, "%v", err)
	}
	return 0
}

// validateScenarioFile parses and validates a spec file without running
// it: decode errors (unknown fields, malformed JSON) and typed validation
// errors print with the offending spec path, and the exit status is
// nonzero on any problem — the CI-able lint for hand-edited specs.
func (a *app) validateScenarioFile(path string) int {
	spec, status := a.decodeFile(path)
	if status != 0 {
		return status
	}
	if err := spec.Validate(); err != nil {
		return a.fail(1, "%s: %v", path, err)
	}
	cells := len(spec.Cells)
	if cells == 0 {
		cells = 1
	}
	fmt.Fprintf(a.out, "%s: spec %q valid (%d cells, workload %s)\n", path, spec.Name, cells, spec.Workload.Kind)
	return 0
}

// runFuzz executes a fuzzing campaign. On a failure the minimal
// reproducing spec prints as runnable JSON (feed it back through
// -scenario) and the exit status is 1.
func (a *app) runFuzz(runs int, seed int64) int {
	reach, failure := scenario.Fuzz(scenario.FuzzConfig{
		Runs:    runs,
		Seed:    seed,
		Workers: a.jobs,
		Log: func(format string, args ...any) {
			fmt.Fprintf(a.errw, format+"\n", args...)
		},
	})
	fmt.Fprint(a.out, reach)
	if failure != nil {
		fmt.Fprintln(a.errw, failure.String())
		// Persist the repro with its observability artifacts: the shrunken
		// spec as runnable JSON, plus the instrumented replay's span trace
		// and probe time-series (partial when the replay panics).
		a.writeRepro("fuzz-repro.json", []byte(failure.JSON()+"\n"))
		a.writeRepro("fuzz-repro.trace.json", failure.TraceJSON)
		a.writeRepro("fuzz-repro.series.csv", failure.SeriesCSV)
		return 1
	}
	fmt.Fprintf(a.out, "fuzz: %d runs, seed %d: all clean (durability and block accounting held)\n", runs, seed)
	return 0
}

func (a *app) writeRepro(name string, blob []byte) {
	if len(blob) == 0 {
		return
	}
	if err := os.WriteFile(name, blob, 0o644); err != nil {
		a.fail(1, "write %s: %v", name, err)
		return
	}
	fmt.Fprintf(a.errw, "nfsbench: wrote %s\n", name)
}

// execSpec runs one scenario at -j workers and renders its full report —
// the result in the given layout (nil: the uniform table), the per-cell
// wall times, and the wall+sim summary — into a string, so concurrent
// scenario runs can buffer output and print in deterministic order. With
// -trace or -probes it also writes the artifacts and reports them in the
// same text; a failed write returns the report so far with the error.
func (a *app) execSpec(spec scenario.Spec, render func(*scenario.Result) string) (string, error) {
	if a.traceOut != "" || a.probesOut != "" {
		o := scenario.Observe{}
		if spec.Observe != nil {
			o = *spec.Observe
		}
		if a.traceOut != "" {
			o.Trace = true
		}
		if a.probesOut != "" {
			o.Probes = true
		}
		o.Histograms = true
		spec.Observe = &o
	}
	if render == nil {
		render = (*scenario.Result).Render
	}
	wall := time.Now()
	res, err := scenario.RunWorkers(spec, a.jobs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintln(&b, render(res))
	var simTotal sim.Duration
	for _, c := range res.Cells {
		simTotal += c.SimTime
	}
	for _, c := range res.Cells {
		fmt.Fprintf(&b, "  cell %-28s %8.3f s wall, %s\n", c.Label, c.Wall.Seconds(), selfReport(&c))
	}
	fmt.Fprintf(&b, "%s: %.2f s wall, %.2f s simulated (%d cells, %d workers)\n",
		spec.Name, time.Since(wall).Seconds(), simTotal.Seconds(), len(res.Cells), min(a.jobs, len(res.Cells)))
	if a.traceOut != "" {
		var traces []*obs.Trace
		for i := range res.Cells {
			if t := res.Cells[i].Trace; t != nil {
				traces = append(traces, t)
			}
		}
		if err := writeArtifact(&b, a.traceOut, func(f *os.File) error { return obs.WriteTraces(f, traces) }); err != nil {
			return b.String(), err
		}
	}
	if a.probesOut != "" {
		var series []*obs.TimeSeries
		for i := range res.Cells {
			if s := res.Cells[i].Series; s != nil {
				series = append(series, s)
			}
		}
		if err := writeArtifact(&b, a.probesOut, func(f *os.File) error { return obs.WriteSeriesCSV(f, series) }); err != nil {
			return b.String(), err
		}
	}
	return b.String(), nil
}

// selfReport is what a cell cost the kernel: events fired, coroutine
// switches and coroutines started, and per completed operation where the
// cell counts them (LADDIS and open-loop cells). Like the wall time it is
// the harness's, not the model's, so it rides on the " s wall" lines that
// every golden comparison strips.
func selfReport(c *scenario.CellResult) string {
	ops := 0
	for _, r := range c.ClientResults {
		for _, n := range r.PerOp {
			ops += n
		}
	}
	for _, oc := range c.OpenloadClients {
		ops += int(oc.Completed)
	}
	s := fmt.Sprintf("%d events, %d switches, %d coroutines", c.Events, c.Switches, c.Carriers)
	if ops > 0 {
		s += fmt.Sprintf(" (%.1f events/op, %.2f switches/op)", float64(c.Events)/float64(ops), float64(c.Switches)/float64(ops))
	}
	return s
}

// writeArtifact creates path, fills it with emit and reports it on w.
func writeArtifact(w io.Writer, path string, emit func(*os.File) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "nfsbench: wrote %s\n", path)
	return nil
}
