// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics, a driver per layer and a traced run. It measures the
// simulator from outside only — it times calls into each package's
// exported functions, samples the CPU profile, and reads the obs plane
// specs can already switch on. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The measuring rules of a full run. They are constants, not flags: two
// result.json files taken under different rules must not be comparable.
const (
	measuredReps      = 12  // per workload
	twinRounds        = 6   // set-up twin rounds per workload
	driverLoops       = 5   // timed loops per layer driver
	driverLoopSeconds = 0.2 // least length of one
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 1, "added to every cell seed and every generator seed")
		seconds      = flag.Float64("seconds", 0, "measure reps for this long instead of a fixed count (the builder contract's run)")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		driversOnly  = flag.String("drivers", "", "run only these layer-driver families (comma-separated; `all` for every one)")
		outDir       = flag.String("out", "bench/out", "directory for trace.json and result.json")
		doCompare    = flag.Bool("compare", false, "compare two result.json files given as arguments")
		gen          = flag.String("gen", "", "write the workload specs under this bench directory and BENCHMARK.json beside it")
		isChild      = flag.Bool("child", false, "internal: serve one request from standard input")
	)
	flag.Parse()

	switch {
	case *isChild:
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stdout, a, b) {
			os.Exit(1)
		}
	case *gen != "":
		if err := generate(*gen); err != nil {
			fatal(err)
		}
	default:
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		cfg := &runCfg{
			seed: *seed, seconds: *seconds, reps: measuredReps, twins: twinRounds,
			e2e: *trace != 1, layer: *trace != 0,
			loops: driverLoops, loopSeconds: driverLoopSeconds, extraReps: 3,
			families: driverFamilies(), serve: execChild(exe), spans: newSpanLog(),
		}
		cfg.buildS, _ = strconv.ParseFloat(os.Getenv("BENCH_BUILD_S"), 64)
		if *seconds > 0 {
			// A contract run has --seconds for everything; the drivers'
			// loops shrink with it.
			cfg.loops, cfg.loopSeconds, cfg.extraReps = 3, *seconds/400, 1
		}
		ws := workloads
		if *workloadName != "" {
			w, ok := findWorkload(*workloadName)
			if !ok {
				fatal(fmt.Errorf("no workload %q", *workloadName))
			}
			ws = []workloadDef{w}
		}
		if *driversOnly != "" {
			ws, cfg.e2e, cfg.layer = nil, false, true
			if *driversOnly != "all" {
				cfg.families = strings.Split(*driversOnly, ",")
			}
		}
		if err := run(ws, cfg, *outDir, *workloadName != ""); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run measures, prints every metric, and leaves trace.json and
// result.json in outDir. With one workload selected the builder
// contract's JSON object is the last line of standard output.
func run(ws []workloadDef, cfg *runCfg, outDir string, contract bool) error {
	rep, err := benchmark(ws, cfg)
	if err != nil {
		return err
	}
	if err := cfg.spans.write(filepath.Join(outDir, "trace.json")); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), blob, 0o644); err != nil {
		return err
	}
	rep.print(os.Stdout, cfg)
	if contract {
		line, err := rep.contractLine(cfg)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if !rep.correct() {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// generate writes the checked-in files the catalogue defines: each
// workload's spec and set-up twin, and BENCHMARK.json.
func generate(benchDir string) error {
	for _, w := range workloads {
		spec := w.build()
		for _, twin := range []bool{false, true} {
			s := spec
			if twin {
				s = twinOf(spec)
			}
			if err := s.Validate(); err != nil {
				return err
			}
			blob, err := encodeSpec(s)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(benchDir, specPath(w.Name, twin)), blob, 0o644); err != nil {
				return err
			}
		}
	}
	blob, err := benchmarkJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir, "..", "BENCHMARK.json"), blob, 0o644)
}
