package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
)

// runCfg is one benchmark invocation.
type runCfg struct {
	seed int64
	// seconds > 0 bounds the reps by time (the builder contract's run);
	// otherwise every workload gets a fixed `reps` reps and `twins` twins.
	seconds float64
	reps    int
	twins   int
	// e2e and layer select the two halves: --trace 0 runs the first, --trace
	// 1 the second, neither flag both.
	e2e, layer bool
	// loops and loopSeconds size the layer drivers' timed loops.
	loops       int
	loopSeconds float64
	// extraReps is how many runs the Ps-and-workers ratios are medians of.
	extraReps int
	families  []string // driver families to run
	spans     *spanLog
	buildS    float64 // host.build_s, as the launcher measured it
	// serve answers one request on the given number of Ps: execChild, or
	// the smoke test's in-process stand-in.
	serve func(procs int, req childReq) (childRes, error)
	// smoke runs each workload's set-up twin in its place, once, profiled,
	// and makes one call per driver: every code path that emits a metric,
	// in a few seconds.
	smoke bool
}

// childTimeout bounds any one child. The longest, a profiled fanin-5k rep
// on a loaded host, stays well under it.
const childTimeout = 150 * time.Second

// child serves one request and records it as a span.
func (cfg *runCfg) child(parent int, phase, what string, procs int, req childReq) (childRes, error) {
	defer cfg.spans.begin(parent, phase, what).end()
	res, err := cfg.serve(procs, req)
	if err != nil {
		return res, fmt.Errorf("%s %s: %w", phase, what, err)
	}
	return res, nil
}

// execChild runs one request in a fresh process of this binary with the
// given number of Ps, and waits for it to end.
func execChild(exe string) func(procs int, req childReq) (childRes, error) {
	return func(procs int, req childReq) (childRes, error) {
		var res childRes
		blob, err := json.Marshal(req)
		if err != nil {
			return res, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe, "-child")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stdin = bytes.NewReader(blob)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return res, fmt.Errorf("%w\n%s", err, stderr.String())
		}
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			return res, fmt.Errorf("bad child output: %w", err)
		}
		return res, nil
	}
}

// workloadRun collects what the reps of one workload produced.
type workloadRun struct {
	w          workloadDef
	spec, twin scenario.Spec
	reps       []childRes // plain reps: one P, -j 1
	twins      []childRes
	parallel   []childRes // the whole spec at -j nproc on nproc Ps
	observed   childRes   // the headline cell alone, observed
	layer      map[string]float64
	p99Samples int
	violations []string
}

func (r *workloadRun) bad(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// benchmark runs the selected workloads and drivers and builds the report.
func benchmark(ws []workloadDef, cfg *runCfg) (*report, error) {
	root := cfg.spans.begin(0, "bench", "")
	defer root.end()
	cfg.spans.add(root.id, "build", "go build", cfg.buildS)

	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		sp := cfg.spans.begin(root.id, "decode", w.Name)
		spec, err := loadSpec(w.Name, false, cfg.seed)
		if err != nil {
			return nil, err
		}
		twin, err := loadSpec(w.Name, true, cfg.seed)
		if err != nil {
			return nil, err
		}
		sp.end()
		if cfg.smoke {
			spec = twin
		}
		runs[i] = &workloadRun{w: w, spec: spec, twin: twin, layer: map[string]float64{}}
	}

	// The cross-check runs come first, so that a timed run's budget covers
	// them and the run ends within a rep of it however slow the host is.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for _, r := range runs {
		if err := cfg.crossRuns(root.id, r); err != nil {
			return nil, err
		}
	}

	// Reps are interleaved round-robin across the workloads, so machine
	// drift hits all of them alike; twins ride along every second round.
	// The per-layer half alone needs one plain rep to hang its ratios on.
	more := func(round int) bool {
		switch {
		case !cfg.e2e:
			return round < 1
		case cfg.seconds > 0:
			return round < 3 || time.Now().Before(deadline)
		}
		return round < cfg.reps
	}
	for round := 0; more(round); round++ {
		if cfg.e2e && !cfg.smoke && round%2 == 0 && (cfg.seconds > 0 || round/2 < cfg.twins) {
			for _, r := range runs {
				if err := cfg.twinRound(root.id, r); err != nil {
					return nil, err
				}
			}
		}
		for _, r := range runs {
			if err := cfg.plainRep(root.id, r); err != nil {
				return nil, err
			}
		}
	}

	for _, r := range runs {
		r.crossChecks()
		if cfg.layer {
			if err := cfg.tracedRun(root.id, r); err != nil {
				return nil, err
			}
		}
	}

	rep := newReport(cfg)
	if cfg.layer {
		for _, fam := range cfg.families {
			res, err := cfg.child(root.id, "drivers", fam, 1,
				childReq{Drivers: fam, LoopSeconds: cfg.loopSeconds, Loops: cfg.loops})
			if err != nil {
				return nil, err
			}
			for k, v := range res.Layer {
				rep.Drivers[k] = v
			}
		}
	}
	for _, r := range runs {
		rep.Workloads = append(rep.Workloads, r.report(cfg))
	}
	return rep, nil
}

func (cfg *runCfg) plainRep(parent int, r *workloadRun) error {
	res, err := cfg.child(parent, "rep", r.w.Name, 1,
		childReq{Spec: &r.spec, Workers: 1, Headline: r.w.Headline, Profile: cfg.smoke})
	if err != nil {
		return err
	}
	r.reps = append(r.reps, res)
	return nil
}

// twinRound runs the workload's set-up twin until a second's worth has run,
// five times at most: a short twin is run several times per round, so that
// setup_s is a median of more than a few milliseconds' worth of samples.
func (cfg *runCfg) twinRound(parent int, r *workloadRun) error {
	var total float64
	for i := 0; i < 5 && total < 1; i++ {
		res, err := cfg.child(parent, "twin", r.w.Name, 1, childReq{Spec: &r.twin, Workers: 1})
		if err != nil {
			return err
		}
		if len(res.Violations) > 0 {
			r.bad("twin: %s", strings.Join(res.Violations, "; "))
		}
		r.twins = append(r.twins, res)
		total += res.WallS
	}
	return nil
}

// crossRuns makes the two extra runs the cross-checks compare the reps
// with: the whole spec at -j nproc, and the headline cell observed.
func (cfg *runCfg) crossRuns(parent int, r *workloadRun) error {
	nproc := runtime.NumCPU()
	var err error
	if r.parallel, err = cfg.extraRuns(parent, "parallel", r, nproc, nproc); err != nil {
		return err
	}
	spec, err := onlyCell(r.spec, r.w.Headline)
	if err != nil {
		return err
	}
	spec.Observe = &scenario.Observe{Trace: true, TraceMaxEvents: traceMaxEvents, Probes: true, Histograms: true}
	r.observed, err = cfg.child(parent, "observe", r.w.Name+"/"+r.w.Headline, 1, childReq{Spec: &spec, Workers: 1, Headline: r.w.Headline})
	return err
}

// crossChecks are the output checks that need more than one run: every
// rep of a seed must produce the same result, at any worker count and
// whether or not it is observed.
func (r *workloadRun) crossChecks() {
	first := r.reps[0]
	for i, rep := range r.reps {
		if rep.Digest != first.Digest {
			r.bad("rep %d: sim_digest %s differs from rep 0's %s", i, rep.Digest, first.Digest)
		}
		for _, v := range rep.Violations {
			r.bad("rep %d: %s", i, v)
		}
	}
	for _, par := range r.parallel {
		if par.Digest != first.Digest {
			r.bad("-j nproc: sim_digest %s differs from the sequential %s", par.Digest, first.Digest)
		}
	}
	r.layer["scenario.parallel_speedup_x"] = ratio(medianOf(r.reps, wallOf), medianOf(r.parallel, wallOf))

	obs := r.observed
	if obs.Columns != first.Columns {
		r.bad("observing %s moved its metric columns:\n  plain    %s\n  observed %s", r.w.Headline, first.Columns, obs.Columns)
	}
	if obs.Layer["trace.dropped"] != 0 {
		r.bad("observed run dropped %v spans; raise traceMaxEvents", obs.Layer["trace.dropped"])
	}
	for k, v := range obs.Layer {
		r.layer[k] = v
	}
	r.p99Samples = obs.P99Samples
	r.layer["trace.overhead_x"] = ratio(obs.HeadlineWallS,
		medianOf(r.reps, func(rep childRes) float64 { return rep.HeadlineWallS }))
}

// tracedRun is the extra pass behind the host-time attribution: one rep
// under the CPU profiler, and one with every P the machine has but still
// a single worker, which prices the idle Ps a default-settings user pays.
func (cfg *runCfg) tracedRun(parent int, r *workloadRun) error {
	prof := r.reps[0]
	if !cfg.smoke {
		var err error
		prof, err = cfg.child(parent, "profile", r.w.Name, 1, childReq{Spec: &r.spec, Workers: 1, Headline: r.w.Headline, Profile: true})
		if err != nil {
			return err
		}
	}
	for k, v := range prof.Layer {
		if strings.HasPrefix(k, "share.") || strings.HasPrefix(k, "rt.") || strings.HasPrefix(k, "prof.") {
			r.layer[k] = v
		}
	}
	wall := medianOf(r.reps, wallOf)
	r.layer["prof.overhead_x"] = ratio(prof.WallS, wall)

	idle, err := cfg.extraRuns(parent, "idle_p", r, runtime.NumCPU(), 1)
	if err != nil {
		return err
	}
	r.layer["sim.idle_p_penalty_x"] = ratio(medianOf(idle, wallOf), wall)
	return nil
}

// extraRuns runs the whole spec extraReps times on procs Ps with the given
// worker count.
func (cfg *runCfg) extraRuns(parent int, phase string, r *workloadRun, procs, workers int) ([]childRes, error) {
	var all []childRes
	for i := 0; i < cfg.extraReps; i++ {
		res, err := cfg.child(parent, phase, r.w.Name, procs, childReq{Spec: &r.spec, Workers: workers, Headline: r.w.Headline})
		if err != nil {
			return nil, err
		}
		all = append(all, res)
	}
	return all, nil
}

func wallOf(r childRes) float64 { return r.WallS }

// valuesOf reads one number off every run, in the order they ran.
func valuesOf(runs []childRes, of func(childRes) float64) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = of(r)
	}
	return vals
}

func medianOf(runs []childRes, of func(childRes) float64) float64 {
	return distOf(valuesOf(runs, of)).Median
}

// report folds the runs into the workload's report.
func (r *workloadRun) report(cfg *runCfg) workloadReport {
	first := r.reps[0]

	// The model counts are the same on every rep (the digest check says
	// so); the host ratios use the median wall.
	for k, v := range first.Layer {
		if strings.HasPrefix(k, "model.") {
			r.layer[k] = v
		}
	}
	wall, ops := medianOf(r.reps, wallOf), first.Layer["model.ops_done"]
	mallocs := medianOf(r.reps, func(rep childRes) float64 { return rep.MallocsK * 1e3 })
	r.layer["sim.goroutines_left"] = float64(first.Goroutines)
	r.layer["host.build_s"] = cfg.buildS
	r.layer["host.sim_s_per_wall_s"] = ratio(first.Layer["model.sim_s"], wall)
	r.layer["host.us_per_op"] = ratio(wall*1e6, ops)
	r.layer["host.mallocs_per_op"] = ratio(mallocs, ops)

	wr := workloadReport{
		Name:         r.w.Name,
		Headline:     r.w.Headline,
		Digest:       first.Digest,
		Reps:         len(r.reps),
		OpsAttempted: first.OpsAttempted,
		OpsFailed:    first.OpsFailed,
		Violations:   r.violations,
		P99Samples:   r.p99Samples,
		EndToEnd:     map[string]dist{},
		Layer:        r.layer,
	}
	wr.OKShare = 1 - ratio(float64(first.OpsFailed), float64(first.OpsAttempted))
	if len(r.violations) > 0 {
		wr.OKShare = 0 // a wrong result is worth nothing, however fast
	}
	if !cfg.e2e {
		return wr
	}
	twins := r.twins
	if cfg.smoke { // the rep was the twin
		twins = r.reps
	}
	for _, def := range endToEnd {
		def := def
		var vals []float64
		switch def.Name {
		case "ok_share":
			vals = []float64{wr.OKShare}
		case "setup_s":
			vals = valuesOf(twins, wallOf)
		default:
			vals = valuesOf(r.reps, func(rep childRes) float64 { return e2eValue(def.Name, rep) })
		}
		wr.EndToEnd[def.Name] = distOf(vals)
	}
	return wr
}
