package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The checked-in specs are the builders' output, byte for byte. The spec's
// `_ns` fields carry simulator ticks (microseconds); the builders use
// sim.Second, so a unit slip in a hand-edited file cannot silently resize
// a workload.
func TestSpecsMatchBuilders(t *testing.T) {
	for _, w := range workloads {
		spec := w.build()
		for _, twin := range []bool{false, true} {
			s := spec
			if twin {
				s = twinOf(spec)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", specPath(w.Name, twin), err)
			}
			want, err := encodeSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := specFiles.ReadFile(specPath(w.Name, twin))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s is not the builder's output; regenerate with `go run . -gen .`", specPath(w.Name, twin))
			}
			if _, err := onlyCell(s, w.Headline); err != nil {
				t.Errorf("%s: headline: %v", specPath(w.Name, twin), err)
			}
		}
	}
	laddis, err := loadSpec("laddis-closed", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := laddis.Workload.LADDIS.Measure; got != 30*sim.Second || int64(got) != 30_000_000 {
		t.Errorf("laddis-closed measures %d ticks, want 30 simulated seconds = 30,000,000 µs ticks", got)
	}
}

func TestWithSeedTouchesEverySeed(t *testing.T) {
	base, err := loadSpec("laddis-closed", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	seeded := withSeed(base, 7)
	if seeded.Seed != base.Seed+7 || seeded.Workload.LADDIS.Seed != base.Workload.LADDIS.Seed+7 {
		t.Errorf("base or generator seed not shifted")
	}
	for i := range base.Cells {
		if *seeded.Cells[i].Seed != *base.Cells[i].Seed+7 {
			t.Errorf("cell %d seed not shifted", i)
		}
	}
	if *base.Cells[0].Seed != 4242+200 {
		t.Errorf("withSeed changed its argument: cell 0 seed %d", *base.Cells[0].Seed)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the catalogue's rendering, and the catalogue stays
// within the builder contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not the catalogue's rendering; regenerate with `go run . -gen .`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	layer := perLayer()
	if n := len(layer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the name rule", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range layer {
		check("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
	}
}

// TestSmoke drives every code path that emits a metric — each workload's
// set-up twin through rep, cross-checks, profile and observation; each
// layer driver for one call — and checks that what comes out is exactly
// the catalogue: every metric once per workload, none unnamed.
func TestSmoke(t *testing.T) {
	smokeCfg := func(families []string) *runCfg {
		return &runCfg{
			seed: 1, reps: 1, twins: 1, e2e: true, layer: true, smoke: true,
			families: families, spans: newSpanLog(),
			serve: func(_ int, req childReq) (childRes, error) { return serveRequest(req) },
		}
	}
	type result struct {
		rep *report
		err error
	}
	driversDone := make(chan result, 1) // the one send must not block if the test has already failed
	go func() {
		rep, err := benchmark(nil, smokeCfg(driverFamilies()))
		driversDone <- result{rep, err}
	}()
	cfg := smokeCfg(nil)
	rep, err := benchmark(workloads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := <-driversDone
	if d.err != nil {
		t.Fatal(d.err)
	}
	rep.Drivers = d.rep.Drivers

	catalogue := map[string]bool{}
	for _, def := range perLayer() {
		catalogue[def.Name] = true
	}
	for name := range rep.Drivers {
		if !catalogue[name] {
			t.Errorf("driver metric %s is not in the catalogue", name)
		}
	}
	for _, w := range rep.Workloads {
		for _, v := range w.Violations {
			t.Errorf("%s: output check failed: %s", w.Name, v)
		}
		for name := range w.Layer {
			if !catalogue[name] {
				t.Errorf("%s: layer metric %s is not in the catalogue", w.Name, name)
			}
			if _, twice := rep.Drivers[name]; twice {
				t.Errorf("%s: %s is emitted by the workload and by a driver", w.Name, name)
			}
		}
		one := &report{Workloads: []workloadReport{w}, Drivers: rep.Drivers}
		for _, half := range []struct {
			e2e, layer bool
			want       int
		}{{true, false, len(endToEnd)}, {false, true, len(catalogue)}} {
			line, err := one.contractLine(&runCfg{e2e: half.e2e, layer: half.layer})
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				continue
			}
			var parsed contractLine
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatal(err)
			}
			if len(parsed.Metrics) != half.want {
				t.Errorf("%s: contract line carries %d metrics, want %d", w.Name, len(parsed.Metrics), half.want)
			}
			if !parsed.Correct {
				t.Errorf("%s: contract line says incorrect", w.Name)
			}
		}
		if w.EndToEnd["setup_s"].Median <= 0 || w.EndToEnd["wall_s"].Median <= 0 {
			t.Errorf("%s: a time reads zero", w.Name)
		}
	}
	if err := cfg.spans.write(t.TempDir() + "/trace.json"); err != nil {
		t.Error(err)
	}
	phases := map[string]bool{}
	for _, s := range cfg.spans.spans {
		phases[s.Phase] = true
		if s.ID != 1 && s.Parent == 0 {
			t.Errorf("span %d (%s) has no parent", s.ID, s.Phase)
		}
	}
	for _, want := range []string{"build", "decode", "rep", "observe"} {
		if !phases[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
}

// The attribution must survive a real profile: parse it, and find the
// benchmark's own spinning function on the stacks.
func TestProfileParses(t *testing.T) {
	req := childReq{Profile: true}
	spec, err := loadSpec("openload-knee", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	req.Spec = &spec
	res, err := runSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k, v := range res.Layer {
		if strings.HasPrefix(k, "share.") {
			sum += v
		}
	}
	if res.Layer["prof.samples"] < 1 || sum < 99.9 || sum > 100.1 {
		t.Errorf("shares sum to %v over %v samples, want 100", sum, res.Layer["prof.samples"])
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	d := distOf([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if d.Q1 != 3.5 || d.Median != 13.5 || d.Q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", d.Q1, d.Median, d.Q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) gives [1.0, 2.0, 3.0].
	if d := distOf([]float64{3, 1, 2}); d.Q1 != 1 || d.Median != 2 || d.Q3 != 3 {
		t.Errorf("quartiles of three %v %v %v, want 1 2 3", d.Q1, d.Median, d.Q3)
	}
}

func TestCompareFlagsRegressionAndSpread(t *testing.T) {
	bound := endToEnd[0].SameSeed // wall_s
	// withDist reports every metric as a steady 1 but the named one.
	withDist := func(name string, d dist, events float64) *report {
		e2e := map[string]dist{}
		for _, def := range endToEnd {
			e2e[def.Name] = dist{Median: 1, Q1: 1, Q3: 1, N: 12}
		}
		d.N = 12
		e2e[name] = d
		return &report{
			Seed:      1,
			Workloads: []workloadReport{{Name: "copy-seq", Digest: "d", EndToEnd: e2e, Layer: map[string]float64{"model.ops_done": 5}}},
			Drivers:   map[string]float64{"server.rpc_write_events": events},
		}
	}
	// mk reports a wall_s of the given median with quartiles ±spread/2 of it.
	mk := func(wall, spread, events float64) *report {
		return withDist("wall_s", dist{Median: wall, Q1: wall * (1 - spread/2), Q3: wall * (1 + spread/2)}, events)
	}
	// twin reports a setup_s whose quartiles lie 19 ms apart, as a 40 ms
	// twin's do: 47 % of the median, yet far below the 0.05 s floor.
	twin := func(setup float64) *report {
		return withDist("setup_s", dist{Median: setup, Q1: setup - 0.010, Q3: setup + 0.009}, 14)
	}
	var out bytes.Buffer
	for _, c := range []struct {
		what  string
		a, b  *report
		clean bool
		want  string
	}{
		{"half the bound", mk(2, 0.01, 14), mk(2*(1+bound/2), 0.01, 14), true, ""},
		{"one and a half times the bound", mk(2, 0.01, 14), mk(2*(1+1.5*bound), 0.01, 14), false, "REGRESSED"},
		{"a spread of twice the bound", mk(2, 2*bound, 14), mk(2, 0.01, 14), false, "unresolved"},
		{"a moved event count", mk(2, 0.01, 14), mk(2, 0.01, 15), false, "server.rpc_write_events"},
		{"a 40 ms twin against itself", twin(0.040), twin(0.040), true, ""},
		{"a 40 ms twin 40 ms slower, inside the floor", twin(0.040), twin(0.080), true, ""},
		{"a 40 ms twin 55 ms slower", twin(0.040), twin(0.095), false, "REGRESSED"},
		{"a 2 s twin 30 % slower", twin(2), twin(2.6), false, "REGRESSED"},
		{"an allocation count 2 % up", withDist("mallocs_k", dist{Median: 1000, Q1: 1000, Q3: 1000}, 14),
			withDist("mallocs_k", dist{Median: 1020, Q1: 1020, Q3: 1020}, 14), false, "REGRESSED"},
	} {
		out.Reset()
		if got := compare(&out, c.a, c.b); got != c.clean || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: clean=%v, want %v and %q in:\n%s", c.what, got, c.clean, c.want, out.String())
		}
	}
	other := mk(2, 0.01, 14)
	other.Seed = 2
	out.Reset()
	if compare(&out, mk(2, 0.01, 14), other) || !strings.Contains(out.String(), "seeds 1 and 2") {
		t.Errorf("reports of two seeds were compared:\n%s", out.String())
	}
}
