package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/sim"
)

// A layer driver loops over one package's exported functions and reports
// what a call costs the host. Its numbers say which layer moved when an
// end-to-end metric does; they carry no bound of their own.

// cost is what one driver loop consumed.
type cost struct {
	d       time.Duration
	mallocs uint64
	bytes   uint64
	events  uint64 // Sim.EventsFired
	calls   int    // calls actually made, when the driver cannot hit n exactly
}

func (c *cost) add(o cost) {
	c.d += o.d
	c.mallocs += o.mallocs
	c.bytes += o.bytes
	c.events += o.events
	c.calls += o.calls
}

// loopFn makes n calls and reports their cost. Whatever the calls need
// beforehand is built outside the metered part.
type loopFn func(n int) cost

// metricOf turns a loop's cost into one per-call metric.
type metricOf struct {
	name  string
	of    func(c cost, calls float64) float64
	count bool // a count, taken at a fixed call count so that it repeats
}

func nsPerCall(name string) metricOf {
	return metricOf{name: name, of: func(c cost, n float64) float64 { return float64(c.d.Nanoseconds()) / n }}
}
func msPerCall(name string) metricOf {
	return metricOf{name: name, of: func(c cost, n float64) float64 { return c.d.Seconds() * 1e3 / n }}
}
func allocsPerCall(name string) metricOf {
	return metricOf{name: name, count: true, of: func(c cost, n float64) float64 { return float64(c.mallocs) / n }}
}
func allocMBPerCall(name string) metricOf {
	return metricOf{name: name, count: true, of: func(c cost, n float64) float64 { return float64(c.bytes) / mb / n }}
}
func eventsPerCall(name string) metricOf {
	return metricOf{name: name, count: true, of: func(c cost, n float64) float64 { return float64(c.events) / n }}
}

// driver is one measured loop and the metrics read off it.
type driver struct {
	family string
	// setup builds the layer once and returns the loop; loops reuse it.
	setup   func() loopFn
	metrics []metricOf
	// countN is the fixed call count of the counting pass (default 256).
	// Counts are taken there, not in the timed loops, whose call count
	// follows the host's speed: *_events must repeat exactly.
	countN int
}

var drivers = slices.Concat(simDrivers, codecDrivers, netDrivers, storageDrivers, ufsDrivers,
	coreDrivers, serverDrivers, clientDrivers, generatorDrivers, statsDrivers, assemblyDrivers)

// driverFamilies lists the families in catalogue order.
func driverFamilies() []string {
	var fams []string
	seen := map[string]bool{}
	for _, d := range drivers {
		if !seen[d.family] {
			seen[d.family] = true
			fams = append(fams, d.family)
		}
	}
	return fams
}

// runDrivers measures every driver of one family. loops <= 0 is the smoke
// setting: each driver makes a single call through the real code path.
func runDrivers(family string, loopSeconds float64, loops int) (map[string]float64, error) {
	out := map[string]float64{}
	found := false
	for _, d := range drivers {
		if d.family != family {
			continue
		}
		found = true
		if err := d.measure(loopSeconds, loops, out); err != nil {
			return nil, err
		}
	}
	if !found {
		return nil, fmt.Errorf("no driver family %q (have %v)", family, driverFamilies())
	}
	return out, nil
}

func (d driver) measure(loopSeconds float64, loops int, out map[string]float64) error {
	loop := d.setup()
	countN := d.countN
	if countN == 0 {
		countN = 256
	}
	if loops <= 0 {
		countN = 1
	}
	run := func(n int) (cost, float64) {
		c := loop(n)
		if c.calls == 0 {
			c.calls = n
		}
		return c, float64(c.calls)
	}

	counted, calls := run(countN)
	for _, m := range d.metrics {
		if m.count || loops <= 0 {
			out[m.name] = m.of(counted, calls)
		}
	}
	if loops <= 0 {
		return nil
	}
	again, againCalls := run(countN)
	for _, m := range d.metrics {
		if m.count && strings.HasSuffix(m.name, "_events") && m.of(again, againCalls) != out[m.name] {
			return fmt.Errorf("%s does not repeat: %v then %v events per call",
				m.name, out[m.name], m.of(again, againCalls))
		}
	}

	// Size the timed loops from the counting pass, as testing.B does.
	perCall := again.d.Seconds() / againCalls
	n := countN
	if perCall > 0 {
		n = int(loopSeconds / perCall)
	}
	if n < 1 {
		n = 1
	}
	samples := map[string][]float64{}
	for i := 0; i < loops; i++ {
		c, calls := run(n)
		for _, m := range d.metrics {
			if !m.count {
				samples[m.name] = append(samples[m.name], m.of(c, calls))
			}
		}
	}
	for name, s := range samples {
		out[name] = distOf(s).Median
	}
	return nil
}

// meter brackets the measured part of a loop.
type meter struct {
	t0     time.Time
	m0     runtime.MemStats
	s      *sim.Sim
	fired0 uint64
}

// startMeter starts the clock; s may be nil for drivers without a sim.
func startMeter(s *sim.Sim) *meter {
	m := &meter{s: s}
	if s != nil {
		m.fired0 = s.EventsFired()
	}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() cost {
	d := time.Since(m.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	c := cost{d: d, mallocs: m1.Mallocs - m.m0.Mallocs, bytes: m1.TotalAlloc - m.m0.TotalAlloc}
	if m.s != nil {
		c.events = m.s.EventsFired() - m.fired0
	}
	return c
}

// lap times one call among untimed ones, without the allocation counts
// (reading them stops the world).
func lap(s *sim.Sim, call func()) cost {
	fired := s.EventsFired()
	t0 := time.Now()
	call()
	return cost{d: time.Since(t0), events: s.EventsFired() - fired, calls: 1}
}

// inSim runs body as a simulation process to completion. A sim that has
// run dry can be spawned into and run again, so set-up survives between
// loops.
func inSim(s *sim.Sim, body func(p *sim.Proc)) {
	s.Spawn("driver", body)
	s.Run(0)
}

// must aborts the driver child on a failed simulated operation: a layer
// that cannot do its one job has no cost worth reporting.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
