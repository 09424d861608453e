// Scenario fuzzing: generate random valid spec+fault combinations, run
// each on the real engine, and assert the two whole-system invariants
// every run must uphold regardless of the fault schedule:
//
//   - durability: no client-acked byte may be lost unless a scheduled
//     fault (a lying NVRAM board, an unrecoverable media failure)
//     explicitly declared the loss permissible;
//   - accounting: after full quiesce, every outstanding block reference
//     is attributable to a long-lived store (nothing leaked through a
//     kill-unwind, nothing double-released).
//
// A failing spec is shrunk — events dropped, trains shortened, sweep
// cells removed, topology reduced — to a minimal spec that still fails
// the same way, and reported as runnable JSON (nfsbench -scenario).
//
// Everything is seed-driven: run i of Fuzz(seed S) derives its generator
// from S and i alone, and the engine itself is deterministic, so a
// reported failure replays exactly from (S, i) or from the printed spec.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FuzzConfig parameterizes one fuzzing campaign.
type FuzzConfig struct {
	// Runs is the number of generated specs to execute (default 100).
	Runs int
	// Seed is the campaign seed; run i uses Seed and i alone.
	Seed int64
	// MaxShrinkRuns bounds the engine executions the shrinker may spend
	// minimizing one failure (default 250).
	MaxShrinkRuns int
	// Workers is the campaign's worker-pool size: that many generated
	// specs execute concurrently (Ordered), each a fully independent sim
	// with its own buffer ledger. 0 uses GOMAXPROCS; 1 runs in-line. The
	// verdict is identical at any width: run-i spec generation depends on
	// (Seed, i) alone, runs are classified independently, and the lowest
	// failing index wins — exactly the run an in-line campaign stops at.
	// Shrinking always runs in-line, so the minimized spec and artifacts
	// match too.
	Workers int
	// Log, when set, receives one progress line every few runs.
	Log func(format string, args ...any)
}

// Failure classes.
const (
	// FailPanic: the engine panicked executing a valid spec.
	FailPanic = "panic"
	// FailDurability: acked bytes were lost and no scheduled fault
	// declared the loss permissible.
	FailDurability = "durability"
	// FailLeak: block references unaccounted for after full quiesce.
	FailLeak = "leak"
	// FailInvalid: a spec the generator validated was rejected by Run —
	// a fuzzer/validator disagreement, reported like any other bug.
	FailInvalid = "invalid"
)

// FuzzFailure is one minimized counterexample.
type FuzzFailure struct {
	// Run is the failing run index (replay: same campaign seed, run Run).
	Run int
	// Class is the failure class (Fail* constants).
	Class string
	// Detail describes the original failure.
	Detail string
	// Spec is the original failing spec, Shrunk the minimized one (still
	// failing with the same class).
	Spec   Spec
	Shrunk Spec
	// ShrinkRuns counts engine executions the minimization spent.
	ShrinkRuns int
	// TraceJSON and SeriesCSV are the shrunken spec's observability
	// artifacts — a Chrome trace_event file and the probe time-series —
	// captured by replaying the minimal spec with the observe plane on.
	// For panic-class failures they cover the run up to the panic. Empty
	// when the instrumented replay produced nothing.
	TraceJSON []byte `json:"-"`
	SeriesCSV []byte `json:"-"`
}

// JSON renders the shrunk spec as runnable scenario JSON.
func (f *FuzzFailure) JSON() string {
	blob, err := json.MarshalIndent(f.Shrunk, "", "  ")
	if err != nil {
		return fmt.Sprintf("<marshal failed: %v>", err)
	}
	return string(blob)
}

func (f *FuzzFailure) String() string {
	return fmt.Sprintf("fuzz run %d failed (%s): %s\nminimal reproducing spec (%d shrink runs):\n%s",
		f.Run, f.Class, f.Detail, f.ShrinkRuns, f.JSON())
}

// regimes are the model regimes a campaign's reach table counts, each
// read off a counter its cells carry.
var regimes = []struct {
	name    string
	reached func(c *CellResult) bool
}{
	{"socket drop", func(c *CellResult) bool { return c.socketDrops > 0 }},
	{"retransmission", func(c *CellResult) bool { return c.Retransmissions > 0 }},
	{"hunter hit", func(c *CellResult) bool { return c.hunterHits > 0 }},
	{"orphan adoption (§6.9)", func(c *CellResult) bool { return c.adoptions > 0 }},
	{"bridge drop", func(c *CellResult) bool { return c.BridgeDrops > 0 }},
	{"crash", func(c *CellResult) bool { return c.Crashes > 0 }},
	{"failover", func(c *CellResult) bool { return c.Durability != nil && c.Durability.Failovers > 0 }},
	{"link outage", func(c *CellResult) bool { return c.Durability != nil && c.Durability.LinkOutages > 0 }},
	{"dropped NVRAM block", func(c *CellResult) bool { return c.Durability != nil && c.Durability.DroppedNVRAMBlocks > 0 }},
	{"open-loop shed", func(c *CellResult) bool { return c.ShedArrivals > 0 }},
}

// reachedBy reports, a bit per regime, which regimes some cell of res
// reached.
func reachedBy(res *Result) uint32 {
	var bits uint32
	for i := range res.Cells {
		for k, g := range regimes {
			if g.reached(&res.Cells[i]) {
				bits |= 1 << k
			}
		}
	}
	return bits
}

// Reach is a campaign's reach table: for each regime, the runs in which
// some cell reached it, counted over the runs up to the first failing one
// (all of them when the campaign is clean), so it reads the same at any
// worker count.
type Reach struct {
	Runs   int
	Counts []int // in regimes order
}

// String renders the table, a row per regime, zeros included.
func (r Reach) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz reach: runs of %d that reached each regime\n", r.Runs)
	for k, g := range regimes {
		fmt.Fprintf(&b, "  %-24s %5d\n", g.name, r.Counts[k])
	}
	return b.String()
}

// Fuzz runs the campaign and returns its reach table and the first
// failure, minimized — or nil if every generated spec upheld the
// invariants. Generated specs execute across cfg.Workers concurrent
// sims; the reported failure is the lowest failing run index, the run an
// in-line campaign stops at (see FuzzConfig.Workers).
func Fuzz(cfg FuzzConfig) (Reach, *FuzzFailure) {
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	if cfg.MaxShrinkRuns <= 0 {
		cfg.MaxShrinkRuns = 250
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	// A failure stops the campaign: no run above it is dispatched.
	fails := make([]*FuzzFailure, cfg.Runs)
	reached := make([]uint32, cfg.Runs)
	var logMu sync.Mutex
	k := Ordered(cfg.Runs, cfg.Workers, func(_, i int) bool {
		if cfg.Log != nil && i%10 == 0 {
			logMu.Lock()
			cfg.Log("fuzz: run %d/%d", i, cfg.Runs)
			logMu.Unlock()
		}
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
		spec := genSpec(rng, i)
		class, detail, bits := checkSpec(spec)
		if class != "" {
			fails[i] = &FuzzFailure{Run: i, Class: class, Detail: detail, Spec: spec}
		}
		reached[i] = bits
		return fails[i] != nil
	})
	reach := Reach{Runs: min(k+1, cfg.Runs), Counts: make([]int, len(regimes))}
	for _, bits := range reached[:reach.Runs] {
		for b := range reach.Counts {
			reach.Counts[b] += int(bits >> b & 1)
		}
	}
	if k == cfg.Runs {
		return reach, nil
	}
	f := fails[k]
	// Minimize and capture artifacts outside the worker pool: the
	// shrinker's greedy passes are order-dependent, so they always run
	// in-line regardless of campaign width.
	f.Shrunk, f.ShrinkRuns = shrinkSpec(f.Spec, f.Class, cfg.MaxShrinkRuns)
	f.TraceJSON, f.SeriesCSV = captureObs(f.Shrunk)
	return reach, f
}

// captureObs replays spec with the full observe plane forced on and
// serializes whatever the run produced. The capture callback keeps each
// cell's live observer reachable, so a replay that panics mid-cell (the
// usual case for panic-class repros) still yields its partial trace. The
// replay is sequential — cell order fixes the artifact order.
func captureObs(spec Spec) (traceJSON, seriesCSV []byte) {
	c := cloneSpec(spec)
	c.Observe = &Observe{Trace: true, Probes: true, Histograms: true}
	if c.Validate() != nil {
		return nil, nil
	}
	var traces []*obs.Trace
	var series []*obs.TimeSeries
	capture := func(label string, ob *cellObs) {
		if ob.trace != nil {
			traces = append(traces, ob.trace)
		}
		if ob.series != nil {
			series = append(series, ob.series)
		}
	}
	func() {
		defer func() {
			_ = recover() // the failure is already classified; keep the artifacts
		}()
		_, _ = runEngine(c, 1, capture)
	}()
	if len(traces) > 0 {
		var b bytes.Buffer
		if obs.WriteTraces(&b, traces) == nil {
			traceJSON = b.Bytes()
		}
	}
	if len(series) > 0 {
		var b bytes.Buffer
		if obs.WriteSeriesCSV(&b, series) == nil {
			seriesCSV = b.Bytes()
		}
	}
	return traceJSON, seriesCSV
}

// checkSpec executes one spec and classifies the outcome ("" = pass),
// with the regimes its cells reached (none when it panicked or did not
// run). Cells run in-line: the fuzz campaign's worker pool is the unit of
// parallelism, and a spec's one or two cells never warrant a nested
// pool.
func checkSpec(spec Spec) (class, detail string, reached uint32) {
	defer func() {
		if r := recover(); r != nil {
			class, detail = FailPanic, fmt.Sprint(r)
		}
	}()
	res, err := RunWorkers(spec, 1)
	if err != nil {
		return FailInvalid, err.Error(), 0
	}
	reached = reachedBy(res)
	for _, cell := range res.Cells {
		d := cell.Durability
		if d == nil {
			continue
		}
		if d.LostBytes > 0 && !d.LossExpected {
			return FailDurability, fmt.Sprintf("cell %s: lost %d acked bytes: %s",
				cell.Label, d.LostBytes, d.FirstLoss), reached
		}
		if d.UnaccountedRefs != 0 {
			return FailLeak, fmt.Sprintf("cell %s: %d unaccounted block refs",
				cell.Label, d.UnaccountedRefs), reached
		}
	}
	return "", "", reached
}

// genSpec draws one random valid spec. Faults are grown monotonically:
// each candidate event is appended and the whole spec re-validated, and
// a candidate that does not fit (an overlap, a missing board, a bad
// target) is simply dropped — so generation can never emit an invalid
// spec, and every validator tightening automatically steers the fuzzer.
func genSpec(rng *rand.Rand, run int) Spec {
	servers := 1 + rng.Intn(2)
	stripe := []int{1, 1, 2, 3}[rng.Intn(4)]
	spec := Spec{
		Name: fmt.Sprintf("fuzz-%d", run),
		Seed: rng.Int63n(1 << 20),
		Topology: Topology{
			Net: []string{"ethernet", "fddi"}[rng.Intn(2)],
			Clients: []ClientGroup{{
				Count:      1 + rng.Intn(2),
				Biods:      []int{0, 2, 4}[rng.Intn(3)],
				MaxRetries: 100,
			}},
			Servers: Servers{
				Count:       servers,
				StripeDisks: stripe,
				Presto:      rng.Intn(2) == 0,
				Gathering:   rng.Intn(2) == 0,
			},
			Assembly: AssemblyCluster,
		},
		Workload: Workload{
			Kind:   KindStream,
			Stream: &StreamWorkload{FileMB: 1, Shard: rng.Intn(2) == 0},
		},
		Faults: Faults{CheckDurability: true},
	}
	// A quarter of the runs swap the closed-loop stream for the open-loop
	// generator: arrivals keep coming on the arrival clock regardless of
	// completions, so the durability and ref-leak invariants get probed
	// under honest overload (queue growth, shed arrivals) instead of the
	// stream's self-throttling.
	if rng.Intn(4) == 0 {
		ol := &OpenloadWorkload{
			Arrival:    []string{ArrivalFixed, ArrivalPoisson, ArrivalBursty}[rng.Intn(3)],
			TargetOps:  float64(50 + rng.Intn(350)),
			Population: []string{PopFlat, PopZipf}[rng.Intn(2)],
			Mix:        []string{"", MixLADDIS, MixMetadata}[rng.Intn(3)],
			Files:      8 + rng.Intn(24),
			FileBlocks: 1 + rng.Intn(4),
			Measure:    rngMS(rng, 400, 1200),
			Seed:       rng.Int63n(1 << 20),
		}
		if ol.Population == PopZipf && rng.Intn(2) == 0 {
			ol.ZipfS = 0.8 + float64(rng.Intn(8))/10
		}
		if rng.Intn(3) == 0 {
			ol.Deadline = rngMS(rng, 100, 400)
		}
		spec.Workload = Workload{Kind: KindOpenload, Openload: ol}
	}
	// A third of the runs move onto a bridged fabric: a root core
	// segment plus one or two leaf LANs, the whole client group placed
	// on the first leaf, so every acked byte crosses the store-and-
	// forward bridges — same invariants, longer datagram path.
	if rng.Intn(3) == 0 {
		leaves := 1 + rng.Intn(2)
		media := []Medium{{Name: "core", Net: spec.Topology.Net}}
		for i := 1; i <= leaves; i++ {
			media = append(media, Medium{
				Name:   fmt.Sprintf("lan%d", i),
				Net:    []string{"ethernet", "fddi"}[rng.Intn(2)],
				Uplink: "core",
			})
		}
		spec.Topology.Net = ""
		spec.Topology.Media = media
		spec.Topology.Clients[0].Segment = "lan1"
	}
	// An occasional two-cell sweep exercises the per-cell reset path.
	if rng.Intn(4) == 0 {
		g, p := !spec.Topology.Servers.Gathering, spec.Topology.Servers.Presto
		spec.Cells = []Cell{{Label: "base"}, {Label: "alt", Gathering: &g, Presto: &p}}
	}
	want := rng.Intn(5)
	for tries := 0; len(spec.Faults.Events) < want && tries < want*8; tries++ {
		ev := genEvent(rng, &spec)
		spec.Faults.Events = append(spec.Faults.Events, ev)
		if spec.Validate() != nil {
			spec.Faults.Events = spec.Faults.Events[:len(spec.Faults.Events)-1]
		}
	}
	if err := spec.Validate(); err != nil {
		panic("scenario: fuzz generator produced an invalid base spec: " + err.Error())
	}
	return spec
}

// Millisecond helpers for the generator's time draws.
func ms(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }

func rngMS(rng *rand.Rand, lo, hi int) sim.Duration {
	return ms(lo + rng.Intn(hi-lo+1))
}

// genEvent draws one candidate fault event against the spec's topology.
// It need not be valid — genSpec drops candidates validation rejects.
func genEvent(rng *rand.Rand, spec *Spec) FaultEvent {
	servers := spec.Topology.Servers.Count
	clients := spec.Topology.Clients[0].Count
	node := rng.Intn(servers)
	disk := []int{-1, 0, 1, 2}[rng.Intn(4)]
	at := rngMS(rng, 0, 1500)
	// Power faults start no earlier than 100ms: a crash during mkfs's
	// initial image flush leaves a filesystem that never existed (stale
	// root on remount) — a setup race, not a durability finding.
	powerAt := rngMS(rng, 100, 1500)
	// The open-loop runner measures behind a 20s setup barrier; faults
	// drawn on the stream clock would all land in the idle build window,
	// so shift them into the measured phase.
	if spec.Workload.Kind == KindOpenload {
		at += 20 * sim.Second
		powerAt += 20 * sim.Second
	}
	switch rng.Intn(9) {
	case 0:
		return FaultEvent{Kind: fault.KindServerCrash, ServerCrash: &fault.ServerCrash{
			Node: node, Train: fault.Train{At: powerAt, Period: rngMS(rng, 300, 700),
				Outage: rngMS(rng, 50, 250), Count: 1 + rng.Intn(2)},
		}}
	case 1:
		return FaultEvent{Kind: fault.KindClientReboot, ClientReboot: &fault.ClientReboot{
			Client: rng.Intn(clients), At: at, Outage: rngMS(rng, 50, 250),
		}}
	case 2:
		return FaultEvent{Kind: fault.KindBiodLoss, BiodLoss: &fault.BiodLoss{
			Client: rng.Intn(clients), At: at, Lose: 1 + rng.Intn(3),
		}}
	case 3:
		return FaultEvent{Kind: fault.KindShardFailover, ShardFailover: &fault.ShardFailover{
			Node: node, To: (node + 1) % servers, At: powerAt, Takeover: rngMS(rng, 20, 100),
		}}
	case 4:
		f := &fault.LinkOutage{
			Train: fault.Train{At: at, Period: rngMS(rng, 200, 500),
				Outage: rngMS(rng, 20, 120), Count: 1 + rng.Intn(2)},
		}
		switch {
		case len(spec.Topology.Media) > 1 && rng.Intn(3) == 0:
			// Sever a whole leaf segment's uplink: every host on it
			// partitions from the fabric at once.
			seg := spec.Topology.Media[1+rng.Intn(len(spec.Topology.Media)-1)].Name
			f.Segment = &seg
		case rng.Intn(2) == 0:
			f.Node = &node
		default:
			cli := rng.Intn(clients)
			f.Client = &cli
		}
		return FaultEvent{Kind: fault.KindLinkOutage, LinkOutage: f}
	case 5:
		from := int64(rng.Intn(2000))
		to := int64(0)
		if rng.Intn(2) == 0 {
			to = from + 1 + int64(rng.Intn(64))
		}
		return FaultEvent{Kind: fault.KindDiskReadError, DiskReadError: &fault.DiskReadError{
			Node: node, Disk: disk, At: at,
			BlockFrom: from, BlockTo: to,
			AfterOps: rng.Intn(4), Times: 1 + rng.Intn(3),
		}}
	case 6:
		return FaultEvent{Kind: fault.KindDiskDegraded, DiskDegraded: &fault.DiskDegraded{
			Node: node, Disk: disk, At: at,
			Duration: rngMS(rng, 50, 400), Factor: 2 + float64(rng.Intn(15)),
		}}
	case 7:
		return FaultEvent{Kind: fault.KindDiskTornWrite, DiskTornWrite: &fault.DiskTornWrite{
			Node: node, Disk: disk, At: at,
		}}
	default:
		return FaultEvent{Kind: fault.KindNVRAMLyingSync, NVRAMLyingSync: &fault.NVRAMLyingSync{
			Node: node, At: at,
		}}
	}
}

// cloneSpec deep-copies a spec (the schema is JSON-complete by
// construction, so a round-trip is exact and alias-free).
func cloneSpec(spec Spec) Spec {
	blob, err := json.Marshal(spec)
	if err != nil {
		panic("scenario: clone marshal: " + err.Error())
	}
	out, err := Decode(blob)
	if err != nil {
		panic("scenario: clone decode: " + err.Error())
	}
	return out
}

// shrinkSpec greedily minimizes a failing spec: each pass proposes
// candidates (drop a cell, drop an event, shorten a train, reduce the
// topology), keeps any candidate that still fails with the same class,
// and repeats to fixpoint or until the run budget is spent. Candidates
// that no longer validate are skipped, so the result is always runnable.
func shrinkSpec(spec Spec, class string, budget int) (Spec, int) {
	runs := 0
	fails := func(cand Spec) bool {
		if runs >= budget || cand.Validate() != nil {
			return false
		}
		runs++
		got, _, _ := checkSpec(cand)
		return got == class
	}
	cur := spec
	for changed := true; changed && runs < budget; {
		changed = false
		// Drop sweep cells.
		for i := 0; i < len(cur.Cells); {
			cand := cloneSpec(cur)
			cand.Cells = append(cand.Cells[:i], cand.Cells[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		// Drop fault events.
		for i := 0; i < len(cur.Faults.Events); {
			cand := cloneSpec(cur)
			cand.Faults.Events = append(cand.Faults.Events[:i], cand.Faults.Events[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		// Shorten trains and rule lifetimes inside surviving events.
		for i := range cur.Faults.Events {
			cand := cloneSpec(cur)
			if simplifyEvent(&cand.Faults.Events[i]) && fails(cand) {
				cur, changed = cand, true
			}
		}
		// Reduce the topology and workload.
		for _, mutate := range []func(*Spec) bool{
			func(s *Spec) bool { return setInt(&s.Topology.Servers.Count, 1) },
			func(s *Spec) bool { return setInt(&s.Topology.Clients[0].Count, 1) },
			func(s *Spec) bool { return setInt(&s.Topology.Servers.StripeDisks, 1) },
			func(s *Spec) bool { return setInt(&s.Topology.Clients[0].Biods, 0) },
			func(s *Spec) bool { return s.Workload.Stream != nil && setInt(&s.Workload.Stream.FileMB, 1) },
			// Open-loop specs shrink toward the most legible load: a
			// fixed-rate arrival clock over a flat population at a low rate.
			func(s *Spec) bool {
				o := s.Workload.Openload
				if o == nil || o.Arrival == ArrivalFixed {
					return false
				}
				o.Arrival = ArrivalFixed
				o.BurstOn, o.BurstOff = 0, 0
				return true
			},
			func(s *Spec) bool {
				o := s.Workload.Openload
				if o == nil || ((o.Population == PopFlat || o.Population == "") && o.ZipfS == 0) {
					return false
				}
				o.Population = PopFlat
				o.ZipfS = 0
				return true
			},
			func(s *Spec) bool {
				o := s.Workload.Openload
				if o == nil || o.TargetOps <= 50 {
					return false
				}
				o.TargetOps = 50
				return true
			},
			func(s *Spec) bool {
				if !s.Topology.Servers.Gathering {
					return false
				}
				s.Topology.Servers.Gathering = false
				return true
			},
			// Collapse a bridged fabric back to the root's flat medium:
			// placements cleared, segment-targeted outages dropped (they
			// have no target without the fabric).
			func(s *Spec) bool {
				if len(s.Topology.Media) == 0 {
					return false
				}
				net := s.Topology.Media[0].Net
				for _, m := range s.Topology.Media {
					if m.Uplink == "" {
						net = m.Net
						break
					}
				}
				s.Topology.Net = net
				s.Topology.Media = nil
				s.Topology.Servers.Segment = ""
				for i := range s.Topology.Clients {
					s.Topology.Clients[i].Segment = ""
				}
				for i := range s.Topology.Servers.Nodes {
					s.Topology.Servers.Nodes[i].Segment = nil
				}
				for i := range s.Cells {
					s.Cells[i].Segments = nil
				}
				kept := s.Faults.Events[:0]
				for _, ev := range s.Faults.Events {
					if ev.Kind == fault.KindLinkOutage && ev.LinkOutage.Segment != nil {
						continue
					}
					kept = append(kept, ev)
				}
				s.Faults.Events = kept
				return true
			},
		} {
			cand := cloneSpec(cur)
			if mutate(&cand) && fails(cand) {
				cur, changed = cand, true
			}
		}
	}
	return cur, runs
}

// setInt lowers *p to v, reporting whether that changed anything.
func setInt(p *int, v int) bool {
	if *p == v {
		return false
	}
	*p = v
	return true
}

// simplifyEvent lowers one event's counts to their minimum, reporting
// whether anything changed.
func simplifyEvent(ev *FaultEvent) bool {
	changed := false
	switch ev.Kind {
	case fault.KindServerCrash:
		changed = setInt(&ev.ServerCrash.Count, 1)
	case fault.KindLinkOutage:
		changed = setInt(&ev.LinkOutage.Count, 1)
	case fault.KindBiodLoss:
		changed = setInt(&ev.BiodLoss.Lose, 1)
	case fault.KindDiskReadError:
		f := ev.DiskReadError
		changed = setInt(&f.Times, 1)
		if f.AfterOps != 0 {
			f.AfterOps = 0
			changed = true
		}
	}
	return changed
}
