package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/openload"
	"repro/internal/sim"
	"repro/internal/workload"
)

// kneeTestSpec is a small open-loop sweep bracketing the knee of a
// 2-client, 8-nfsd, 2-disk FDDI rig (measured capacity ~400 ops/s): one
// cell well under it and two cells at 2x and 4x of it.
func kneeTestSpec() Spec {
	return OpenloadSweep(
		OpenloadRig("knee-test", "overload honesty rig", false,
			2, 8, 2, ArrivalPoisson, PopZipf, MixLADDIS, 3*sim.Second, 5151),
		[]float64{100, 800, 1600})
}

// TestOpenloadOverloadHonesty is the open-loop subsystem's core
// regression: past the knee, achieved throughput must plateau (not track
// offered load), the admission path must shed honestly, and the whole
// accounting must be byte-identical at any worker count.
func TestOpenloadOverloadHonesty(t *testing.T) {
	spec := kneeTestSpec()
	seq, err := RunWorkers(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunWorkers(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Cells {
		if !reflect.DeepEqual(seq.Cells[i].Metrics, par.Cells[i].Metrics) {
			t.Errorf("cell %s: -j 1 and -j 4 metrics differ (retransmission storms must be deterministic):\n%+v\n%+v",
				seq.Cells[i].Label, seq.Cells[i].Metrics, par.Cells[i].Metrics)
		}
	}

	cells := map[string]CellResult{}
	for _, c := range seq.Cells {
		cells[c.Label] = c
	}
	under := cells["std-100"]
	if a := under.AchievedOpsPerSec; a < 95 || a > 105 {
		t.Errorf("below the knee achieved %.1f ops/s, want ~100 (open loop must deliver the offered rate)", a)
	}
	if under.ShedArrivals != 0 {
		t.Errorf("below the knee shed %d arrivals", under.ShedArrivals)
	}

	over2, over4 := cells["std-800"], cells["std-1600"]
	for _, c := range []CellResult{over2, over4} {
		if c.AchievedOpsPerSec >= 0.8*c.OfferedOpsPerSec {
			t.Errorf("%s: achieved %.1f tracks offered %.0f past the knee; the loop is not open",
				c.Label, c.AchievedOpsPerSec, c.OfferedOpsPerSec)
		}
		if c.ShedArrivals == 0 {
			t.Errorf("%s: overload shed nothing; admission is not bounded", c.Label)
		}
		if c.PeakQueue != 32 {
			t.Errorf("%s: peak backlog %d, want the 32-slot cap", c.Label, c.PeakQueue)
		}
	}
	// Doubling an already-saturating load must not move the plateau.
	lo, hi := over2.AchievedOpsPerSec, over4.AchievedOpsPerSec
	if hi < 0.75*lo || hi > 1.25*lo {
		t.Errorf("overload plateau not flat: achieved %.1f at 2x knee vs %.1f at 4x", lo, hi)
	}
	// Honest books (every arrival completed, shed or expired) are the
	// engine's to assert, in every open-loop cell: see
	// TestOpenloadLedgerAuditFires.
}

// TestStdAndWgAreOfferedTheSameArrivals is the common-random-numbers
// property the capacity table rests on: a std cell and a wg cell of one
// sweep row are offered the same arrivals, so the rows differ by the
// server alone. A generator draws only on its arrival clock, never on a
// completion, so below the knee, where nothing is shed or expired, every
// client offers and completes the same operations in both builds however
// differently the two servers answer.
func TestStdAndWgAreOfferedTheSameArrivals(t *testing.T) {
	spec := OpenloadSweep(
		OpenloadRig("crn", "common random numbers", false, 2, 8, 2, ArrivalPoisson, PopZipf, MixLADDIS, 3*sim.Second, 5151),
		[]float64{300})
	res := MustRun(spec)
	std, wg := res.Cells[0], res.Cells[1]
	if std.Label != "std-300" || wg.Label != "wg-300" {
		t.Fatalf("cells %q and %q, want std-300 and wg-300", std.Label, wg.Label)
	}
	for _, c := range []CellResult{std, wg} {
		if c.ShedArrivals != 0 || c.ExpiredOps != 0 {
			t.Fatalf("%s shed %d and expired %d arrivals; the row must be below the knee", c.Label, c.ShedArrivals, c.ExpiredOps)
		}
	}
	if wg.GatherBatch == nil || std.P99LatencyMs == wg.P99LatencyMs {
		t.Fatalf("wg gathered %v, p99 %.2f ms against std's %.2f: the two servers must answer differently",
			wg.GatherBatch != nil, wg.P99LatencyMs, std.P99LatencyMs)
	}
	if len(std.OpenloadClients) != 2 || len(wg.OpenloadClients) != 2 {
		t.Fatalf("%d and %d client summaries, want 2 each", len(std.OpenloadClients), len(wg.OpenloadClients))
	}
	for i := range std.OpenloadClients {
		s, w := std.OpenloadClients[i], wg.OpenloadClients[i]
		if s.Offered == 0 || s.Offered != w.Offered || !reflect.DeepEqual(s.PerOp, w.PerOp) {
			t.Errorf("client %d: std offered %d %v, wg offered %d %v; want the same arrivals",
				i, s.Offered, s.PerOp, w.Offered, w.PerOp)
		}
	}
}

// TestOpenloadLedgerAuditFires holds the runner's quiesce identity to
// both sides: an overloaded cell's books, with arrivals shed, balance, and
// a planted violation (one completion that never happened) panics with
// the numbers.
func TestOpenloadLedgerAuditFires(t *testing.T) {
	spec := kneeTestSpec()
	spec.Cells = spec.Cells[len(spec.Cells)-1:]
	spec.Workload.Openload.Measure = sim.Second
	c := MustRun(spec).Cells[0]
	if c.ShedArrivals == 0 {
		t.Fatalf("%s shed nothing; the test wants every term of the ledger", c.Label)
	}
	audit := func(clients []OpenloadClient) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		assertOpenloadLedger(clients)
		return ""
	}
	if msg := audit(c.OpenloadClients); msg != "" {
		t.Fatalf("audit fired on the books the runner just checked: %s", msg)
	}
	planted := append([]OpenloadClient(nil), c.OpenloadClients...)
	oc := &planted[1]
	oc.Completed++
	want := fmt.Sprintf("scenario: open-loop ledger does not balance: client 1 offered %d != completed %d + shed %d + expired %d",
		oc.Offered, oc.Completed, oc.Shed, oc.Expired)
	if msg := audit(planted); msg != want {
		t.Errorf("planted violation: panic %q, want %q", msg, want)
	}
}

// TestOpenloadQueueProbes turns the probe sampler on over one saturating
// cell and checks the overload is visible live: the ol_queue column
// grows monotonically until the backlog first sheds, and ol_offered and
// ol_shed count monotonically.
func TestOpenloadQueueProbes(t *testing.T) {
	spec := OpenloadRig("knee-probes", "probe plane over overload", false,
		2, 8, 2, ArrivalPoisson, PopZipf, MixLADDIS, 2*sim.Second, 5151)
	spec.Observe = &Observe{Probes: true, SampleEvery: 50 * sim.Millisecond}
	load := 1600.0
	spec.Cells = []Cell{{Label: "over", OfferedLoad: &load}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Cells[0].Series
	if s == nil || s.N() == 0 {
		t.Fatal("no probe series collected")
	}
	col := func(name string) int {
		for i, c := range s.Cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("probe column %q missing (got %v)", name, s.Cols)
		return -1
	}
	qi, oi, si := col("ol_queue"), col("ol_offered"), col("ol_shed")
	firstShed := -1
	for i, row := range s.Rows {
		if row[si] > 0 {
			firstShed = i
			break
		}
	}
	if firstShed < 0 {
		t.Fatal("saturating cell never shed; probes cannot show the knee")
	}
	for i := 1; i <= firstShed; i++ {
		if s.Rows[i][qi] < s.Rows[i-1][qi] {
			t.Errorf("queue depth shrank (%.0f -> %.0f) before first shed at sample %d",
				s.Rows[i-1][qi], s.Rows[i][qi], firstShed)
		}
	}
	for i := 1; i < s.N(); i++ {
		if s.Rows[i][oi] < s.Rows[i-1][oi] || s.Rows[i][si] < s.Rows[i-1][si] {
			t.Errorf("ol_offered/ol_shed not monotone at sample %d", i)
		}
	}
	if last := s.Rows[s.N()-1]; last[oi] == 0 {
		t.Error("ol_offered never counted")
	}
}

// TestOpenloadMetadataMixDominatesAttrs runs the metadata-heavy mix and
// checks the op stream is what the spec says: lookup/getattr dominated,
// not the LADDIS read/write balance.
func TestOpenloadMetadataMixDominatesAttrs(t *testing.T) {
	// The metadata mix's creates are sync-metadata-heavy, so this small
	// rig's knee sits far lower than under the LADDIS mix: offer well
	// under it, on a fixed-rate clock so the arrival count is exact.
	spec := OpenloadRig("meta", "metadata-heavy mix", false,
		2, 8, 2, ArrivalFixed, PopFlat, MixMetadata, 2*sim.Second, 99)
	load := 100.0
	spec.Cells = []Cell{{Label: "meta", OfferedLoad: &load}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.AchievedOpsPerSec < 95 {
		t.Fatalf("metadata mix underdelivered: %.1f ops/s", c.AchievedOpsPerSec)
	}
	// The op stream itself must be what the spec named: attr/namespace
	// ops dominate, data ops nearly vanish.
	total, attrs, data := 0, 0, 0
	for _, oc := range c.OpenloadClients {
		for op, n := range oc.PerOp {
			total += n
			switch op {
			case "lookup", "getattr", "create", "remove", "readdir", "setattr", "statfs":
				attrs += n
			case "read", "write":
				data += n
			}
		}
	}
	if total == 0 {
		t.Fatal("no per-op accounting")
	}
	if share := float64(attrs) / float64(total); share < 0.85 {
		t.Errorf("metadata mix attr/namespace share = %.2f, want >= 0.85", share)
	}
	if share := float64(data) / float64(total); share > 0.12 {
		t.Errorf("metadata mix data-op share = %.2f, want <= 0.12", share)
	}
}

// TestOpenloadValidation pins the typed validation errors: closed
// vocabularies name the known kinds, and every failure is a
// *ValidationError with a usable field path.
func TestOpenloadValidation(t *testing.T) {
	base := func() Spec {
		return OpenloadRig("v", "validation", false, 1, 4, 1,
			ArrivalPoisson, PopZipf, MixLADDIS, sim.Second, 1)
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		field   string
		mention string
	}{
		{"no target", func(s *Spec) { s.Workload.Openload.TargetOps = 0 },
			"workload.openload.target_ops", "offered_load"},
		{"bad arrival", func(s *Spec) { o(s).Arrival = "fractal"; o(s).TargetOps = 100 },
			"workload.openload.arrival", `"poisson"`},
		{"bad mix", func(s *Spec) { o(s).Mix = "scientific"; o(s).TargetOps = 100 },
			"workload.openload.mix", `"metadata"`},
		{"bad population", func(s *Spec) { o(s).Population = "normal"; o(s).TargetOps = 100 },
			"workload.openload.population", `"zipf"`},
		{"negative zipf", func(s *Spec) { o(s).ZipfS = -1; o(s).TargetOps = 100 },
			"workload.openload.zipf_s", "negative"},
		{"zipf_s without zipf", func(s *Spec) { o(s).Population = PopFlat; o(s).ZipfS = 1.1; o(s).TargetOps = 100 },
			"workload.openload.zipf_s", `"zipf"`},
		{"no measure", func(s *Spec) { o(s).Measure = 0; o(s).TargetOps = 100 },
			"workload.openload.measure_ns", "positive"},
		{"negative window", func(s *Spec) { o(s).Window = -1; o(s).TargetOps = 100 },
			"workload.openload", "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *ValidationError: %v", err, err)
			}
			if ve.Field != tc.field {
				t.Errorf("field = %q, want %q", ve.Field, tc.field)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.mention)
			}
		})
	}
}

// o is shorthand for a spec's openload section in the validation table.
func o(s *Spec) *OpenloadWorkload { return s.Workload.Openload }

// TestReplayFieldIsUnknown: the open-loop workload has no replay mode, so
// a spec file that still carries "replay" fails Decode on the unknown
// field instead of running the synthetic arrival process in its place.
func TestReplayFieldIsUnknown(t *testing.T) {
	blob := []byte(`{"name": "v", "workload": {"kind": "openload", "openload":
		{"target_ops": 100, "measure_ns": 1000000, "replay": {"file": "ops.json"}}}}`)
	_, err := Decode(blob)
	if err == nil || !strings.Contains(err.Error(), `unknown field "replay"`) {
		t.Fatalf("Decode = %v, want an unknown-field error naming replay", err)
	}
	if _, err := Decode(bytes.Replace(blob, []byte(`, "replay": {"file": "ops.json"}`), nil, 1)); err != nil {
		t.Fatalf("the same spec without replay: %v", err)
	}
}

// smokeCell runs the scaled-down bridgedsat shape the set-up tests share:
// three Ethernet leaves of two clients each, open-loop over a bridged FDDI
// core, 64 files of four blocks.
func smokeCell(t *testing.T) (Spec, CellResult) {
	t.Helper()
	spec := OpenloadBridged("bridgedsat-smoke", "scaled-down bridged saturation",
		3, 2, 8, 1, 300, sim.Second, 12)
	spec.Cells = []Cell{BridgedCell(spec.Seed, 3, false)}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res.Cells[0]
}

// TestBridgedSatSmoke checks placement, per-segment accounting and
// throughput all engage on the smoke shape, and that what the cell reports
// is the measured window's: set-up is silent, so a light cell's leaf
// traffic is its operations' and nothing else.
func TestBridgedSatSmoke(t *testing.T) {
	_, c := smokeCell(t)
	if c.AchievedOpsPerSec <= 0 {
		t.Fatal("bridged open-loop cell achieved nothing")
	}
	if len(c.OpenloadClients) != 6 {
		t.Fatalf("got %d openload clients, want 6", len(c.OpenloadClients))
	}
	if len(c.Segments) != 4 {
		t.Fatalf("got %d segment stats, want core + 3 leaves", len(c.Segments))
	}
	var leafTraffic, completed uint64
	for _, sg := range c.Segments {
		if sg.Name != "core" {
			leafTraffic += sg.Datagrams
		}
	}
	for _, oc := range c.OpenloadClients {
		completed += oc.Completed
	}
	// A call and its reply each cross one leaf, and a CREATE is followed by
	// its REMOVE: two to three datagrams per completed op, after the two of
	// the cell's closing check. Fewer means placement did not engage; more
	// would be set-up traffic, which the wire set-up used to leave in every
	// lifetime counter.
	leafTraffic -= 2
	if leafTraffic < 2*completed || leafTraffic > 3*completed {
		t.Errorf("leaf segments carried %d datagrams for %d completed ops; want 2 to 3 per op", leafTraffic, completed)
	}
	if c.Retransmissions != 0 || c.BridgeDrops != 0 {
		t.Errorf("light cell reports %d retransmissions and %d bridge drops", c.Retransmissions, c.BridgeDrops)
	}
}

// TestFuzzGeneratesOpenloadSpecs pins the fuzzer's open-loop coverage:
// the generator must emit openload workloads across every arrival kind,
// and any fault it schedules on one must land past the 20s setup
// barrier so it hits the measured phase rather than the idle build.
func TestFuzzGeneratesOpenloadSpecs(t *testing.T) {
	arrivals := map[string]int{}
	withEvents := 0
	for i := 0; i < 200; i++ {
		rng := rand.New(rand.NewSource(2_000_003 + int64(i)))
		spec := genSpec(rng, i)
		if spec.Workload.Kind != KindOpenload {
			continue
		}
		arrivals[spec.Workload.Openload.Arrival]++
		if len(spec.Faults.Events) > 0 {
			withEvents++
		}
		for j, ev := range spec.Faults.Events {
			if at := ev.Fault().Start(); at < 20*sim.Second {
				t.Errorf("run %d event %d (%s): at %v, before the 20s setup barrier", i, j, ev.Kind, at)
			}
		}
	}
	for _, kind := range []string{ArrivalFixed, ArrivalPoisson, ArrivalBursty} {
		if arrivals[kind] == 0 {
			t.Errorf("200 generated specs, no openload spec with arrival %q", kind)
		}
	}
	if withEvents == 0 {
		t.Error("200 generated specs, no openload spec carrying fault events")
	}
	t.Logf("fuzz coverage: arrivals %v, %d openload specs with faults", arrivals, withEvents)
}

// TestProcessesDoNotScaleWithClients counts the coroutines an open-loop
// cell of 1,000 clients on 10 bridged segments starts. A client's reply
// demultiplexer, a bridge port's router, a generator's arrival clock and
// an admitted operation never block mid-stack, so none of them is a
// process: the count is bounded by the nfsds and the bridges'
// transmitters, plus a few of the harness's own (the image builder, the
// closing check) — not by the number of clients, two per client when the
// first three were processes, nor by the operations in flight, one each
// when an operation was a process. It counts and never times, so it
// cannot flake.
func TestProcessesDoNotScaleWithClients(t *testing.T) {
	const segments, perSegment, harness = 10, 100, 4
	spec := OpenloadBridged("carriers", "processes against clients", segments, perSegment, 8, 1, 100, sim.Second, 12)
	spec.Cells = []Cell{BridgedCell(spec.Seed, segments, false)}
	c := MustRun(spec).Cells[0]
	inFlight := 0 // the clients' peaks summed: at least the cell's peak
	for _, oc := range c.OpenloadClients {
		inFlight += oc.PeakInFlight
	}
	txPorts := 2 * segments // one uplink bridge per leaf, two ports each
	bound := spec.Topology.Servers.Nfsds + txPorts + harness
	t.Logf("%d clients: %d coroutines, %d switches; %d ops in flight at the clients' peaks, bound %d",
		segments*perSegment, c.Carriers, c.Switches, inFlight, bound)
	if inFlight == 0 {
		t.Fatal("no operation was ever in flight")
	}
	if c.Carriers > bound {
		t.Errorf("%d clients started %d coroutines, more than %d nfsds + %d transmitters + %d",
			segments*perSegment, c.Carriers, spec.Topology.Servers.Nfsds, txPorts, harness)
	}
}

// TestClientSetupFootprint bounds the heap an open-loop client costs at
// three points: set up (the cluster's client, its generator and the
// cell's slot for its result, as runOpenload builds them), started (what
// Gen.Start adds: the arrival stream, the backlog and the clock's first
// event) and served (what a start and one completed operation, a
// GETATTR, leave behind: besides the start's share, the latency
// histogram's one bucket, the result's per-op counts, the boot verifier
// and the server's dup-cache record of the call). Each is the slope of
// the live heap between 100 and 1,000 clients on the same 10 bridged
// segments, so the server, its disks, the fabric and the cell's pools of
// pending-call and op records drop out. A client cost 8.9 KB before
// its start when the client's, the generator's and the copied result's
// histograms were three fixed 2 KB bucket arrays, and a start 5.7 KB with
// a math/rand source for the arrival stream. A served client held 2,079
// bytes when each client pooled its own pending-call record and op
// record, kept its latency histogram as every bucket from 0 up to its
// sample's, and kept its pending calls, boot verifiers and per-op counts
// in maps. A set-up client cost 2,138 bytes while it carried its own six
// result decode records, which the cell's CallPool now holds once.
func TestClientSetupFootprint(t *testing.T) {
	const segments = 10
	const setUpBound, startBound, servedBound = 2273, 235, 893 // measured 1,803–1,818, 187–188 and 708–714 bytes per client, + 25 %
	resolve := func(perSegment int) *resolved {
		spec := OpenloadBridged("footprint", "heap against clients", segments, perSegment, 8, 1, 100, sim.Second, 12)
		spec.Cells = []Cell{BridgedCell(spec.Seed, segments, false)}
		return resolveAll(t, spec)[0]
	}
	build := func(rc *resolved) (*cluster.Cluster, *openload.Population) {
		c := cluster.New(rc.cfg)
		w := rc.open
		pop, err := openload.NewPopulation(w.Files, w.FileBlocks, w.Population, w.ZipfS, c.Roots())
		if err != nil {
			t.Fatal(err)
		}
		return c, pop
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	heap := func(perSegment int) (setUp, started uint64, clients int) {
		rc := resolve(perSegment)
		before := live()
		c, pop := build(rc)
		defer c.Sim.Close()
		w := rc.open
		gens := make([]*openload.Gen, len(c.Clients))
		results := make([]*openload.Result, len(c.Clients))
		for i, cli := range c.Clients {
			gens[i] = openload.NewGen(cli, pop, openload.Config{Arrival: w.Arrival, Rate: w.TargetOps / float64(len(c.Clients)),
				Measure: w.Measure, Seed: w.Seed + int64(i)})
		}
		built := live()
		for i, g := range gens {
			if err := g.Start(c.Sim, func(res *openload.Result) { results[i] = res }); err != nil {
				t.Fatal(err)
			}
		}
		after := live()
		runtime.KeepAlive(gens)
		runtime.KeepAlive(results)
		return built - before, after - built, len(c.Clients)
	}
	// served starts every generator of a populated cell for one arrival
	// each, a GETATTR, and reports what the cell holds once all have
	// settled over what it held before the starts.
	served := func(perSegment int) uint64 {
		rc := resolve(perSegment)
		c, pop := build(rc)
		defer c.Sim.Close()
		w := rc.open
		gens := make([]*openload.Gen, len(c.Clients))
		results := make([]*openload.Result, len(c.Clients))
		for i, cli := range c.Clients {
			gens[i] = openload.NewGen(cli, pop, openload.Config{Arrival: openload.ArrivalFixed, Rate: 1 / w.Measure.Seconds(),
				Mix: workload.Mix{workload.OpGetattr: 100}, Measure: w.Measure, Seed: w.Seed + int64(i)})
		}
		c.Sim.Spawn("populate", func(p *sim.Proc) {
			if err := pop.Populate(p, c.FSByFSID, gens); err != nil {
				t.Error(err)
			}
		})
		c.Sim.Run(0)
		ready := live()
		for i, g := range gens {
			if err := g.Start(c.Sim, func(res *openload.Result) { results[i] = res }); err != nil {
				t.Fatal(err)
			}
		}
		c.Sim.Run(0)
		done := live()
		for i, res := range results {
			if res == nil || res.Completed != 1 || res.Lat.N() != 1 {
				t.Fatalf("client %d: %+v, want one completed operation", i, res)
			}
		}
		runtime.KeepAlive(gens)
		return done - ready
	}
	setUp0, started0, n0 := heap(10)
	setUp1, started1, n1 := heap(100)
	served0, served1 := served(10), served(100)
	slope := func(a, b uint64) float64 { return (float64(b) - float64(a)) / float64(n1-n0) }
	perSetUp, perStart, perServed := slope(setUp0, setUp1), slope(started0, started1), slope(served0, served1)
	t.Logf("%d clients: %d bytes set up, %d more started, %d started and served; %d clients: %d, %d and %d; per client %.0f, %.0f and %.0f bytes",
		n0, setUp0, started0, served0, n1, setUp1, started1, served1, perSetUp, perStart, perServed)
	if perSetUp > setUpBound {
		t.Errorf("an open-loop client costs %.0f bytes before its generator starts, more than %d", perSetUp, setUpBound)
	}
	if perStart > startBound {
		t.Errorf("starting an open-loop generator costs %.0f bytes, more than %d", perStart, startBound)
	}
	if perServed > servedBound {
		t.Errorf("a started open-loop client holds %.0f bytes once its first operation has completed, more than %d", perServed, servedBound)
	}
}

// TestClosedLoopProcessesDoNotScaleWithProcs is the closed loop's twin:
// a LADDIS generator and its write bursts are At chains and callback
// RPCs, so a cell starts the same coroutines with 4 generators per client
// as with 64. It used to park Procs generators and Procs × 8 burst
// writers per client for the whole run.
func TestClosedLoopProcessesDoNotScaleWithProcs(t *testing.T) {
	carriers := map[int]int{}
	for _, procs := range []int{4, 64} {
		spec := LADDISRig("procs", "generators against coroutines", false, 4, procs, 8, 2, sim.Second, 7)
		spec.Cells = []Cell{LADDISCell(spec.Seed, 400, false)}
		c := MustRun(spec).Cells[0]
		if c.AchievedOpsPerSec == 0 {
			t.Fatalf("Procs %d: no operation completed", procs)
		}
		carriers[procs] = c.Carriers
		t.Logf("Procs %d: %.0f ops/s, %d coroutines, %d switches", procs, c.AchievedOpsPerSec, c.Carriers, c.Switches)
	}
	if carriers[4] != carriers[64] {
		t.Errorf("coroutines started: %d at Procs 4, %d at Procs 64; want them equal", carriers[4], carriers[64])
	}
}
