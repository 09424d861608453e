package workload

import (
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// testbed builds a minimal FDDI rig for workload tests.
func testbed(t *testing.T, gathering bool) (*sim.Sim, *client.Client, *server.Server) {
	s, _, cli, srv := rig(t, gathering, "server")
	return s, cli, srv
}

// rig is testbed with the server's endpoint named srvName; the client
// always addresses "server".
func rig(t *testing.T, gathering bool, srvName string) (*sim.Sim, *netsim.Network, *client.Client, *server.Server) {
	t.Helper()
	s := sim.New(7)
	n := netsim.New(s, hw.FDDI())
	cpu := sim.NewResource(s, 1)
	costs := hw.DEC3000CPU().Scale(1.8)
	d := disk.New(s, hw.RZ26(), nil)
	dev := server.NewChargedDevice(d, cpu, costs.DriverTrip)
	fs, err := ufs.Format(s, dev, 1, 512, nil)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	cfg := server.Config{Name: srvName, NumNfsds: 8, Costs: costs, CPU: cpu, Gathering: gathering}
	if gathering {
		cfg.Gather = core.DefaultConfig(false, hw.FDDI().Procrastinate)
	}
	srv := server.New(s, n, fs, cfg)
	fs.ChargeMeta = func(p *sim.Proc) { cpu.Use(p, costs.MetaUpdate) }
	cli := client.New(s, n, "c", "server", hw.DEC3000Client(), 4, nil)
	return s, n, cli, srv
}

func TestFileCopyHelper(t *testing.T) {
	s, cli, srv := testbed(t, true)
	var elapsed sim.Duration
	var err error
	s.Spawn("app", func(p *sim.Proc) {
		var cres *nfsproto.DirOpRes
		if cres, err = cli.Create(p, srvRootFH(srv), "f", 0644); err == nil && cres.Status == nfsproto.OK {
			elapsed, err = cli.WriteFile(p, cres.File, 128*1024)
		}
	})
	s.Run(0)
	if err != nil {
		t.Fatalf("copy: %v", err)
	}
	if elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if cli.WriteCounter.Bytes != 128*1024 {
		t.Fatalf("bytes written = %d", cli.WriteCounter.Bytes)
	}
}

func TestFileCopyDuplicateNameFails(t *testing.T) {
	s, cli, srv := testbed(t, false)
	var st1, st2 nfsproto.Status
	var err1, err2 error
	s.Spawn("app", func(p *sim.Proc) {
		var cres *nfsproto.DirOpRes
		if cres, err1 = cli.Create(p, srvRootFH(srv), "dup", 0644); err1 == nil {
			st1 = cres.Status
			_, err1 = cli.WriteFile(p, cres.File, 8192)
		}
		if cres, err2 = cli.Create(p, srvRootFH(srv), "dup", 0644); err2 == nil {
			st2 = cres.Status
		}
	})
	s.Run(0)
	if err1 != nil || st1 != nfsproto.OK {
		t.Fatalf("first copy: %v, %v", st1, err1)
	}
	if err2 == nil && st2 == nfsproto.OK {
		t.Fatal("second create with the same name succeeded")
	}
}

func TestMixSumsTo100(t *testing.T) {
	for name, m := range map[string]Mix{"laddis": LADDISMix(), "metadata": MetadataMix()} {
		sum := 0
		for _, v := range m {
			sum += v
		}
		if sum != 100 {
			t.Fatalf("%s mix sums to %d", name, sum)
		}
	}
	if m := LADDISMix(); m[OpWrite] != 15 {
		t.Fatalf("write share = %d%%, paper says 15%%", m[OpWrite])
	}
}

func TestMixPick(t *testing.T) {
	for name, m := range map[string]Mix{"laddis": LADDISMix(), "metadata": MetadataMix()} {
		var got Mix
		for r := 0; r < 100; r++ {
			got[m.Pick(r)]++
		}
		// Over one full modulus cycle the histogram equals the mix exactly.
		if got != m {
			t.Fatalf("%s: r = 0…99 picks %v, want %v", name, got, m)
		}
	}
}

func TestBurstLenDistribution(t *testing.T) {
	total, weighted := 0, 0
	for r := 0; r < 100; r++ {
		b := burstLen(r)
		if b != 1 && b != 2 && b != 4 && b != 8 {
			t.Fatalf("burstLen(%d) = %d", r, b)
		}
		total++
		weighted += b
	}
	mean := float64(weighted) / float64(total)
	if mean < 2.0 || mean < 1 || mean > 3.2 {
		t.Fatalf("mean burst = %v, want ~2.5", mean)
	}
}

func TestLADDISSetupAndRun(t *testing.T) {
	s, cli, srv := testbed(t, false)
	gen := NewLADDIS(cli, srvRootFH(srv), LADDISConfig{
		Files: 4, FileBlocks: 4, OfferedOpsPerSec: 100, Procs: 2,
		Duration: 2 * sim.Second, Seed: 1,
	})
	var res LADDISResult
	s.Spawn("driver", func(p *sim.Proc) {
		if err := gen.Setup(p); err != nil {
			t.Errorf("Setup: %v", err)
			return
		}
		res = gen.Run(p)
	})
	s.Run(0)
	if res.AchievedOpsPerSec <= 0 {
		t.Fatalf("achieved = %v", res.AchievedOpsPerSec)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d, perOp = %v", res.Errors, res.PerOp)
	}
	if res.AvgLatencyMs <= 0 {
		t.Fatal("no latency measured")
	}
	// The mix should have produced several distinct op types.
	if len(res.PerOp) < 4 {
		t.Fatalf("perOp too narrow: %v", res.PerOp)
	}
}

func TestLADDISGathersWriteBursts(t *testing.T) {
	s, cli, srv := testbed(t, true)
	gen := NewLADDIS(cli, srvRootFH(srv), LADDISConfig{
		Files: 2, FileBlocks: 8, OfferedOpsPerSec: 200, Procs: 2,
		Duration: 2 * sim.Second, Seed: 5,
	})
	s.Spawn("driver", func(p *sim.Proc) {
		if err := gen.Setup(p); err != nil {
			t.Errorf("Setup: %v", err)
			return
		}
		gen.Run(p)
	})
	s.Run(0)
	st := srv.Engine().Stats()
	if st.Writes == 0 {
		t.Fatal("no gathered writes")
	}
	if srv.Engine().PendingReplies() != 0 {
		t.Fatal("descriptors leaked")
	}
	if st.MaxBatch < 2 {
		t.Fatalf("no multi-write gathers formed: %+v", st)
	}
}

func srvRootFH(s *server.Server) [32]byte { return s.RootFH() }
