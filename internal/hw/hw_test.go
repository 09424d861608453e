package hw

import (
	"testing"

	"repro/internal/sim"
)

func TestRZ26Plausibility(t *testing.T) {
	d := RZ26()
	if d.BlockSize != 8192 {
		t.Fatalf("BlockSize = %d", d.BlockSize)
	}
	if d.NumBlocks*int64(d.BlockSize) < 1<<30 {
		t.Fatal("RZ26 smaller than 1GB")
	}
	if d.AvgSeek <= d.TrackSeek {
		t.Fatal("average seek not larger than track seek")
	}
	// 5400 RPM -> ~11.1ms rotation.
	if d.RotationTime < 11*sim.Millisecond || d.RotationTime > 12*sim.Millisecond {
		t.Fatalf("RotationTime = %v", d.RotationTime)
	}
}

func TestNetworksOrdering(t *testing.T) {
	e, f := Ethernet(), FDDI()
	if f.BandwidthKBps <= e.BandwidthKBps {
		t.Fatal("FDDI not faster than Ethernet")
	}
	if f.MTU <= e.MTU {
		t.Fatal("FDDI MTU not larger")
	}
	// The paper's procrastination intervals: ~8ms Ethernet, ~5ms FDDI.
	if e.Procrastinate != 8*sim.Millisecond {
		t.Fatalf("Ethernet procrastinate = %v", e.Procrastinate)
	}
	if f.Procrastinate != 5*sim.Millisecond {
		t.Fatalf("FDDI procrastinate = %v", f.Procrastinate)
	}
}

func TestCPUScale(t *testing.T) {
	base := DEC3000CPU()
	fast := base.Scale(2)
	if fast.VopWriteData != base.VopWriteData/2 {
		t.Fatalf("Scale: %v vs %v", fast.VopWriteData, base.VopWriteData)
	}
	if fast.PerFragment >= base.PerFragment {
		t.Fatal("Scale did not reduce PerFragment")
	}
	faster := DEC3000CPU().Scale(1.8)
	if faster.RPCDispatch >= base.RPCDispatch {
		t.Fatal("DEC3800 not faster than DEC3000")
	}
}

func TestPrestoserveRules(t *testing.T) {
	p := Prestoserve()
	if p.MaxIO != 8192 {
		t.Fatalf("MaxIO = %d; the paper's decline threshold is 8K", p.MaxIO)
	}
	if p.CacheBytes != 1<<20 {
		t.Fatalf("CacheBytes = %d; the board is 1MB", p.CacheBytes)
	}
	if p.HiWater >= p.CacheBytes {
		t.Fatal("HiWater above capacity")
	}
	if p.DrainCluster < 64*1024 {
		t.Fatalf("DrainCluster = %d", p.DrainCluster)
	}
}

func TestClientRetransDefaults(t *testing.T) {
	c := DEC3000Client()
	// "a starting value of 1.1 seconds" (§4.1).
	if c.RetransTimeout != 1100*sim.Millisecond {
		t.Fatalf("RetransTimeout = %v", c.RetransTimeout)
	}
	if c.RetransMax <= c.RetransTimeout {
		t.Fatal("RetransMax not larger than initial timeout")
	}
}
