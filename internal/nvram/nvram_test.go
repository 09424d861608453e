package nvram

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
)

func rig(seed int64) (*sim.Sim, *Presto, *disk.Disk) {
	s := sim.New(seed)
	d := disk.New(s, hw.RZ26(), nil)
	pr := New(s, hw.Prestoserve(), d, nil)
	return s, pr, d
}

func TestAcceptedWriteIsFastAndDurable(t *testing.T) {
	s, pr, d := rig(1)
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i)
	}
	var lat sim.Duration
	s.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		pr.WriteBlocks(p, 500, data)
		lat = p.Now().Sub(start)
	})
	s.Run(0)
	if lat > sim.Millisecond {
		t.Fatalf("NVRAM write latency %v, want sub-millisecond", lat)
	}
	if pr.Accepted != 1 || pr.Declined != 0 {
		t.Fatalf("accepted=%d declined=%d", pr.Accepted, pr.Declined)
	}
	// Drainer must have pushed it to the platters by the end of the run.
	if !bytes.Equal(d.PeekBlock(500), data) {
		t.Fatal("drained block content mismatch")
	}
}

func TestLargeWriteDeclinedToDisk(t *testing.T) {
	s, pr, d := rig(1)
	data := make([]byte, 64*1024)
	var lat sim.Duration
	s.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		pr.WriteBlocks(p, 100, data)
		lat = p.Now().Sub(start)
	})
	s.Run(0)
	if pr.Declined != 1 {
		t.Fatalf("declined = %d, want 1", pr.Declined)
	}
	if lat < 5*sim.Millisecond {
		t.Fatalf("declined write completed at NVRAM speed: %v", lat)
	}
	if d.Stats().Writes != 1 {
		t.Fatalf("disk writes = %d", d.Stats().Writes)
	}
}

func TestReadHitsNVRAM(t *testing.T) {
	s, pr, _ := rig(1)
	data := make([]byte, 8192)
	data[0] = 0x5A
	var got []byte
	var lat sim.Duration
	s.Spawn("w", func(p *sim.Proc) {
		pr.WriteBlocks(p, 7, data)
		got = make([]byte, 8192)
		start := p.Now()
		pr.ReadBlocks(p, 7, got)
		lat = p.Now().Sub(start)
	})
	s.Run(0)
	if got[0] != 0x5A {
		t.Fatal("read did not see NVRAM content")
	}
	if lat > sim.Millisecond {
		t.Fatalf("NVRAM read hit took %v", lat)
	}
}

func TestReadMissGoesToDisk(t *testing.T) {
	s, pr, d := rig(1)
	data := make([]byte, 8192)
	data[9] = 0x77
	d.InjectBlock(33, data)
	var got []byte
	s.Spawn("r", func(p *sim.Proc) {
		got = make([]byte, 8192)
		pr.ReadBlocks(p, 33, got)
	})
	s.Run(0)
	if got[9] != 0x77 {
		t.Fatal("read miss did not reach disk")
	}
}

func TestCacheFullBlocksWriter(t *testing.T) {
	s := sim.New(1)
	d := disk.New(s, hw.RZ26(), nil)
	params := hw.Prestoserve()
	params.CacheBytes = 4 * 8192 // tiny board
	pr := New(s, params, d, nil)
	var done sim.Time
	s.Spawn("w", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		for i := 0; i < 16; i++ {
			pr.WriteBlocks(p, int64(i*10), buf) // non-contiguous: no drain clustering
		}
		done = p.Now()
	})
	s.Run(0)
	// 16 writes through a 4-block board must wait for drains: the run
	// cannot complete at pure NVRAM speed (16 * ~0.3ms).
	if done < sim.Time(20*sim.Millisecond) {
		t.Fatalf("writer never blocked on full NVRAM: done at %v", done)
	}
	if pr.CacheUsed() != 0 {
		// Drainer keeps going after the writer finishes.
		s.Run(0)
	}
}

func TestOverwriteReusesSpace(t *testing.T) {
	s, pr, _ := rig(1)
	s.Spawn("w", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		pr.WriteBlocks(p, 5, buf)
		used := pr.CacheUsed()
		pr.WriteBlocks(p, 5, buf)
		if pr.CacheUsed() > used {
			t.Error("overwrite of dirty block grew NVRAM usage")
		}
	})
	s.Run(0)
}

func TestDrainClusters(t *testing.T) {
	s, pr, d := rig(1)
	s.Spawn("w", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		// 8 contiguous blocks land before the drainer can issue them all
		// individually; most should coalesce.
		for i := 0; i < 8; i++ {
			pr.WriteBlocks(p, int64(100+i), buf)
		}
	})
	s.Run(0)
	if d.Stats().Writes >= 8 {
		t.Fatalf("drain did not cluster: %d disk writes for 8 contiguous blocks", d.Stats().Writes)
	}
	if d.Stats().WriteBytes != 8*8192 {
		t.Fatalf("drained bytes = %d", d.Stats().WriteBytes)
	}
}

func TestFlushEmptiesCache(t *testing.T) {
	s, pr, _ := rig(1)
	s.Spawn("w", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		for i := 0; i < 5; i++ {
			pr.WriteBlocks(p, int64(i*3), buf)
		}
		pr.Flush(p)
		if pr.CacheUsed() != 0 {
			t.Errorf("CacheUsed = %d after Flush", pr.CacheUsed())
		}
	})
	s.Run(0)
}

func TestRecoverToFlushesDirtyBlocks(t *testing.T) {
	// Simulate a crash with data still in NVRAM: Recover to the disk must place it
	// on the platters, which is what makes NVRAM count as stable storage.
	s := sim.New(1)
	d := disk.New(s, hw.RZ26(), nil)
	params := hw.Prestoserve()
	pr := New(s, params, d, nil)
	data := make([]byte, 8192)
	data[100] = 0xCC
	s.Spawn("w", func(p *sim.Proc) {
		pr.WriteBlocks(p, 77, data)
		// Crash immediately: stop the world before the drainer runs.
		pr.Stop()
	})
	s.Run(sim.Time(400 * sim.Microsecond)) // not enough time for a disk op
	if !bytes.Equal(d.PeekBlock(77), data) {
		n := pr.Recover(d)
		if n == 0 {
			t.Fatal("nothing to recover but platters lack the data")
		}
	}
	if got := d.PeekBlock(77); got[100] != 0xCC {
		t.Fatal("recovery did not restore NVRAM contents to disk")
	}
}

func TestStatsCount(t *testing.T) {
	s, pr, _ := rig(1)
	s.Spawn("w", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		pr.WriteBlocks(p, 1, buf)
		pr.ReadBlocks(p, 1, buf)
	})
	s.Run(0)
	if pr.Stats().Writes != 1 || pr.Stats().Reads != 1 {
		t.Fatalf("stats = %+v", pr.Stats())
	}
}
