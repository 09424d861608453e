package disk

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/sim"
)

func testDisk(s *sim.Sim) *Disk {
	return New(s, hw.RZ26(), nil)
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got []byte
	s.Spawn("io", func(p *sim.Proc) {
		d.WriteBlocks(p, 100, data)
		got = make([]byte, 8192)
		d.ReadBlocks(p, 100, got)
	})
	s.Run(0)
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	if d.Stats().Writes != 1 || d.Stats().Reads != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	var got []byte
	s.Spawn("io", func(p *sim.Proc) {
		got = make([]byte, 8192)
		got[0] = 0xFF
		d.ReadBlocks(p, 55, got)
	})
	s.Run(0)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestMultiBlockTransfer(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	data := make([]byte, 8*8192) // 64K cluster
	for i := range data {
		data[i] = byte(i)
	}
	var got []byte
	s.Spawn("io", func(p *sim.Proc) {
		d.WriteBlocks(p, 200, data)
		got = make([]byte, len(data))
		d.ReadBlocks(p, 200, got)
	})
	s.Run(0)
	if !bytes.Equal(got, data) {
		t.Fatal("64K round trip mismatch")
	}
	if d.Stats().Writes != 1 {
		t.Fatalf("cluster counted as %d transactions, want 1", d.Stats().Writes)
	}
}

func TestServiceTimeScalesWithSize(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	var t8k, t64k sim.Duration
	s.Spawn("io", func(p *sim.Proc) {
		// Same position both times so seek/rotation contributions use the
		// same RNG distribution; measure with a fresh position each time.
		start := p.Now()
		d.WriteBlocks(p, 1000, make([]byte, 8192))
		t8k = p.Now().Sub(start)
		start = p.Now()
		d.WriteBlocks(p, 50000, make([]byte, 64*1024))
		t64k = p.Now().Sub(start)
	})
	s.Run(0)
	// 64K moves 8x the data; the transfer component alone adds ~21ms at
	// 2.6MB/s, so the larger transfer must take longer.
	if t64k <= t8k {
		t.Fatalf("64K (%v) not slower than 8K (%v)", t64k, t8k)
	}
	// But not 8x longer: fixed costs amortize. This is the entire point of
	// clustering.
	if float64(t64k) > 7.9*float64(t8k) {
		t.Fatalf("no fixed-cost amortization: 8K %v vs 64K %v", t8k, t64k)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	s := sim.New(2)
	d := testDisk(s)
	var seqTime, rndTime sim.Duration
	s.Spawn("io", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		start := p.Now()
		for i := 0; i < 50; i++ {
			d.WriteBlocks(p, int64(3000+i), buf)
		}
		seqTime = p.Now().Sub(start)
		start = p.Now()
		for i := 0; i < 50; i++ {
			d.WriteBlocks(p, int64((i*37)%100000), buf)
		}
		rndTime = p.Now().Sub(start)
	})
	s.Run(0)
	if seqTime >= rndTime {
		t.Fatalf("sequential (%v) not faster than random (%v)", seqTime, rndTime)
	}
}

func TestQueueSerializesRequests(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	finished := 0
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn("io", func(p *sim.Proc) {
			d.WriteBlocks(p, int64(1000*i), make([]byte, 8192))
			finished++
		})
	}
	end := s.Run(0)
	if finished != 4 {
		t.Fatalf("finished = %d", finished)
	}
	// Four serialized ops must take at least 4x a minimal service time.
	if end < sim.Time(4*2*sim.Millisecond) {
		t.Fatalf("4 ops finished suspiciously fast: %v", end)
	}
}

func TestUnalignedTransferPanics(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	panicked := false
	s.Spawn("io", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		d.WriteBlocks(p, 0, make([]byte, 100))
	})
	s.Run(0)
	if !panicked {
		t.Fatal("unaligned write did not panic")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	panicked := false
	s.Spawn("io", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		d.WriteBlocks(p, d.NumBlocks(), make([]byte, 8192))
	})
	s.Run(0)
	if !panicked {
		t.Fatal("out-of-range write did not panic")
	}
}

func TestPeekAndInject(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	data := make([]byte, 8192)
	data[17] = 0xAB
	d.InjectBlock(42, data)
	got := d.PeekBlock(42)
	if got[17] != 0xAB {
		t.Fatal("inject/peek mismatch")
	}
	if d.Stats().Trans() != 0 {
		t.Fatal("peek/inject counted as transactions")
	}
}

func newStripe(s *sim.Sim, n int) (*Stripe, []*Disk) {
	members := make([]*Disk, n)
	for i := range members {
		members[i] = New(s, hw.RZ26(), nil)
	}
	return NewStripe(s, members, 8), members
}

func TestStripeRoundTrip(t *testing.T) {
	s := sim.New(1)
	st, _ := newStripe(s, 3)
	data := make([]byte, 24*8192)
	for i := range data {
		data[i] = byte(i * 13)
	}
	var got []byte
	s.Spawn("io", func(p *sim.Proc) {
		st.WriteBlocks(p, 16, data)
		got = make([]byte, len(data))
		st.ReadBlocks(p, 16, got)
	})
	s.Run(0)
	if !bytes.Equal(got, data) {
		t.Fatal("stripe round trip mismatch")
	}
}

func TestStripeQuickRoundTrip(t *testing.T) {
	f := func(seed int64, blkRaw uint16, nBlocksRaw uint8, fill byte) bool {
		s := sim.New(seed)
		st, _ := newStripe(s, 3)
		blk := int64(blkRaw % 1000)
		n := int(nBlocksRaw%16) + 1
		data := make([]byte, n*8192)
		for i := range data {
			data[i] = fill ^ byte(i)
		}
		ok := false
		s.Spawn("io", func(p *sim.Proc) {
			st.WriteBlocks(p, blk, data)
			got := make([]byte, len(data))
			st.ReadBlocks(p, blk, got)
			ok = bytes.Equal(got, data)
		})
		s.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeParallelism(t *testing.T) {
	// A 24-block write spanning 3 members should complete in roughly the
	// time of one 8-block member write, not three.
	sOne := sim.New(1)
	single := New(sOne, hw.RZ26(), nil)
	var tSingle sim.Duration
	sOne.Spawn("io", func(p *sim.Proc) {
		start := p.Now()
		single.WriteBlocks(p, 0, make([]byte, 24*8192))
		tSingle = p.Now().Sub(start)
	})
	sOne.Run(0)

	sStr := sim.New(1)
	st, _ := newStripe(sStr, 3)
	var tStripe sim.Duration
	sStr.Spawn("io", func(p *sim.Proc) {
		start := p.Now()
		st.WriteBlocks(p, 0, make([]byte, 24*8192))
		tStripe = p.Now().Sub(start)
	})
	sStr.Run(0)
	if float64(tStripe) > 0.8*float64(tSingle) {
		t.Fatalf("stripe write (%v) not meaningfully faster than single disk (%v)", tStripe, tSingle)
	}
}

func TestStripeMapping(t *testing.T) {
	s := sim.New(1)
	st, members := newStripe(s, 3)
	// Write three consecutive stripe units; each should land on a
	// different member.
	s.Spawn("io", func(p *sim.Proc) {
		for u := int64(0); u < 3; u++ {
			st.WriteBlocks(p, u*8, make([]byte, 8*8192))
		}
	})
	s.Run(0)
	for i, m := range members {
		if m.Stats().Writes != 1 {
			t.Fatalf("member %d has %d writes, want 1", i, m.Stats().Writes)
		}
	}
}

func TestStripeMemberAggregates(t *testing.T) {
	s := sim.New(1)
	st, members := newStripe(s, 3)
	s.Spawn("io", func(p *sim.Proc) {
		st.WriteBlocks(p, 0, make([]byte, 24*8192))
	})
	s.Run(0)
	var trans, bytes uint64
	for _, m := range members {
		trans += m.Stats().Trans()
		bytes += m.Stats().Bytes()
	}
	if trans != 3 {
		t.Fatalf("member transactions = %d, want 3", trans)
	}
	if bytes != 24*8192 {
		t.Fatalf("member bytes = %d", bytes)
	}
	if st.Stats().Writes != 1 {
		t.Fatalf("logical writes = %d, want 1", st.Stats().Writes)
	}
}

func TestStatsInterval(t *testing.T) {
	s := sim.New(1)
	d := testDisk(s)
	var mark Stats
	s.Spawn("io", func(p *sim.Proc) {
		d.WriteBlocks(p, 0, make([]byte, 8192))
		mark = *d.Stats()
		d.WriteBlocks(p, 8, make([]byte, 8192))
		d.WriteBlocks(p, 16, make([]byte, 8192))
	})
	s.Run(0)
	if n := d.Stats().Trans() - mark.Trans(); n != 2 {
		t.Fatalf("interval transactions = %d, want 2", n)
	}
	if n := d.Stats().Bytes() - mark.Bytes(); n != 2*8192 {
		t.Fatalf("interval bytes = %d", n)
	}
	if d.Stats().Trans() != 3 {
		t.Fatalf("total Trans = %d, want 3", d.Stats().Trans())
	}
}

// TestPlatterRewriteAllocs: once a block's page of the platter store
// exists, rewriting a block allocates nothing, on the by-reference path
// (WriteBufs) and the copying one (WriteBlocks).
func TestPlatterRewriteAllocs(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	d := testDisk(s)
	pool := block.NewAccounting().NewPool()
	b := pool.Get()
	defer b.Release()
	run := []*block.Buf{b}
	raw := make([]byte, 8192)
	var byRef, byCopy float64
	s.Spawn("io", func(p *sim.Proc) {
		// Make the page, and the platter's own buffers the copying path
		// writes into.
		for blk := int64(700); blk < 708; blk++ {
			d.WriteBufs(p, blk, run)
			d.WriteBlocks(p, blk, raw)
		}
		blk := int64(700)
		byRef = testing.AllocsPerRun(50, func() {
			blk = 700 + (blk+1)%8
			d.WriteBufs(p, blk, run)
		})
		byCopy = testing.AllocsPerRun(50, func() {
			blk = 700 + (blk+1)%8
			d.WriteBlocks(p, blk, raw)
		})
	})
	s.Run(0)
	if byRef != 0 || byCopy != 0 {
		t.Fatalf("platter rewrite allocates %.1f (WriteBufs) and %.1f (WriteBlocks) objects, want 0", byRef, byCopy)
	}
	if n := d.StoredBufs(); n != 8 {
		t.Fatalf("StoredBufs = %d after rewriting 8 blocks, want 8", n)
	}
}

// TestStripeFanOutAllocs: once a stripe has run a multi-segment transfer,
// the next allocates nothing on any of the three paths. The fan-out record
// comes from the stripe's pool, its helpers' Proc records from the
// kernel's, and their coroutines from the idle carriers.
func TestStripeFanOutAllocs(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	st, members := newStripe(s, 3)
	pool := block.NewAccounting().NewPool()
	bufs := make([]*block.Buf, 24) // three stripe units, one per member
	for i := range bufs {
		bufs[i] = pool.Get()
		defer bufs[i].Release()
	}
	raw := make([]byte, 24*8192)
	allocs := map[string]float64{}
	s.Spawn("io", func(p *sim.Proc) {
		paths := []struct {
			name string
			do   func()
		}{
			{"WriteBufs", func() { st.WriteBufs(p, 0, bufs) }},
			{"WriteBlocks", func() { st.WriteBlocks(p, 24, raw) }},
			{"ReadBlocks", func() { st.ReadBlocks(p, 24, raw) }},
		}
		for _, path := range paths {
			path.do() // warm: record, helpers, carriers, platter pages
		}
		for _, path := range paths {
			allocs[path.name] = testing.AllocsPerRun(20, path.do)
		}
	})
	s.Run(0)
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("stripe %s over 3 members allocates %.1f objects per transfer, want 0", name, n)
		}
	}
	for i, m := range members {
		if m.Stats().Trans() != 3*22 {
			t.Errorf("member %d ran %d transfers, want %d (one per segment)", i, m.Stats().Trans(), 3*22)
		}
	}
}
