package ufs

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// coldFile builds a 20-block file (past the 12 direct pointers, so reads
// walk an indirect block) whose block 5 is a hole and whose last block
// holds 1,000 bytes, flushes it, and remounts the platters cold on the
// same sim. Two calls with one seed give identical twins.
func coldFile(t *testing.T, seed int64) (*sim.Sim, *FS, vfs.Ino, *block.Accounting) {
	t.Helper()
	acct := block.NewAccounting()
	s := sim.New(seed)
	d := disk.New(s, hw.RZ26(), acct)
	fs, err := Format(s, d, 1, 64, acct)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	var m *FS
	var ino vfs.Ino
	run(s, func(p *sim.Proc) {
		fs.WriteSuper(p)
		ino, _ = fs.Create(p, fs.Root(), "f", 0644)
		for b := 0; b < 20; b++ {
			n := BlockSize
			switch b {
			case 5:
				continue
			case 19:
				n = 1000
			}
			if err := fs.Write(p, ino, uint32(b*BlockSize), bytes.Repeat([]byte{byte(b + 1)}, n), vfs.IODelayData); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := fs.Fsync(p, ino, vfs.FWrite); err != nil {
			t.Fatalf("Fsync: %v", err)
		}
		fs.DropCaches()
		if m, err = Mount(s, p, d, acct); err != nil {
			t.Fatalf("Mount: %v", err)
		}
	})
	return s, m, ino, acct
}

// TestReadBufSharesTheCacheBlock: the by-reference answer is the cache's
// own buffer with one more reference and no byte moved; every other shape
// fills out like Read and returns no buffer.
func TestReadBufSharesTheCacheBlock(t *testing.T) {
	s, fs, ino, acct := coldFile(t, 1)
	out := make([]byte, BlockSize)
	run(s, func(p *sim.Proc) {
		for i := range out {
			out[i] = 0x77
		}
		copies := acct.Copies()
		blk, n, err := fs.ReadBuf(p, ino, 2*BlockSize, out)
		if err != nil || blk == nil || n != BlockSize {
			t.Fatalf("aligned ReadBuf = %v, %d, %v", blk, n, err)
		}
		if !bytes.Equal(blk.Data()[:n], bytes.Repeat([]byte{3}, BlockSize)) {
			t.Error("referenced block has the wrong bytes")
		}
		if out[0] != 0x77 || acct.Copies() != copies {
			t.Error("a by-reference read moved bytes")
		}
		if blk.Refs() != 2 { // the cache's (filled from the device) and the caller's
			t.Errorf("block refs = %d, want 2", blk.Refs())
		}
		// A later overwrite replaces the cache's buffer; the reader's stays.
		if err := fs.Write(p, ino, 2*BlockSize+8, []byte("new"), vfs.IODelayData); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if blk.Data()[8] != 3 {
			t.Error("a write went into a block a reader holds")
		}
		blk.Release()

		// The 1,000-byte tail goes by reference too, shortened.
		blk, n, err = fs.ReadBuf(p, ino, 19*BlockSize, out)
		if err != nil || blk == nil || n != 1000 {
			t.Fatalf("tail ReadBuf = %v, %d, %v", blk, n, err)
		}
		blk.Release()

		for _, c := range []struct {
			name string
			off  uint32
			n    int
		}{
			{"hole", 5 * BlockSize, BlockSize},
			{"unaligned", 100, 512},
			{"spanning", BlockSize / 2, BlockSize},
			{"padded length", 0, 1002},
			{"past EOF", 30 * BlockSize, BlockSize},
		} {
			want := make([]byte, c.n)
			wn, werr := fs.Read(p, ino, c.off, want)
			blk, n, err := fs.ReadBuf(p, ino, c.off, out[:c.n])
			if blk != nil {
				t.Errorf("%s: answered by reference", c.name)
				blk.Release()
			}
			if n != wn || err != werr || !bytes.Equal(out[:n], want[:wn]) {
				t.Errorf("%s: ReadBuf %d/%v differs from Read %d/%v", c.name, n, err, wn, werr)
			}
		}
	})
	if got, want := acct.TotalRefs(), int64(fs.CachedBufs())+int64(fs.Device().(*disk.Disk).StoredBufs()); got != want {
		t.Fatalf("%d refs outstanding, %d held by cache and platters", got, want)
	}
}

// TestReadBufDoesReadsSimulatedWork: on a cold cache, where reads go to the
// device for indirect and data blocks, a sequence of ReadBuf calls fires
// the same events and ends on the same clock as the same sequence of Read
// calls, and leaves the same access time. That is what keeps every
// sim_digest where it was.
func TestReadBufDoesReadsSimulatedWork(t *testing.T) {
	type outcome struct {
		now    sim.Time
		events uint64
		atime  sim.Time
		bytes  int
	}
	offs := []uint32{0, 13 * BlockSize, 5 * BlockSize, 100, 19 * BlockSize, 13 * BlockSize, 14*BlockSize + 4096, 40 * BlockSize}
	measure := func(byRef bool) outcome {
		s, fs, ino, _ := coldFile(t, 9)
		var o outcome
		run(s, func(p *sim.Proc) {
			out := make([]byte, BlockSize)
			for _, off := range offs {
				var n int
				var err error
				if byRef {
					var blk *block.Buf
					if blk, n, err = fs.ReadBuf(p, ino, off, out); blk != nil {
						blk.Release()
					}
				} else {
					n, err = fs.Read(p, ino, off, out)
				}
				if err != nil {
					t.Fatalf("read @%d: %v", off, err)
				}
				o.bytes += n
				p.Sleep(sim.Millisecond)
			}
			a, _ := fs.GetAttr(p, ino)
			o.atime = a.ATime
		})
		o.now, o.events = s.Now(), s.EventsFired()
		return o
	}
	if a, b := measure(false), measure(true); a != b {
		t.Fatalf("Read: %+v\nReadBuf: %+v", a, b)
	}
}
