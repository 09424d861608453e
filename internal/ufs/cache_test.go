package ufs

import (
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestCachedOverwriteAllocs: overwriting a cached block allocates
// nothing, on the copying path (Write) and the by-reference one
// (WriteBuf); and a cache record stays within 32 bytes.
func TestCachedOverwriteAllocs(t *testing.T) {
	if n := unsafe.Sizeof(buf{}); n > 32 {
		t.Fatalf("cache record is %d bytes, want at most 32", n)
	}
	s, fs, _ := rig(t, 1)
	defer s.Close()
	body := block.NewAccounting().NewPool().Get()
	defer body.Release()
	data := make([]byte, BlockSize)
	var byCopy, byRef float64
	run(s, func(p *sim.Proc) {
		ino, err := fs.Create(p, fs.Root(), "f", 0644)
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		for off := uint32(0); off < 4*BlockSize; off += BlockSize {
			if err := fs.Write(p, ino, off, data, vfs.IODelayData); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
		}
		off := uint32(0)
		byCopy = testing.AllocsPerRun(100, func() {
			off = (off + BlockSize) % (4 * BlockSize)
			fs.Write(p, ino, off, data, vfs.IODelayData)
		})
		byRef = testing.AllocsPerRun(100, func() {
			off = (off + BlockSize) % (4 * BlockSize)
			fs.WriteBuf(p, ino, off, body, BlockSize, vfs.IODelayData)
		})
	})
	if byCopy != 0 || byRef != 0 {
		t.Fatalf("cached overwrite allocates %.1f (Write) and %.1f (WriteBuf) objects, want 0", byCopy, byRef)
	}
}

// TestInodeNumbersOutsideTheTableAreStale: a handle may carry any inode
// number; one past the table, or a free one, is stale, not a crash.
func TestInodeNumbersOutsideTheTableAreStale(t *testing.T) {
	s, fs, _ := rig(t, 1)
	defer s.Close()
	for _, ino := range []vfs.Ino{0, 2, vfs.Ino(fs.ninodes), vfs.Ino(fs.ninodes) + 1, 1 << 40} {
		if _, err := fs.getInode(ino); err != vfs.ErrStale {
			t.Errorf("getInode(%d) = %v, want ErrStale", ino, err)
		}
	}
}
