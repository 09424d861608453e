package ufs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// rig builds a formatted filesystem on a fresh RZ26.
func rig(t *testing.T, seed int64) (*sim.Sim, *FS, *disk.Disk) {
	t.Helper()
	s := sim.New(seed)
	d := disk.New(s, hw.RZ26(), nil)
	fs, err := Format(s, d, 1, 256, nil)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return s, fs, d
}

// run executes fn as a simulation process and drives the sim to completion.
func run(s *sim.Sim, fn func(p *sim.Proc)) {
	s.Spawn("test", fn)
	s.Run(0)
}

func TestCreateLookup(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, err := fs.Create(p, fs.Root(), "hello.txt", 0644)
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		got, err := fs.Lookup(p, fs.Root(), "hello.txt")
		if err != nil || got != ino {
			t.Errorf("Lookup = %d, %v; want %d", got, err, ino)
		}
		if _, err := fs.Lookup(p, fs.Root(), "missing"); err != vfs.ErrNoEnt {
			t.Errorf("Lookup missing = %v, want ErrNoEnt", err)
		}
	})
}

func TestCreateDuplicateFails(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		if _, err := fs.Create(p, fs.Root(), "f", 0644); err != nil {
			t.Errorf("Create: %v", err)
		}
		if _, err := fs.Create(p, fs.Root(), "f", 0644); err != vfs.ErrExist {
			t.Errorf("duplicate Create = %v, want ErrExist", err)
		}
	})
}

func TestWriteReadBack(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "data", 0644)
		data := make([]byte, 8192)
		for i := range data {
			data[i] = byte(i * 3)
		}
		if err := fs.Write(p, ino, 0, data, vfs.IOSync); err != nil {
			t.Errorf("Write: %v", err)
		}
		got := make([]byte, 8192)
		n, err := fs.Read(p, ino, 0, got)
		if err != nil || n != 8192 {
			t.Errorf("Read = %d, %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read-back mismatch")
		}
	})
}

func TestWriteGrowsFileThroughIndirect(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "big", 0644)
		// 14 blocks crosses the 12-direct-block boundary.
		data := make([]byte, 8192)
		for blk := 0; blk < 14; blk++ {
			for i := range data {
				data[i] = byte(blk + i)
			}
			if err := fs.Write(p, ino, uint32(blk*8192), data, vfs.IOSync); err != nil {
				t.Errorf("Write blk %d: %v", blk, err)
				return
			}
		}
		a, _ := fs.GetAttr(p, ino)
		if a.Size != 14*8192 {
			t.Errorf("Size = %d", a.Size)
		}
		got := make([]byte, 8192)
		for blk := 0; blk < 14; blk++ {
			fs.Read(p, ino, uint32(blk*8192), got)
			if got[0] != byte(blk) {
				t.Errorf("blk %d content mismatch: %d", blk, got[0])
			}
		}
	})
}

func TestSparseFileReadsZeros(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "sparse", 0644)
		if err := fs.Write(p, ino, 5*8192, []byte("end"), vfs.IOSync); err != nil {
			t.Errorf("Write: %v", err)
		}
		got := make([]byte, 8192)
		n, err := fs.Read(p, ino, 8192, got)
		if err != nil || n != 8192 {
			t.Errorf("Read hole = %d, %v", n, err)
		}
		for _, b := range got {
			if b != 0 {
				t.Error("hole not zero-filled")
				break
			}
		}
	})
}

func TestPartialBlockWrite(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "p", 0644)
		fs.Write(p, ino, 0, bytes.Repeat([]byte{0xAA}, 8192), vfs.IOSync)
		fs.Write(p, ino, 100, []byte("inserted"), vfs.IOSync)
		got := make([]byte, 8192)
		fs.Read(p, ino, 0, got)
		if got[99] != 0xAA || string(got[100:108]) != "inserted" || got[108] != 0xAA {
			t.Error("partial overwrite damaged surrounding bytes")
		}
	})
}

func TestDelayDataDoesNoDeviceIO(t *testing.T) {
	s, fs, d := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "lazy", 0644)
		before := d.Stats().Writes
		if err := fs.Write(p, ino, 0, make([]byte, 8192), vfs.IODelayData); err != nil {
			t.Errorf("Write: %v", err)
		}
		if d.Stats().Writes != before {
			t.Error("IODelayData touched the device")
		}
		if fs.DirtyBlocks() == 0 {
			t.Error("no dirty buffer after delayed write")
		}
	})
}

func TestDataOnlyWritesDataNotMetadata(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "d", 0644)
		metaBefore := fs.MetaWrites
		if err := fs.Write(p, ino, 0, make([]byte, 8192), vfs.IOSync|vfs.IODataOnly); err != nil {
			t.Errorf("Write: %v", err)
		}
		if fs.MetaWrites != metaBefore {
			t.Error("IODataOnly flushed metadata")
		}
		if !fs.MetaDirty(ino) {
			t.Error("metadata not left dirty")
		}
	})
}

func TestSyncWritePersistsMetadata(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "s", 0644)
		if err := fs.Write(p, ino, 0, make([]byte, 8192), vfs.IOSync); err != nil {
			t.Errorf("Write: %v", err)
		}
		if fs.MetaDirty(ino) {
			t.Error("full sync write left metadata dirty")
		}
	})
}

func TestMTimeOnlyInodeUpdateIsAsync(t *testing.T) {
	// The reference-port special case (§4.4): overwriting an allocated
	// block changes only mtime, so the sync path skips the inode write.
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "m", 0644)
		buf := make([]byte, 8192)
		fs.Write(p, ino, 0, buf, vfs.IOSync)
		metaBefore := fs.MetaWrites
		fs.Write(p, ino, 0, buf, vfs.IOSync) // overwrite: mtime-only
		if fs.MetaWrites != metaBefore {
			t.Errorf("mtime-only overwrite did %d metadata writes", fs.MetaWrites-metaBefore)
		}
	})
}

func TestSyncDataClusters(t *testing.T) {
	s, fs, d := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "c", 0644)
		// 8 delayed sequential writes -> one 64K cluster.
		for i := 0; i < 8; i++ {
			fs.Write(p, ino, uint32(i*8192), make([]byte, 8192), vfs.IODelayData)
		}
		before := d.Stats().Writes
		if err := fs.SyncData(p, ino, 0, 8*8192); err != nil {
			t.Errorf("SyncData: %v", err)
		}
		n := d.Stats().Writes - before
		if n != 1 {
			t.Errorf("SyncData issued %d transactions, want 1 (64K cluster)", n)
		}
	})
}

func TestSyncDataRangeHonored(t *testing.T) {
	s, fs, d := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "r", 0644)
		for i := 0; i < 4; i++ {
			fs.Write(p, ino, uint32(i*8192), make([]byte, 8192), vfs.IODelayData)
		}
		before := d.Stats().WriteBytes
		fs.SyncData(p, ino, 0, 2*8192)
		flushed := d.Stats().WriteBytes - before
		if flushed != 2*8192 {
			t.Errorf("flushed %d bytes, want 16384", flushed)
		}
		if fs.DirtyBlocks() < 2 {
			t.Error("out-of-range blocks were flushed")
		}
	})
}

func TestFsyncMetadataOnly(t *testing.T) {
	s, fs, d := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "f", 0644)
		fs.Write(p, ino, 0, make([]byte, 8192), vfs.IODelayData)
		dataBefore := d.Stats().WriteBytes
		if err := fs.Fsync(p, ino, vfs.FWrite|vfs.FWriteMetadata); err != nil {
			t.Errorf("Fsync: %v", err)
		}
		if fs.MetaDirty(ino) {
			t.Error("metadata still dirty after metadata fsync")
		}
		// The delayed data block must NOT have been flushed: only the
		// inode block went out.
		if got := d.Stats().WriteBytes - dataBefore; got != 8192 {
			t.Errorf("metadata-only fsync moved %d bytes, want 8192 (inode block)", got)
		}
	})
}

func TestFullFsyncFlushesEverything(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "g", 0644)
		for i := 0; i < 3; i++ {
			fs.Write(p, ino, uint32(i*8192), make([]byte, 8192), vfs.IODelayData)
		}
		if err := fs.Fsync(p, ino, vfs.FWrite); err != nil {
			t.Errorf("Fsync: %v", err)
		}
		if fs.DirtyBlocks() != 0 {
			t.Errorf("%d dirty blocks after full fsync", fs.DirtyBlocks())
		}
	})
}

func TestRemove(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "gone", 0644)
		fs.Write(p, ino, 0, make([]byte, 16384), vfs.IOSync)
		_, _, freeBefore := fs.Statfs(p)
		if err := fs.Remove(p, fs.Root(), "gone"); err != nil {
			t.Errorf("Remove: %v", err)
		}
		if _, err := fs.Lookup(p, fs.Root(), "gone"); err != vfs.ErrNoEnt {
			t.Errorf("Lookup after remove = %v", err)
		}
		if _, err := fs.GetAttr(p, ino); err != vfs.ErrStale {
			t.Errorf("GetAttr after remove = %v, want ErrStale", err)
		}
		_, _, freeAfter := fs.Statfs(p)
		if freeAfter <= freeBefore {
			t.Error("remove did not free blocks")
		}
	})
}

func TestMkdirRmdir(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		sub, err := fs.Mkdir(p, fs.Root(), "sub", 0755)
		if err != nil {
			t.Errorf("Mkdir: %v", err)
			return
		}
		if _, err := fs.Create(p, sub, "inner", 0644); err != nil {
			t.Errorf("Create in subdir: %v", err)
		}
		if err := fs.Rmdir(p, fs.Root(), "sub"); err != vfs.ErrNotEmpty {
			t.Errorf("Rmdir non-empty = %v, want ErrNotEmpty", err)
		}
		fs.Remove(p, sub, "inner")
		if err := fs.Rmdir(p, fs.Root(), "sub"); err != nil {
			t.Errorf("Rmdir: %v", err)
		}
	})
}

func TestRename(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "a", 0644)
		sub, _ := fs.Mkdir(p, fs.Root(), "dir", 0755)
		if err := fs.Rename(p, fs.Root(), "a", sub, "b"); err != nil {
			t.Errorf("Rename: %v", err)
		}
		if _, err := fs.Lookup(p, fs.Root(), "a"); err != vfs.ErrNoEnt {
			t.Errorf("old name survives: %v", err)
		}
		got, err := fs.Lookup(p, sub, "b")
		if err != nil || got != ino {
			t.Errorf("new name = %d, %v", got, err)
		}
	})
}

func TestRenameReplacesTarget(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		a, _ := fs.Create(p, fs.Root(), "a", 0644)
		b, _ := fs.Create(p, fs.Root(), "b", 0644)
		if err := fs.Rename(p, fs.Root(), "a", fs.Root(), "b"); err != nil {
			t.Errorf("Rename: %v", err)
		}
		got, _ := fs.Lookup(p, fs.Root(), "b")
		if got != a {
			t.Errorf("b resolves to %d, want %d", got, a)
		}
		if _, err := fs.GetAttr(p, b); err != vfs.ErrStale {
			t.Errorf("replaced inode alive: %v", err)
		}
	})
}

func TestReaddir(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		names := []string{"one", "two", "three", "four"}
		for _, n := range names {
			fs.Create(p, fs.Root(), n, 0644)
		}
		var all []string
		cookie := uint32(0)
		for {
			ents, eof, err := fs.Readdir(p, fs.Root(), cookie, 64, nil)
			if err != nil {
				t.Errorf("Readdir: %v", err)
				return
			}
			for _, e := range ents {
				all = append(all, e.Name)
				cookie = e.Cookie
			}
			if eof {
				break
			}
		}
		if len(all) != len(names) {
			t.Errorf("Readdir produced %v", all)
		}
	})
}

// TestReaddirEdges pins the reply's shape over the cookie/count edges: an
// entry costs 16 bytes plus its name, the entry at the cookie goes whatever
// count says, cookies are the next index, and the entries are appended to
// the caller's slice, which a warm caller reuses without allocating.
func TestReaddirEdges(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		d, err := fs.Mkdir(p, fs.Root(), "d", 0755)
		if err != nil {
			t.Error(err)
			return
		}
		names := []string{"a", "bbbb", "cc"} // 17, 20 and 18 bytes
		for _, n := range names {
			fs.Create(p, d, n, 0644)
		}
		for _, tc := range []struct {
			cookie uint32
			count  int
			want   int // entries from the cookie on
			eof    bool
		}{
			{0, 4096, 3, true},
			{0, 1, 1, false}, // first entry larger than count
			{0, 17, 1, false},
			{0, 36, 1, false},
			{0, 37, 2, false}, // exact fit of two
			{0, 54, 2, false},
			{0, 55, 3, true}, // exact fit of all
			{1, 20, 1, false},
			{2, 1, 1, true},    // the last entry, larger than count
			{3, 4096, 0, true}, // cookie at the end
			{9, 4096, 0, true}, // and past it
		} {
			kept := vfs.DirEntry{Ino: 99, Name: "kept", Cookie: 99}
			ents, eof, err := fs.Readdir(p, d, tc.cookie, tc.count, []vfs.DirEntry{kept})
			if err != nil || eof != tc.eof || len(ents) != 1+tc.want || ents[0] != kept {
				t.Errorf("Readdir(cookie %d, count %d) = %v, eof %v, %v; want %v then %d entries, eof %v",
					tc.cookie, tc.count, ents, eof, err, kept, tc.want, tc.eof)
				continue
			}
			for i, e := range ents[1:] {
				if at := int(tc.cookie) + i; e.Name != names[at] || e.Cookie != uint32(at+1) {
					t.Errorf("Readdir(cookie %d, count %d)[%d] = %+v, want %q with cookie %d",
						tc.cookie, tc.count, i, e, names[at], at+1)
				}
			}
		}
		scratch := make([]vfs.DirEntry, 0, len(names))
		if n := testing.AllocsPerRun(10, func() {
			scratch, _, _ = fs.Readdir(p, d, 0, 4096, scratch[:0])
		}); n != 0 {
			t.Errorf("Readdir into a warm scratch allocates %v objects, want 0", n)
		}
	})
}

func TestSetAttrsTruncate(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		ino, _ := fs.Create(p, fs.Root(), "t", 0644)
		fs.Write(p, ino, 0, make([]byte, 14*8192), vfs.IOSync) // spans indirect
		_, _, freeBefore := fs.Statfs(p)
		size := uint32(8192)
		a, err := fs.SetAttrs(p, ino, vfs.SetAttr{Size: &size})
		if err != nil || a.Size != 8192 {
			t.Errorf("SetAttrs = %+v, %v", a, err)
		}
		_, _, freeAfter := fs.Statfs(p)
		if freeAfter <= freeBefore {
			t.Error("truncate freed no blocks")
		}
		// Data past EOF must be gone even if the file grows again.
		size2 := uint32(3 * 8192)
		fs.SetAttrs(p, ino, vfs.SetAttr{Size: &size2})
		got := make([]byte, 8192)
		fs.Read(p, ino, 2*8192, got)
		for _, b := range got {
			if b != 0 {
				t.Error("truncated data visible after re-extension")
				break
			}
		}
	})
}

func TestCrashBeforeMetadataFlushLosesFile(t *testing.T) {
	// Write data with metadata delayed, crash, remount: the data blocks
	// are unreachable because the inode never went out. This is exactly
	// why an NFS server must not reply before the metadata commit.
	s, fs, d := rig(t, 1)
	var ino vfs.Ino
	run(s, func(p *sim.Proc) {
		fs.WriteSuper(p)
		ino, _ = fs.Create(p, fs.Root(), "x", 0644)
		fs.Write(p, ino, 0, bytes.Repeat([]byte{0xEE}, 8192), vfs.IODataOnly|vfs.IOSync)
		// no Fsync: crash now
	})
	fs.DropCaches()
	s2 := sim.New(2)
	var m *FS
	s2.Spawn("mount", func(p *sim.Proc) {
		var err error
		m, err = Mount(s2, p, d, nil)
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		a, err := m.GetAttr(p, ino)
		if err != nil {
			return // inode never made it to disk: acceptable loss shape
		}
		if a.Size != 0 {
			t.Errorf("uncommitted size %d survived crash", a.Size)
		}
	})
	s2.Run(0)
}

func TestCrashAfterFsyncKeepsFile(t *testing.T) {
	s, fs, d := rig(t, 1)
	var ino vfs.Ino
	payload := bytes.Repeat([]byte{0xEE}, 8192)
	run(s, func(p *sim.Proc) {
		fs.WriteSuper(p)
		ino, _ = fs.Create(p, fs.Root(), "x", 0644)
		fs.Write(p, ino, 0, payload, vfs.IOSync|vfs.IODataOnly)
		fs.Fsync(p, ino, vfs.FWrite|vfs.FWriteMetadata)
	})
	fs.DropCaches()
	s2 := sim.New(2)
	s2.Spawn("mount", func(p *sim.Proc) {
		m, err := Mount(s2, p, d, nil)
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		a, err := m.GetAttr(p, ino)
		if err != nil {
			t.Errorf("GetAttr after remount: %v", err)
			return
		}
		if a.Size != 8192 {
			t.Errorf("recovered size = %d", a.Size)
		}
		got := make([]byte, 8192)
		if _, err := m.Read(p, ino, 0, got); err != nil {
			t.Errorf("Read after remount: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("recovered content mismatch")
		}
	})
	s2.Run(0)
}

func TestRemountPreservesDirectoryTree(t *testing.T) {
	s, fs, d := rig(t, 1)
	run(s, func(p *sim.Proc) {
		fs.WriteSuper(p)
		sub, _ := fs.Mkdir(p, fs.Root(), "docs", 0755)
		ino, _ := fs.Create(p, sub, "readme", 0644)
		fs.Write(p, ino, 0, []byte("hello"), vfs.IOSync)
		fs.Fsync(p, ino, vfs.FWrite)
		fs.Fsync(p, sub, vfs.FWrite)
	})
	fs.DropCaches()
	s2 := sim.New(2)
	s2.Spawn("mount", func(p *sim.Proc) {
		m, err := Mount(s2, p, d, nil)
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		sub, err := m.Lookup(p, m.Root(), "docs")
		if err != nil {
			t.Errorf("Lookup docs: %v", err)
			return
		}
		f, err := m.Lookup(p, sub, "readme")
		if err != nil {
			t.Errorf("Lookup readme: %v", err)
			return
		}
		got := make([]byte, 5)
		m.Read(p, f, 0, got)
		if string(got) != "hello" {
			t.Errorf("content = %q", got)
		}
	})
	s2.Run(0)
}

func TestQuickWriteReadProperty(t *testing.T) {
	// Random (offset, content) writes through any flag mode must read
	// back exactly, and a remount after full fsync must agree.
	f := func(seed int64, offs []uint16, fills []byte, mode uint8) bool {
		if len(offs) == 0 || len(fills) == 0 {
			return true
		}
		if len(offs) > 12 {
			offs = offs[:12]
		}
		s := sim.New(seed)
		d := disk.New(s, hw.RZ26(), nil)
		fs, err := Format(s, d, 1, 64, nil)
		if err != nil {
			return false
		}
		flags := []vfs.IOFlags{vfs.IOSync, vfs.IOSync | vfs.IODataOnly, vfs.IODelayData}[mode%3]
		shadow := make([]byte, 1<<20)
		maxEnd := uint32(0)
		ok := true
		s.Spawn("t", func(p *sim.Proc) {
			ino, err := fs.Create(p, fs.Root(), "f", 0644)
			if err != nil {
				ok = false
				return
			}
			for i, o := range offs {
				off := uint32(o) % (1 << 19)
				fill := fills[i%len(fills)]
				chunk := bytes.Repeat([]byte{fill}, 1+int(o)%8192)
				if err := fs.Write(p, ino, off, chunk, flags); err != nil {
					ok = false
					return
				}
				copy(shadow[off:], chunk)
				if end := off + uint32(len(chunk)); end > maxEnd {
					maxEnd = end
				}
			}
			got := make([]byte, maxEnd)
			n, err := fs.Read(p, ino, 0, got)
			if err != nil || uint32(n) != maxEnd {
				ok = false
				return
			}
			if !bytes.Equal(got, shadow[:maxEnd]) {
				ok = false
			}
		})
		s.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocatorNeverDoubleAllocates(t *testing.T) {
	f := func(seed int64, nFiles uint8) bool {
		s := sim.New(seed)
		d := disk.New(s, hw.RZ26(), nil)
		fs, err := Format(s, d, 1, 64, nil)
		if err != nil {
			return false
		}
		n := int(nFiles%8) + 2
		ok := true
		s.Spawn("t", func(p *sim.Proc) {
			seen := map[int64]vfs.Ino{}
			for i := 0; i < n; i++ {
				name := string(rune('a' + i))
				ino, err := fs.Create(p, fs.Root(), name, 0644)
				if err != nil {
					ok = false
					return
				}
				fs.Write(p, ino, 0, make([]byte, 3*8192), vfs.IODelayData)
				in := fs.inodes[ino]
				for _, b := range in.direct {
					if b == 0 {
						continue
					}
					if owner, dup := seen[b]; dup && owner != ino {
						ok = false
						return
					}
					seen[b] = ino
				}
			}
		})
		s.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatTooSmallDevice(t *testing.T) {
	s := sim.New(1)
	params := hw.RZ26()
	params.NumBlocks = 4
	d := disk.New(s, params, nil)
	if _, err := Format(s, d, 1, 256, nil); err == nil {
		t.Fatal("Format accepted a 4-block device with a 9-block inode region")
	}
}

func TestStatfs(t *testing.T) {
	s, fs, _ := rig(t, 1)
	run(s, func(p *sim.Proc) {
		bs, total, free1 := fs.Statfs(p)
		if bs != 8192 || total <= 0 || free1 <= 0 {
			t.Errorf("Statfs = %d, %d, %d", bs, total, free1)
		}
		ino, _ := fs.Create(p, fs.Root(), "f", 0644)
		fs.Write(p, ino, 0, make([]byte, 10*8192), vfs.IOSync)
		_, _, free2 := fs.Statfs(p)
		if free2 >= free1 {
			t.Error("allocation did not reduce free count")
		}
	})
}

// TestStoredNamesAreCopies: the names ufs is handed may alias a wire
// buffer (the server decodes them in place), so every entry it stores —
// by Create, Mkdir and both Rename branches — must be its own copy. The
// names here alias a test-owned buffer that is overwritten once they are
// stored; Lookup and Readdir must still see the originals.
func TestStoredNamesAreCopies(t *testing.T) {
	s, fs, _ := rig(t, 1)
	e := xdr.NewEncoder(nil)
	for _, n := range []string{"file.a", "dir.b", "same.c", "cross.d"} {
		e.String(n)
	}
	buf := e.Bytes()
	d := xdr.NewDecoder(buf)
	alias := func() string {
		n, err := d.StringRef()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	file, dir, same, cross := alias(), alias(), alias(), alias()
	run(s, func(p *sim.Proc) {
		root := fs.Root()
		if _, err := fs.Create(p, root, file, 0644); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		sub, err := fs.Mkdir(p, root, dir, 0755)
		if err != nil {
			t.Errorf("Mkdir: %v", err)
			return
		}
		for _, from := range []string{"x", "y"} {
			if _, err := fs.Create(p, root, from, 0644); err != nil {
				t.Errorf("Create %s: %v", from, err)
				return
			}
		}
		if err := fs.Rename(p, root, "x", root, same); err != nil {
			t.Errorf("same-directory Rename: %v", err)
			return
		}
		if err := fs.Rename(p, root, "y", sub, cross); err != nil {
			t.Errorf("cross-directory Rename: %v", err)
			return
		}
		for i := range buf {
			buf[i] = 'X'
		}
		for _, c := range []struct {
			dir   vfs.Ino
			names []string
		}{
			{root, []string{"file.a", "dir.b", "same.c"}},
			{sub, []string{"cross.d"}},
		} {
			for _, n := range c.names {
				if _, err := fs.Lookup(p, c.dir, n); err != nil {
					t.Errorf("Lookup(%d, %q) after the buffer was overwritten: %v", c.dir, n, err)
				}
			}
			ents, _, err := fs.Readdir(p, c.dir, 0, 4096, nil)
			var got []string
			for _, e := range ents {
				got = append(got, e.Name)
			}
			if err != nil || !slices.Equal(got, c.names) {
				t.Errorf("Readdir(%d) = %q, %v; want %q", c.dir, got, err, c.names)
			}
			// The index's keys are the entries' own strings: a key
			// aliasing the buffer would read "XXXX" now.
			index := fs.inodes[c.dir].names
			for k := range index {
				if !slices.Contains(c.names, k) {
					t.Errorf("index of %d has key %q, want only %q", c.dir, k, c.names)
				}
			}
			if len(index) != len(c.names) {
				t.Errorf("index of %d has %d keys, want %q", c.dir, len(index), c.names)
			}
		}
	})
}

// TestBitmapFirstFreeMatchesScan: the word scan allocBlock uses finds the
// block a bit-by-bit scan finds, over maps of every density and ranges
// that start and end inside words, across word boundaries and past the
// last block (whose word's spare bits read free).
func TestBitmapFirstFreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := int64(1 + rng.Intn(300))
		m := newBitmap(nil, n, int64(rng.Intn(int(n))))
		density := rng.Float64()
		for b := int64(0); b < n; b++ {
			if rng.Float64() < density {
				m.set(b)
			}
		}
		if rng.Intn(4) == 0 {
			m.clear(int64(rng.Intn(int(n))))
		}
		from := int64(rng.Intn(int(n) + 1))
		to := from + int64(rng.Intn(int(n-from)+1))
		want := int64(-1)
		for b := from; b < to; b++ {
			if !m.used(b) {
				want = b
				break
			}
		}
		if got := m.firstFree(from, to); got != want {
			t.Fatalf("n=%d [%d,%d): firstFree = %d, bit scan = %d", n, from, to, got, want)
		}
	}
}
