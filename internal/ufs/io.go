package ufs

import (
	"cmp"
	"slices"

	"repro/internal/block"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Read is VOP_READ: it fills out from the file at off, short at EOF.
func (fs *FS) Read(p *sim.Proc, ino vfs.Ino, off uint32, out []byte) (int, error) {
	_, n, err := fs.read(p, ino, off, out, false)
	return n, err
}

// ReadBuf is VOP_READ answered, where it can be, with a reference to the
// cache block itself: a read that is a prefix of one cached block, of a
// length XDR would not pad, returns the block and leaves out untouched.
// The block is nil for every other read (holes, unaligned or
// block-spanning requests, odd-length tails, reads at or past EOF), which
// fills out exactly as Read does. A returned block belongs to the caller,
// who must Release it and must never write through it; its first n bytes
// (the int result) are the data. The simulated
// work — block map walk, device fill, access-time update — is Read's in
// every case; the only difference is whether the host memmoves the bytes.
// The reference is safe to hold across later writes: the cache replaces a
// shared block (own/ownFresh/adopt), it never writes into one.
func (fs *FS) ReadBuf(p *sim.Proc, ino vfs.Ino, off uint32, out []byte) (*block.Buf, int, error) {
	return fs.read(p, ino, off, out, true)
}

// read is the common VOP_READ body. With byRef set, a read that starts on
// a block boundary, stays inside that block and has a length XDR would not
// pad returns the cached block (one reference, the caller's) and leaves
// out untouched — unless the block is a hole, which has no buffer to share.
func (fs *FS) read(p *sim.Proc, ino vfs.Ino, off uint32, out []byte, byRef bool) (*block.Buf, int, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return nil, 0, err
	}
	if in.ftype == vfs.TypeDir {
		return nil, 0, vfs.ErrIsDir
	}
	if off >= in.size {
		return nil, 0, nil
	}
	n := len(out)
	if uint32(n) > in.size-off {
		n = int(in.size - off)
	}
	byRef = byRef && off%BlockSize == 0 && n <= BlockSize && n%4 == 0
	var ref *block.Buf
	read := 0
	for read < n {
		fb := int64(off+uint32(read)) / BlockSize
		bo := int64(off+uint32(read)) % BlockSize
		take := BlockSize - int(bo)
		if take > n-read {
			take = n - read
		}
		phys, _, err := fs.bmap(p, in, fb, false)
		if err != nil {
			return nil, read, err
		}
		if phys == 0 {
			// Hole: zeros.
			clear(out[read : read+take])
		} else {
			b, cached := fs.cache.Get(phys)
			if !cached || (!b.dirty && b.owner != ino) {
				nb, err := fs.getBuf(p, phys, true)
				if err != nil {
					return nil, read, err
				}
				b = nb
				b.owner = ino
			}
			if byRef {
				ref = b.blk.Ref()
			} else {
				fs.pool.Acct().CountCopy(copy(out[read:read+take], b.blk.Data()[bo:bo+int64(take)]))
			}
		}
		read += take
	}
	in.atime = fs.sim.Now()
	in.dirtyCore = true
	return ref, read, nil
}

// Write is VOP_WRITE with the paper's flags, copying data into the cache.
//
//   - IODelayData: data stays dirty in the buffer cache (UFS picks its own
//     clustering policy later, via SyncData); no device I/O at all.
//   - IOSync|IODataOnly: the data blocks are pushed to the device now —
//     which, on an accelerated filesystem, means an NVRAM copy — but all
//     metadata stays in core.
//   - IOSync alone: the classic fully synchronous server path — data
//     blocks written through, then the inode block and any dirty indirect
//     blocks, with the reference port's one exception: an inode whose only
//     change is the file modify time is written asynchronously (§4.4).
func (fs *FS) Write(p *sim.Proc, ino vfs.Ino, off uint32, data []byte, flags vfs.IOFlags) error {
	return fs.write(p, ino, off, len(data), data, nil, flags)
}

// WriteBuf is VOP_WRITE fed directly by a refcounted payload buffer
// holding n bytes, with Write's flags. A block-aligned full-block write
// adopts the buffer into the cache — the payload is never copied at all;
// it travels by reference from the wire to the platters. Other shapes
// fall back to the copying path. The caller keeps its own reference to b;
// the cache takes another if it adopts the buffer.
func (fs *FS) WriteBuf(p *sim.Proc, ino vfs.Ino, off uint32, b *block.Buf, n int, flags vfs.IOFlags) error {
	if off%BlockSize == 0 && n == BlockSize {
		return fs.write(p, ino, off, n, nil, b, flags)
	}
	return fs.write(p, ino, off, n, b.Data()[:n], nil, flags)
}

// write is the common VOP_WRITE body. Exactly one of data and body is set:
// data is the copying path (payload memmoved into cache blocks, counted
// against the copy budget); body is a whole-block refcounted payload the
// cache adopts by reference.
func (fs *FS) write(p *sim.Proc, ino vfs.Ino, off uint32, n int, data []byte, body *block.Buf, flags vfs.IOFlags) error {
	in, err := fs.getInode(ino)
	if err != nil {
		return err
	}
	if in.ftype == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if int64(off)+int64(n) > MaxFileSize {
		return vfs.ErrFBig
	}
	metaChanged := false
	// An 8K-bounded write touches at most two blocks; keep the list off
	// the heap.
	var touchedArr [4]*buf
	touched := touchedArr[:0]
	written := 0
	for written < n {
		fb := int64(off+uint32(written)) / BlockSize
		bo := int64(off+uint32(written)) % BlockSize
		take := BlockSize - int(bo)
		if take > n-written {
			take = n - written
		}
		phys, mc, err := fs.bmap(p, in, fb, true)
		if err != nil {
			return err
		}
		metaChanged = metaChanged || mc
		b, cached := fs.cache.Get(phys)
		switch {
		case body != nil:
			// Zero-copy landing: the cache takes a reference to the
			// payload buffer itself; a missing entry is created around it
			// directly (no scratch buffer, no zeroing).
			if cached {
				b.adopt(body)
			} else {
				b = fs.insertBuf(phys, body.Ref())
			}
		case take == BlockSize:
			// Whole-block overwrite: every byte is about to be written, so
			// a fresh (unzeroed) buffer suffices on either path.
			if cached {
				fs.ownFresh(b)
			} else {
				b = fs.insertBuf(phys, fs.pool.Get())
			}
			fs.pool.Acct().CountCopy(copy(b.blk.Data(), data[written:written+take]))
		default:
			// Partial write: fill from the device only when overwriting an
			// existing block; a fresh block's remainder must read as zeros.
			if !cached {
				nb, err := fs.getBuf(p, phys, !mc && phys != 0)
				if err != nil {
					return err
				}
				b = nb
			}
			fs.own(b)
			fs.pool.Acct().CountCopy(copy(b.blk.Data()[bo:bo+int64(take)], data[written:written+take]))
		}
		b.owner = ino
		b.dirty = true
		touched = append(touched, b)
		written += take
	}
	now := fs.sim.Now()
	in.mtime, in.ctime = now, now
	in.dirtyCore = true
	if end := off + uint32(n); end > in.size {
		in.size = end
		metaChanged = true
	}
	if metaChanged {
		in.dirtyMeta = true
	}

	switch {
	case flags&vfs.IODelayData != 0:
		// Nothing touches the device now.
		return nil
	case flags&vfs.IODataOnly != 0:
		// Push data blocks through; metadata delayed.
		for _, b := range touched {
			if b.dirty {
				if err := fs.writeBuf(p, b); err != nil {
					return err
				}
				fs.DataWrites++
			}
		}
		return nil
	default:
		// Fully synchronous: data, then metadata.
		for _, b := range touched {
			if b.dirty {
				if err := fs.writeBuf(p, b); err != nil {
					return err
				}
				fs.DataWrites++
			}
		}
		// Indirect blocks dirtied by this write.
		if err := fs.flushDirtyIndirect(p, in); err != nil {
			return err
		}
		if in.dirtyMeta || in.pendingFlush {
			return fs.flushInode(p, in, true, false)
		}
		// else: mtime-only change; left async per the reference port.
		return nil
	}
}

// flushDirtyIndirect writes any dirty indirect blocks belonging to in.
func (fs *FS) flushDirtyIndirect(p *sim.Proc, in *inode) error {
	for _, phys := range in.indBlocks {
		if b, ok := fs.cache.Get(phys); ok && b.dirty {
			if err := fs.writeBuf(p, b); err != nil {
				return err
			}
			fs.MetaWrites++
			if fs.ChargeMeta != nil {
				fs.ChargeMeta(p)
			}
		}
	}
	return nil
}

// SyncData is VOP_SYNCDATA, the paper's new entry point, with byte-range hints.
// Dirty data blocks overlapping [from,to) are flushed, with physically
// contiguous blocks clustered into single device transactions of up to
// MaxCluster bytes — the fewer-larger-writes effect gathering banks on.
func (fs *FS) SyncData(p *sim.Proc, ino vfs.Ino, from, to uint32) error {
	in, err := fs.getInode(ino)
	if err != nil {
		return err
	}
	if to > in.size {
		to = in.size
	}
	if from >= to {
		return nil
	}
	dirty := fs.getDirtyScratch()
	defer fs.putDirtyScratch(dirty)
	first := int64(from) / BlockSize
	last := (int64(to) - 1) / BlockSize
	for fb := first; fb <= last; fb++ {
		phys, _, err := fs.bmap(p, in, fb, false)
		if err != nil {
			return err
		}
		if phys == 0 {
			continue
		}
		if b, ok := fs.cache.Get(phys); ok && b.dirty {
			// Pin the buffer now: the entry may be evicted or COW-replaced
			// while this flush sleeps in device I/O below.
			*dirty = append(*dirty, dirtyBlk{phys: phys, b: b, blk: b.blk.Ref()})
		}
	}
	blks := *dirty
	if len(blks) == 0 {
		return nil
	}
	slices.SortFunc(blks, func(a, b dirtyBlk) int { return cmp.Compare(a.phys, b.phys) })
	// Cluster physically contiguous runs. No byte assembly: the device is
	// handed the cache buffers themselves and snapshots them by reference
	// (it takes its own refs before sleeping), eliminating both the old
	// cluster-assembly copy and the platter-store copy.
	i := 0
	for i < len(blks) {
		j := i + 1
		for j < len(blks) &&
			blks[j].phys == blks[j-1].phys+1 &&
			(j-i+1)*BlockSize <= MaxCluster {
			j++
		}
		run := blks[i:j]
		bufs := fs.getRun()
		for _, d := range run {
			bufs = append(bufs, d.blk)
		}
		err := fs.dev.WriteBufs(p, run[0].phys, bufs)
		fs.putRun(bufs)
		if err != nil {
			// The run never landed; the blocks stay dirty for a retry.
			return vfs.ErrIO
		}
		fs.DataWrites++
		for _, d := range run {
			// Clear the dirty bit only if the entry still carries the
			// buffer that just landed; an entry evicted or rewritten via
			// copy-on-write during the transfer keeps its state.
			if d.b.blk == d.blk {
				d.b.dirty = false
			}
		}
		i = j
	}
	return nil
}

// Fsync is VOP_FSYNC. With FWriteMetadata the
// flush covers only the inode and indirect blocks; otherwise all dirty
// data is flushed first (clustered), then the metadata.
func (fs *FS) Fsync(p *sim.Proc, ino vfs.Ino, flags vfs.FsyncFlags) error {
	in, err := fs.getInode(ino)
	if err != nil {
		return err
	}
	if flags&vfs.FWriteMetadata == 0 {
		if err := fs.SyncData(p, ino, 0, in.size); err != nil {
			return err
		}
		if err := fs.flushDirtyIndirect(p, in); err != nil {
			return err
		}
		if in.dirtyCore || in.dirtyMeta || in.pendingFlush {
			return fs.flushInode(p, in, false, false)
		}
		return nil
	}
	// Metadata-only flush: the reference port's exception applies here
	// too — an inode whose only staleness is the file modify time is left
	// to an asynchronous update (§4.4), so a gather of pure overwrites
	// commits no inode write at all.
	if err := fs.flushDirtyIndirect(p, in); err != nil {
		return err
	}
	if in.dirtyMeta || in.pendingFlush {
		return fs.flushInode(p, in, true, false)
	}
	return nil
}

// MTime reports the file's current modification time; gathered replies all
// carry the value captured at metadata-commit time.
func (fs *FS) MTime(ino vfs.Ino) (sim.Time, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return 0, err
	}
	return in.mtime, nil
}

// MetaDirty reports whether the inode has uncommitted metadata beyond the
// modify time (test/diagnostic hook).
func (fs *FS) MetaDirty(ino vfs.Ino) bool {
	in, err := fs.getInode(ino)
	if err != nil {
		return false
	}
	if in.dirtyMeta {
		return true
	}
	for _, phys := range in.indBlocks {
		if b, ok := fs.cache.Get(phys); ok && b.dirty {
			return true
		}
	}
	return false
}
