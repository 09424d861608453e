package ufs

import (
	"encoding/binary"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// inode is the in-core inode. dirtyCore means the on-disk copy is stale in
// any way; dirtyMeta means it is stale in a way the stable-storage contract
// cares about (size or block pointers changed — not just the file modify
// time, which the reference port is willing to lose, §4.4).
type inode struct {
	num   vfs.Ino
	ftype vfs.FileType
	mode  uint32
	nlink uint32
	uid   uint32
	gid   uint32
	size  uint32
	gen   uint32
	atime sim.Time
	mtime sim.Time
	ctime sim.Time

	direct    [NumDirect]int64
	indirect  int64
	dindirect int64

	dirtyCore bool
	dirtyMeta bool
	// pendingFlush marks an inode whose dirty state was encoded into an
	// inode-block write that has not yet landed. The encoder clears the
	// dirty flags, so without this marker a committer racing the in-flight
	// write would take "flags clean" for "durable" and acknowledge early;
	// with it, sync paths route through flushInode, which waits on the
	// block's flush gate for the landing.
	pendingFlush bool
	// indBlocks tracks physical block numbers of this file's indirect
	// blocks so a metadata-only fsync can find the dirty ones.
	indBlocks []int64

	// dents memoizes the parsed directory contents (directories only) and
	// names indexes them by name; dentsOK marks both valid. They are
	// created, edited and dropped together. The memo is rebuilt from the
	// buffer cache on the next loadDir after any invalidation, so it never
	// changes simulated I/O: once a directory's blocks are in core they
	// stay there, and the parse itself costs no virtual time. storing
	// counts in-flight storeDir calls; parses taken during one are
	// transient and must not be memoized.
	dents   []dirent
	names   dirIndex
	dentsOK bool
	storing int
}

// encodeInode serializes an inode into a 256-byte slot. A zero ftype slot
// is a free inode. The slot is zeroed with clear, one memclr: the byte loop
// it replaces was a third of an open-loop set-up's CPU, and cost 1.6 times
// as much when an unrelated package moved where the linker placed it.
func (in *inode) encode(dst []byte) {
	clear(dst[:InodeSize])
	binary.BigEndian.PutUint32(dst[0:], uint32(in.ftype))
	binary.BigEndian.PutUint32(dst[4:], in.mode)
	binary.BigEndian.PutUint32(dst[8:], in.nlink)
	binary.BigEndian.PutUint32(dst[12:], in.uid)
	binary.BigEndian.PutUint32(dst[16:], in.gid)
	binary.BigEndian.PutUint32(dst[20:], in.size)
	binary.BigEndian.PutUint32(dst[24:], in.gen)
	binary.BigEndian.PutUint64(dst[28:], uint64(in.atime))
	binary.BigEndian.PutUint64(dst[36:], uint64(in.mtime))
	binary.BigEndian.PutUint64(dst[44:], uint64(in.ctime))
	off := 52
	for _, d := range in.direct {
		binary.BigEndian.PutUint64(dst[off:], uint64(d))
		off += 8
	}
	binary.BigEndian.PutUint64(dst[off:], uint64(in.indirect))
	binary.BigEndian.PutUint64(dst[off+8:], uint64(in.dindirect))
}

// decodeInode parses a 256-byte slot; nil for a free slot.
func decodeInode(num vfs.Ino, src []byte) *inode {
	ft := vfs.FileType(binary.BigEndian.Uint32(src[0:]))
	if ft == 0 {
		return nil
	}
	in := &inode{num: num, ftype: ft}
	in.mode = binary.BigEndian.Uint32(src[4:])
	in.nlink = binary.BigEndian.Uint32(src[8:])
	in.uid = binary.BigEndian.Uint32(src[12:])
	in.gid = binary.BigEndian.Uint32(src[16:])
	in.size = binary.BigEndian.Uint32(src[20:])
	in.gen = binary.BigEndian.Uint32(src[24:])
	in.atime = sim.Time(binary.BigEndian.Uint64(src[28:]))
	in.mtime = sim.Time(binary.BigEndian.Uint64(src[36:]))
	in.ctime = sim.Time(binary.BigEndian.Uint64(src[44:]))
	off := 52
	for i := range in.direct {
		in.direct[i] = int64(binary.BigEndian.Uint64(src[off:]))
		off += 8
	}
	in.indirect = int64(binary.BigEndian.Uint64(src[off:]))
	in.dindirect = int64(binary.BigEndian.Uint64(src[off+8:]))
	return in
}

// inodeBlock returns the physical block holding ino's on-disk slot and the
// slot index within it.
func inodeBlock(ino vfs.Ino) (int64, int) {
	idx := int64(ino - 1)
	return 1 + idx/InodesPerBlock, int(idx % InodesPerBlock)
}

// allocInode takes the lowest free inode number and initializes the
// in-core inode. Every number below inoHint is in use, so the scan starts
// there and finds what a scan from 1 would.
func (fs *FS) allocInode(ft vfs.FileType, mode uint32) *inode {
	for i := fs.inoHint; i <= fs.ninodes; i++ {
		if fs.inodes[i] == nil {
			fs.inoHint = i + 1
			fs.genSeq++
			now := fs.sim.Now()
			in := &inode{
				num: vfs.Ino(i), ftype: ft, mode: mode, nlink: 1,
				gen: fs.genSeq, atime: now, mtime: now, ctime: now,
				dirtyCore: true, dirtyMeta: true,
			}
			fs.inodes[in.num] = in
			return in
		}
	}
	return nil
}

// freeInode releases an inode and all its blocks.
func (fs *FS) freeInode(p *sim.Proc, in *inode) error {
	in.dents, in.names, in.dentsOK = nil, nil, false
	for _, b := range in.direct {
		if b != 0 {
			fs.markFree(b)
			fs.evict(b)
		}
	}
	freeIndirect := func(blk int64, depth int) error {
		var walk func(int64, int) error
		walk = func(b int64, d int) error {
			if b == 0 {
				return nil
			}
			ib, err := fs.getBuf(p, b, true)
			if err != nil {
				return err
			}
			for i := 0; i < PtrsPerBlock; i++ {
				ptr := int64(binary.BigEndian.Uint64(ib.blk.Data()[i*8:]))
				if ptr == 0 {
					continue
				}
				if d > 0 {
					if err := walk(ptr, d-1); err != nil {
						return err
					}
				} else {
					fs.markFree(ptr)
					fs.evict(ptr)
				}
			}
			fs.markFree(b)
			fs.evict(b)
			return nil
		}
		return walk(blk, depth)
	}
	if err := freeIndirect(in.indirect, 0); err != nil {
		return err
	}
	if err := freeIndirect(in.dindirect, 1); err != nil {
		return err
	}
	fs.inodes[in.num] = nil
	fs.inoHint = min(fs.inoHint, int(in.num))
	// Clear the on-disk slot synchronously so the remove is durable.
	return fs.flushInodeSlotCleared(p, in.num)
}

// flushInodeSlotCleared zeroes an inode's on-disk slot.
func (fs *FS) flushInodeSlotCleared(p *sim.Proc, ino vfs.Ino) error {
	phys, slot := inodeBlock(ino)
	// Prefetch before gating, as in flushInode: the device read keeps its
	// ungated concurrency, only encode+write serializes.
	if _, err := fs.getBuf(p, phys, true); err != nil {
		return err
	}
	gate := fs.inodeGate(phys)
	gate.Acquire(p)
	defer gate.Release()
	b, err := fs.getBuf(p, phys, true)
	if err != nil {
		return err
	}
	fs.own(b)
	clear(b.blk.Data()[slot*InodeSize : (slot+1)*InodeSize])
	if err := fs.writeBuf(p, b); err != nil {
		return err
	}
	fs.MetaWrites++
	if fs.ChargeMeta != nil {
		fs.ChargeMeta(p)
	}
	return nil
}

// flushInode writes the inode's block to the device synchronously,
// serializing every in-core inode that lives in that block. The block's
// flush gate is held across encode and device write. With force true the
// write is unconditional (directory-op and setattr callers always commit
// the block, dirty or not); with force false the dirtiness predicate is
// re-checked once the gate is acquired: a caller that queued behind an
// in-flight flush covering its changes finds its flags clean after the
// landing and returns without a second write — the ack waited for the
// platters, which is the whole point of the gate. With metaOnly true the
// re-check considers only stable-storage-relevant dirt (dirtyMeta); an
// inode stale only in its modify time is left to asynchronous update.
func (fs *FS) flushInode(p *sim.Proc, in *inode, metaOnly, force bool) error {
	phys, _ := inodeBlock(in.num)
	// Prefetch the block before taking the gate: a cache miss pays its
	// device read with the same concurrency the ungated code had, and the
	// gated re-fetch below then hits the cache. Serializing only the
	// encode+write section keeps the gate's timing footprint to exactly
	// what the durability invariant requires.
	if _, err := fs.getBuf(p, phys, true); err != nil {
		return err
	}
	gate := fs.inodeGate(phys)
	gate.Acquire(p)
	defer gate.Release()
	if !force {
		if metaOnly {
			if !in.dirtyMeta {
				return nil
			}
		} else if !in.dirtyCore && !in.dirtyMeta {
			return nil
		}
	}
	b, err := fs.getBuf(p, phys, true)
	if err != nil {
		return err
	}
	fs.own(b)
	first := vfs.Ino((phys-1))*InodesPerBlock + 1
	var onStack [InodesPerBlock]*inode
	encoded := onStack[:0]
	data := b.blk.Data()
	// The table holds whole inode blocks: ninodes is a multiple of
	// InodesPerBlock.
	for j, other := range fs.inodes[first : first+InodesPerBlock] {
		if other == nil {
			continue
		}
		other.encode(data[j*InodeSize : (j+1)*InodeSize])
		if other.dirtyCore || other.dirtyMeta {
			// This write carries the inode's un-landed state; mark it
			// pending so sync paths wait for the landing rather than
			// trusting the flags cleared here.
			other.dirtyCore, other.dirtyMeta = false, false
			other.pendingFlush = true
			encoded = append(encoded, other)
		}
	}
	err = fs.writeBuf(p, b)
	for _, other := range encoded {
		other.pendingFlush = false
		if err != nil {
			// Nothing became durable: re-dirty so a later flush retries.
			other.dirtyCore, other.dirtyMeta = true, true
		}
	}
	if err != nil {
		return err
	}
	fs.MetaWrites++
	if fs.ChargeMeta != nil {
		fs.ChargeMeta(p)
	}
	return nil
}

// allocBlock finds a free data block near hint (sequential placement).
func (fs *FS) allocBlock(hint int64) (int64, error) {
	if hint < fs.dataStart || hint >= fs.nblocks {
		hint = fs.rotor
	}
	i := fs.blockMap.firstFree(hint, fs.nblocks)
	if i < 0 {
		i = fs.blockMap.firstFree(fs.dataStart, hint)
	}
	if i < 0 {
		return 0, vfs.ErrNoSpace
	}
	fs.markUsed(i)
	fs.rotor = i + 1
	return i, nil
}

// bmap translates file block fb of in to a physical block. When alloc is
// true, missing data and indirect blocks are allocated; it reports whether
// any metadata (block pointers) changed.
func (fs *FS) bmap(p *sim.Proc, in *inode, fb int64, alloc bool) (phys int64, metaChanged bool, err error) {
	switch {
	case fb < NumDirect:
		if in.direct[fb] == 0 {
			if !alloc {
				return 0, false, nil
			}
			hint := fs.rotor
			if fb > 0 && in.direct[fb-1] != 0 {
				hint = in.direct[fb-1] + 1
			}
			b, err := fs.allocBlock(hint)
			if err != nil {
				return 0, false, err
			}
			in.direct[fb] = b
			metaChanged = true
		}
		return in.direct[fb], metaChanged, nil

	case fb < NumDirect+PtrsPerBlock:
		idx := fb - NumDirect
		if in.indirect == 0 {
			if !alloc {
				return 0, false, nil
			}
			b, err := fs.allocBlock(fs.rotor)
			if err != nil {
				return 0, false, err
			}
			in.indirect = b
			in.indBlocks = append(in.indBlocks, b)
			ib, _ := fs.getBuf(p, b, false) // fresh zero block; no device read
			ib.dirty = true
			metaChanged = true
		}
		ib, err := fs.getBuf(p, in.indirect, true)
		if err != nil {
			return 0, metaChanged, err
		}
		ptr := int64(binary.BigEndian.Uint64(ib.blk.Data()[idx*8:]))
		if ptr == 0 {
			if !alloc {
				return 0, metaChanged, nil
			}
			hint := fs.rotor
			if idx > 0 {
				prev := int64(binary.BigEndian.Uint64(ib.blk.Data()[(idx-1)*8:]))
				if prev != 0 {
					hint = prev + 1
				}
			}
			b, err := fs.allocBlock(hint)
			if err != nil {
				return 0, metaChanged, err
			}
			fs.own(ib)
			binary.BigEndian.PutUint64(ib.blk.Data()[idx*8:], uint64(b))
			ib.dirty = true
			ptr = b
			metaChanged = true
		}
		return ptr, metaChanged, nil

	default:
		idx := fb - NumDirect - PtrsPerBlock
		if idx >= PtrsPerBlock*PtrsPerBlock {
			return 0, false, vfs.ErrFBig
		}
		l1 := idx / PtrsPerBlock
		l2 := idx % PtrsPerBlock
		if in.dindirect == 0 {
			if !alloc {
				return 0, false, nil
			}
			b, err := fs.allocBlock(fs.rotor)
			if err != nil {
				return 0, false, err
			}
			in.dindirect = b
			in.indBlocks = append(in.indBlocks, b)
			db, _ := fs.getBuf(p, b, false)
			db.dirty = true
			metaChanged = true
		}
		db, err := fs.getBuf(p, in.dindirect, true)
		if err != nil {
			return 0, metaChanged, err
		}
		l1ptr := int64(binary.BigEndian.Uint64(db.blk.Data()[l1*8:]))
		if l1ptr == 0 {
			if !alloc {
				return 0, metaChanged, nil
			}
			b, err := fs.allocBlock(fs.rotor)
			if err != nil {
				return 0, metaChanged, err
			}
			fs.own(db)
			binary.BigEndian.PutUint64(db.blk.Data()[l1*8:], uint64(b))
			db.dirty = true
			in.indBlocks = append(in.indBlocks, b)
			lb, _ := fs.getBuf(p, b, false)
			lb.dirty = true
			l1ptr = b
			metaChanged = true
		}
		lb, err := fs.getBuf(p, l1ptr, true)
		if err != nil {
			return 0, metaChanged, err
		}
		ptr := int64(binary.BigEndian.Uint64(lb.blk.Data()[l2*8:]))
		if ptr == 0 {
			if !alloc {
				return 0, metaChanged, nil
			}
			b, err := fs.allocBlock(fs.rotor)
			if err != nil {
				return 0, metaChanged, err
			}
			fs.own(lb)
			binary.BigEndian.PutUint64(lb.blk.Data()[l2*8:], uint64(b))
			lb.dirty = true
			ptr = b
			metaChanged = true
		}
		return ptr, metaChanged, nil
	}
}

// getInode fetches a live in-core inode.
func (fs *FS) getInode(ino vfs.Ino) (*inode, error) {
	if ino >= vfs.Ino(len(fs.inodes)) || fs.inodes[ino] == nil {
		return nil, vfs.ErrStale
	}
	return fs.inodes[ino], nil
}
