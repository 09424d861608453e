// Package ufs implements an FFS-vintage filesystem (McKusick et al. 1984)
// over a simulated block device: 8K blocks, a fixed inode region, 12 direct
// plus single and double indirect block pointers per inode, a bitmap
// allocator with sequential placement, and a buffer cache supporting
// delayed writes and 64K write clustering (McVoy & Kleiman 1991).
//
// The on-disk format is real: inodes, indirect blocks and data are
// serialized to the device, so a crash test can discard the in-core state,
// re-mount from the platters and verify exactly which writes survived.
package ufs

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Filesystem geometry.
const (
	BlockSize      = 8192
	InodeSize      = 256
	InodesPerBlock = BlockSize / InodeSize
	NumDirect      = 12
	PtrsPerBlock   = BlockSize / 8
	MaxCluster     = 64 * 1024 // largest clustered device transfer
	magic          = 0x19840853
	// MaxFileSize keeps offsets within NFSv2's uint32 range.
	MaxFileSize = 1 << 31
)

// FS is a mounted filesystem instance, the one filesystem the NFS server
// layer and the write gathering engine call. Every method that touches the
// device takes the calling process, so device service time is charged to
// it. A name argument may alias the wire buffer it was decoded from: a
// method that keeps one past the call (Create, Mkdir, Rename) copies it.
type FS struct {
	sim  *sim.Sim
	dev  disk.Device
	fsid uint32

	nblocks     int64
	inodeBlocks int64
	dataStart   int64
	ninodes     int

	// inodes is the in-core inode table, indexed by inode number
	// (ninodes+1 entries; 0 is never used). A nil entry is a free inode.
	inodes   []*inode
	blockMap bitmap // block allocation bitmap (in-core, lent; rebuilt by fsck on mount)
	// freeData counts free entries of blockMap[dataStart:], so Statfs is
	// O(1) instead of a bitmap sweep per call.
	freeData int64
	inoHint  int // no inode number from 1 up to below this is free
	// cache is the buffer cache, indexed by physical block number.
	cache  *block.Table[*buf]
	rotor  int64
	genSeq uint32

	pool         *block.Pool    // backs cache buffers (and COW replacements)
	dirtyScratch []*[]dirtyBlk  // SyncData dirty-list pool
	runScratch   [][]*block.Buf // device-write run pool (WriteBufs arguments)

	// inodeGates serializes on-disk writes of each inode block (lazily
	// created, one gate per block). An inode block aggregates many files'
	// inodes, and flushInode clears their dirty flags at encode time —
	// before the device write lands. Without the gate a second committer
	// could observe those cleared flags, skip its own inode write, and
	// acknowledge while the covering write is still in flight; a crash in
	// that window loses acknowledged metadata (found by the scenario
	// fuzzer). The gate makes "flags clean" imply "image durable": it is
	// held across encode and device write, so a concurrent flushInode
	// waits for the in-flight landing before trusting the flags.
	inodeGates map[int64]*sim.Resource

	// MetaWrites counts synchronous metadata transactions (inode and
	// indirect block writes), the quantity write gathering amortizes.
	MetaWrites uint64
	// DataWrites counts data-block device transactions issued by this FS.
	DataWrites uint64
	// ChargeMeta, when non-nil, is invoked once per metadata block write
	// so a host can bill the CPU cost of preparing the update (the UFS
	// trip the paper's gathering conserves).
	ChargeMeta func(p *sim.Proc)
}

// dirtyBlk pairs a dirty cache buffer with its physical block for the
// clustering sort in SyncData. blk pins the buffer captured at scan time
// (its own reference): the cache entry can be evicted by a concurrent
// truncate/remove or COW-replaced while the flush sleeps in device I/O,
// and the in-flight write must keep targeting the snapshot it captured.
type dirtyBlk struct {
	phys int64
	b    *buf
	blk  *block.Buf
}

// getDirtyScratch takes a reusable dirty-block list. SyncData can run from
// several processes at once (it yields on device I/O), so the scratch is a
// pool, not a single slot.
func (fs *FS) getDirtyScratch() *[]dirtyBlk {
	if n := len(fs.dirtyScratch); n > 0 {
		d := fs.dirtyScratch[n-1]
		fs.dirtyScratch = fs.dirtyScratch[:n-1]
		*d = (*d)[:0]
		return d
	}
	d := make([]dirtyBlk, 0, 16)
	return &d
}

// putDirtyScratch releases the captured buffer references and recycles
// the list. It runs deferred in SyncData, so a kill that unwinds the
// flusher mid-transfer drops the snapshot pins too.
func (fs *FS) putDirtyScratch(d *[]dirtyBlk) {
	for i := range *d {
		if (*d)[i].blk != nil {
			(*d)[i].blk.Release()
		}
		(*d)[i] = dirtyBlk{}
	}
	fs.dirtyScratch = append(fs.dirtyScratch, d)
}

// getRun takes a reusable device-write run (the []*block.Buf argument to
// WriteBufs). SyncData and writeBuf can run from several processes at once
// (they yield on device I/O), so the scratch is pooled.
func (fs *FS) getRun() []*block.Buf {
	if n := len(fs.runScratch); n > 0 {
		r := fs.runScratch[n-1]
		fs.runScratch = fs.runScratch[:n-1]
		return r[:0]
	}
	return make([]*block.Buf, 0, MaxCluster/BlockSize)
}

func (fs *FS) putRun(r []*block.Buf) {
	for i := range r {
		r[i] = nil
	}
	fs.runScratch = append(fs.runScratch, r[:0])
}

// buf is a buffer-cache entry for one filesystem block (32 bytes).
// Readers read blk.Data() directly, while mutators must go through
// own/ownFresh first — the backing buffer may be shared with the platter
// store, the NVRAM dirty map or an in-flight datagram, all of which hold
// point-in-time references that an in-place mutation would corrupt
// (copy-on-write discipline).
type buf struct {
	phys int64
	blk  *block.Buf
	// For data blocks: which file this caches; inode blocks and indirect
	// blocks have owner == 0.
	owner vfs.Ino
	dirty bool
}

// own prepares a cache buffer for partial in-place mutation: if the
// backing buffer is shared, it is replaced by a fresh copy (the one copy a
// partial rewrite of committed contents must pay).
func (fs *FS) own(b *buf) {
	if b.blk.Unique() {
		return
	}
	nb := fs.pool.Get()
	fs.pool.Acct().CountCopy(copy(nb.Data(), b.blk.Data()))
	b.blk.Release()
	b.blk = nb
}

// ownFresh prepares a cache buffer for whole-block overwrite: a shared
// backing buffer is swapped for a fresh one without copying, since every
// byte is about to be rewritten.
func (fs *FS) ownFresh(b *buf) {
	if b.blk.Unique() {
		return
	}
	b.blk.Release()
	b.blk = fs.pool.Get()
}

// adopt points the cache entry at nb (taking a reference), discarding the
// previous backing buffer: the zero-copy landing of a full-block WRITE
// payload.
func (b *buf) adopt(nb *block.Buf) {
	b.blk.Release()
	b.blk = nb.Ref()
}

// Format writes a fresh filesystem onto dev and returns it mounted.
// ninodes is rounded up to a whole inode block.
func Format(s *sim.Sim, dev disk.Device, fsid uint32, ninodes int, acct *block.Accounting) (*FS, error) {
	if dev.BlockSize() != BlockSize {
		return nil, fmt.Errorf("ufs: device block size %d, want %d", dev.BlockSize(), BlockSize)
	}
	ib := int64((ninodes + InodesPerBlock - 1) / InodesPerBlock)
	fs := &FS{
		sim:         s,
		dev:         dev,
		fsid:        fsid,
		nblocks:     dev.NumBlocks(),
		inodeBlocks: ib,
		dataStart:   1 + ib,
		ninodes:     int(ib) * InodesPerBlock,
		pool:        block.Or(acct).NewPool(),
	}
	if fs.dataStart >= fs.nblocks {
		return nil, fmt.Errorf("ufs: device too small: %d blocks", fs.nblocks)
	}
	fs.blockMap = newBitmap(acct, fs.nblocks, fs.dataStart)
	fs.freeData = fs.nblocks - fs.dataStart
	fs.inodes = make([]*inode, fs.ninodes+1) // ino 0 unused
	fs.inoHint = 1
	fs.cache = block.NewTable[*buf](fs.nblocks)
	fs.rotor = fs.dataStart

	// Root directory: ino 1.
	root := fs.allocInode(vfs.TypeDir, 0755)
	if root == nil {
		return nil, fmt.Errorf("ufs: cannot allocate root inode")
	}
	root.nlink = 2
	root.dirtyCore, root.dirtyMeta = true, true
	return fs, nil
}

// Root returns the root directory inode.
func (fs *FS) Root() vfs.Ino { return 1 }

// FSID identifies the filesystem in file handles.
func (fs *FS) FSID() uint32 { return fs.fsid }

// Device returns the backing device.
func (fs *FS) Device() disk.Device { return fs.dev }

// Statfs reports capacity: the block size, data blocks and free blocks.
func (fs *FS) Statfs(p *sim.Proc) (int, int64, int64) {
	return BlockSize, fs.nblocks - fs.dataStart, fs.freeData
}

// bitmap is one bit per block, set when the block is in use.
type bitmap []uint64

// newBitmap returns the map of n blocks whose first used blocks are
// taken (the superblock and the inode region), lent by acct.
func newBitmap(acct *block.Accounting, n, used int64) bitmap {
	m := bitmap(block.Lend[uint64](acct, int((n+63)/64)))
	for i := int64(0); i < used; i++ {
		m.set(i)
	}
	return m
}

func (m bitmap) used(b int64) bool { return m[b>>6]&(1<<(b&63)) != 0 }
func (m bitmap) set(b int64)       { m[b>>6] |= 1 << (b & 63) }
func (m bitmap) clear(b int64)     { m[b>>6] &^= 1 << (b & 63) }

// firstFree returns the lowest free block in [from, to), or -1. It skips a
// full word at a time.
func (m bitmap) firstFree(from, to int64) int64 {
	for b := from; b < to; {
		w := ^m[b>>6] >> (b & 63) // free bits from b to the end of its word
		if w != 0 {
			if f := b + int64(bits.TrailingZeros64(w)); f < to {
				return f
			}
			return -1
		}
		b = (b | 63) + 1
	}
	return -1
}

// markUsed claims block b in the bitmap, maintaining the free counter.
func (fs *FS) markUsed(b int64) {
	if !fs.blockMap.used(b) {
		fs.blockMap.set(b)
		fs.freeData--
	}
}

// markFree releases block b in the bitmap, maintaining the free counter.
func (fs *FS) markFree(b int64) {
	if fs.blockMap.used(b) {
		fs.blockMap.clear(b)
		fs.freeData++
	}
}

// inodeGate returns (creating on first use) the flush gate for the inode
// block at phys. Acquiring it with no flush in flight costs no simulated
// time, so the gate is free outside the contended window it exists for.
func (fs *FS) inodeGate(phys int64) *sim.Resource {
	g, ok := fs.inodeGates[phys]
	if !ok {
		if fs.inodeGates == nil {
			fs.inodeGates = make(map[int64]*sim.Resource)
		}
		g = sim.NewResource(fs.sim, 1)
		fs.inodeGates[phys] = g
	}
	return g
}

// DirtyBlocks reports how many cache buffers are dirty (test/diagnostic).
func (fs *FS) DirtyBlocks() int {
	n := 0
	fs.cache.Range(func(_ int64, b *buf) bool {
		if b.dirty {
			n++
		}
		return true
	})
	return n
}

// superblock layout: magic, nblocks, inodeBlocks, fsid.
func (fs *FS) encodeSuper() []byte {
	b := make([]byte, BlockSize)
	binary.BigEndian.PutUint32(b[0:], magic)
	binary.BigEndian.PutUint64(b[4:], uint64(fs.nblocks))
	binary.BigEndian.PutUint64(b[12:], uint64(fs.inodeBlocks))
	binary.BigEndian.PutUint32(b[20:], fs.fsid)
	return b
}

// devErr maps a device-level failure to the vfs error the NFS layer
// understands; nil passes through.
func devErr(err error) error {
	if err != nil {
		return vfs.ErrIO
	}
	return nil
}

// WriteSuper flushes the superblock (done once at format time by callers
// that care about full recoverability).
func (fs *FS) WriteSuper(p *sim.Proc) error {
	return devErr(fs.dev.WriteBlocks(p, 0, fs.encodeSuper()))
}

// Mount re-reads a filesystem previously written to dev: superblock, then
// every inode block; the allocation bitmaps are rebuilt by walking the
// block pointers of live inodes (what fsck does). All volatile state is
// discarded — this is the crash-recovery entry point.
func Mount(s *sim.Sim, p *sim.Proc, dev disk.Device, acct *block.Accounting) (*FS, error) {
	sb := make([]byte, BlockSize)
	if err := dev.ReadBlocks(p, 0, sb); err != nil {
		return nil, fmt.Errorf("ufs: mount: superblock read: %w", err)
	}
	if binary.BigEndian.Uint32(sb[0:]) != magic {
		return nil, fmt.Errorf("ufs: bad magic on device")
	}
	fs := &FS{
		sim:         s,
		dev:         dev,
		fsid:        binary.BigEndian.Uint32(sb[20:]),
		nblocks:     int64(binary.BigEndian.Uint64(sb[4:])),
		inodeBlocks: int64(binary.BigEndian.Uint64(sb[12:])),
		pool:        block.Or(acct).NewPool(),
	}
	fs.dataStart = 1 + fs.inodeBlocks
	fs.ninodes = int(fs.inodeBlocks) * InodesPerBlock
	fs.blockMap = newBitmap(acct, fs.nblocks, fs.dataStart)
	fs.freeData = fs.nblocks - fs.dataStart
	fs.inodes = make([]*inode, fs.ninodes+1)
	fs.inoHint = 1
	fs.cache = block.NewTable[*buf](fs.nblocks)
	fs.rotor = fs.dataStart

	// Read the inode region and rebuild the tables.
	blk := make([]byte, BlockSize)
	for ib := int64(0); ib < fs.inodeBlocks; ib++ {
		if err := dev.ReadBlocks(p, 1+ib, blk); err != nil {
			return nil, fmt.Errorf("ufs: mount: inode region read: %w", err)
		}
		for j := 0; j < InodesPerBlock; j++ {
			ino := vfs.Ino(ib)*InodesPerBlock + vfs.Ino(j) + 1
			if int(ino) > fs.ninodes {
				break
			}
			in := decodeInode(ino, blk[j*InodeSize:(j+1)*InodeSize])
			if in == nil {
				continue
			}
			fs.inodes[ino] = in
			if err := fs.claimBlocks(p, in); err != nil {
				return nil, fmt.Errorf("ufs: mount: block claim: %w", err)
			}
		}
	}
	return fs, nil
}

// claimBlocks marks every block reachable from in as used, reading indirect
// blocks from the device. Every pointer-bearing block it visits is also
// registered in the inode's indBlocks list: a metadata-only fsync flushes
// dirty indirect blocks by that list, so an indirect block that predates
// the mount must be on it or post-remount pointer updates would never
// reach the platters (lost on the next crash).
// DebugSkipIndirectClaim, when true, skips the indBlocks registration in
// claimBlocks — re-introducing the historical remount bug where indirect
// blocks read at mount time were invisible to metadata-only fsync. It
// exists solely so the scenario fuzzer's planted-bug test can prove the
// durability harness catches the regression. Never set in production code.
var DebugSkipIndirectClaim = false

func (fs *FS) claimBlocks(p *sim.Proc, in *inode) error {
	for _, b := range in.direct {
		if b != 0 {
			fs.markUsed(b)
		}
	}
	claimIndirect := func(blk int64, depth int) error {
		var walk func(int64, int) error
		walk = func(b int64, d int) error {
			if b == 0 {
				return nil
			}
			fs.markUsed(b)
			if !DebugSkipIndirectClaim {
				in.indBlocks = append(in.indBlocks, b)
			}
			raw := make([]byte, BlockSize)
			if err := fs.dev.ReadBlocks(p, b, raw); err != nil {
				return err
			}
			for i := 0; i < PtrsPerBlock; i++ {
				ptr := int64(binary.BigEndian.Uint64(raw[i*8:]))
				if ptr == 0 {
					continue
				}
				if d > 0 {
					if err := walk(ptr, d-1); err != nil {
						return err
					}
				} else {
					fs.markUsed(ptr)
				}
			}
			return nil
		}
		return walk(blk, depth)
	}
	if err := claimIndirect(in.indirect, 0); err != nil {
		return err
	}
	return claimIndirect(in.dindirect, 1)
}

// getBuf returns the cache buffer for physical block phys, reading it from
// the device if fill is true and it is absent. An absent, unfilled buffer
// comes back zeroed (a fresh block's holes must read as zeros). A device
// read failure surfaces as vfs.ErrIO and caches nothing.
func (fs *FS) getBuf(p *sim.Proc, phys int64, fill bool) (*buf, error) {
	if b, ok := fs.cache.Get(phys); ok {
		return b, nil
	}
	if !fill {
		return fs.insertBuf(phys, fs.pool.GetZero()), nil
	}
	blk := fs.pool.Get()
	stored := false
	defer func() {
		// Covers the lost race below, a failed read, and a kill that
		// unwinds this process out of the device read.
		if !stored {
			blk.Release()
		}
	}()
	if err := fs.dev.ReadBlocks(p, phys, blk.Data()); err != nil { // yields
		return nil, vfs.ErrIO
	}
	if b, ok := fs.cache.Get(phys); ok {
		// Another process cached this block while the read slept (two
		// nfsds flushing inodes that share a block race here). Keep its
		// entry — it may already carry dirty mutations — and drop the
		// duplicate read; inserting over it would strand its buffer
		// reference and lose its state.
		return b, nil
	}
	b := fs.insertBuf(phys, blk)
	stored = true
	return b, nil
}

// insertBuf installs blk (whose reference the cache takes over) as the
// entry for phys. Records are never pooled — an evicted record may still
// be referenced by a flusher that captured it before a yield, and reusing
// it would alias two blocks through one pointer.
func (fs *FS) insertBuf(phys int64, blk *block.Buf) *buf {
	b := &buf{phys: phys, blk: blk}
	fs.cache.Set(phys, b)
	return b
}

// evict removes a block from the cache, releasing the cache's reference
// to its backing buffer. The record is tombstoned (blk nil), never
// recycled: a flusher that captured it before yielding on device I/O may
// still hold the pointer, and sees the tombstone instead of an aliased
// reuse. Evicting an uncached block is a no-op.
func (fs *FS) evict(phys int64) {
	b, ok := fs.cache.Get(phys)
	if !ok {
		return
	}
	fs.cache.Delete(phys)
	b.blk.Release()
	b.blk = nil
}

// writeBuf pushes one cache buffer to the device synchronously (zero-copy:
// the device stores a reference to the backing buffer). The flush pins its
// own snapshot reference across the device sleep, and only clears the
// dirty bit if the entry is still current — a concurrent truncate may
// evict it, and a concurrent copy-on-write may replace its buffer, while
// the arm is busy. An already-evicted record is a no-op.
func (fs *FS) writeBuf(p *sim.Proc, b *buf) error {
	if b.blk == nil {
		return nil // evicted while the caller slept in an earlier flush
	}
	blk := b.blk.Ref()
	run := fs.getRun()
	run = append(run, blk)
	defer func() {
		fs.putRun(run)
		blk.Release()
	}()
	if err := fs.dev.WriteBufs(p, b.phys, run); err != nil {
		// The block stays dirty; a later flush retries.
		return vfs.ErrIO
	}
	if b.blk == blk {
		b.dirty = false
	}
	return nil
}

// CachedBufs reports how many cache entries hold a buffer reference
// (leak-check accounting).
func (fs *FS) CachedBufs() int { return fs.cache.Len() }

// DropCaches discards all volatile state without flushing: the crash.
// After this, only Mount can resurrect the filesystem. The cache's buffer
// references are host memory, not stable storage, so they are released;
// contents shared with the platter store live on there.
func (fs *FS) DropCaches() {
	fs.cache.Range(func(phys int64, b *buf) bool {
		fs.cache.Delete(phys)
		b.blk.Release()
		b.blk = nil
		return true
	})
	clear(fs.inodes)
	fs.inoHint = 1
}
