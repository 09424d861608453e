package ufs

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Directory contents live in ordinary data blocks with a compact record
// format: entry count (4 bytes), then for each entry an inode number
// (8 bytes), a name length (2 bytes) and the name; entries straddle block
// boundaries freely.
//
// What a mutation is charged: every block of the directory is marked dirty
// and written synchronously (clustered by SyncData), then any dirty
// indirect block, then the inode — so namespace operations are durable
// when they return, and a create in a directory of k blocks writes k + 2
// blocks however little of it changed (the 19-block root of a 5,000-client
// fan-in: 21 blocks in 5 device transactions per MKDIR). FFS would rewrite
// only the block holding the entry. The whole-directory flush is kept
// because every recorded result was taken under it: charging less is a
// change to the model, to be made on its own and re-recorded (ROADMAP:
// the one-block directory flush under "Namespace durability is
// falsifiable"). Only the host work is incremental — see storeDir.

const (
	dirHeaderSize = 4  // entry count
	direntFixed   = 10 // inode number + name length
)

// A dirent's name is its own: the names the FileSystem methods take may
// alias a wire buffer, so the three places that store one (makeNode and
// Rename's two branches) copy it with strings.Clone.
type dirent struct {
	ino  vfs.Ino
	name string
}

// A dirIndex maps every name of a parsed directory to its inode number.
// Its keys are the dirents' own strings, never a caller's.
type dirIndex map[string]vfs.Ino

// indexOf returns the position of name in ents, or -1. Lookups go through
// the dirIndex; this scan is only for a removal, which needs the position.
func indexOf(ents []dirent, name string) int {
	for i, e := range ents {
		if e.name == name {
			return i
		}
	}
	return -1
}

// loadDir returns the directory's parsed contents and their name index.
// The parse is memoized on the inode and the memo is edited in place:
// readers (Lookup, Readdir) finish with it before they yield, and a mutator
// edits the slice and the index together and hands both to storeDir
// without yielding in between — one that has to yield first (Rename
// dropping its target, Rmdir reading the victim) calls loadDir again
// afterwards. The memo never changes simulated timing — directory blocks
// stay in the buffer cache once read, so a reparse would cost no virtual
// time either.
func (fs *FS) loadDir(p *sim.Proc, in *inode) ([]dirent, dirIndex, error) {
	if in.ftype != vfs.TypeDir {
		return nil, nil, vfs.ErrNotDir
	}
	if in.dentsOK {
		return in.dents, in.names, nil
	}
	ents, names, err := fs.parseDir(p, in)
	if err != nil {
		return nil, nil, err
	}
	// Memoize only quiescent parses: while a storeDir is mid-flush on this
	// inode (it yields for disk I/O), a parse may observe a transient state
	// that no later invalidation would clear.
	if in.storing == 0 {
		in.dents, in.names, in.dentsOK = ents, names, true
	}
	return ents, names, nil
}

// parseDir reads and parses the directory's contents from the cache/device
// and indexes them by name.
func (fs *FS) parseDir(p *sim.Proc, in *inode) ([]dirent, dirIndex, error) {
	var raw []byte
	for {
		f0 := fs.sim.EventsFired()
		raw = make([]byte, in.size)
		if in.size > 0 {
			if _, err := fs.readRaw(p, in, 0, raw); err != nil {
				return nil, nil, err
			}
		}
		if fs.sim.EventsFired() == f0 {
			break
		}
		// The read slept in the device (a cold cache), so the size and the
		// blocks already copied may have changed under it: concurrent first
		// loads would all take the same stale directory and each write back
		// only its own entry. The blocks are in core now; read again for
		// one consistent copy.
	}
	if len(raw) < dirHeaderSize {
		return nil, dirIndex{}, nil
	}
	n := binary.BigEndian.Uint32(raw)
	ents := make([]dirent, 0, n)
	names := make(dirIndex, n)
	off := dirHeaderSize
	for i := uint32(0); i < n; i++ {
		if off+direntFixed > len(raw) {
			return nil, nil, fmt.Errorf("ufs: corrupt directory %d", in.num)
		}
		ino := vfs.Ino(binary.BigEndian.Uint64(raw[off:]))
		nl := int(binary.BigEndian.Uint16(raw[off+8:]))
		off += direntFixed
		if off+nl > len(raw) {
			return nil, nil, fmt.Errorf("ufs: corrupt directory %d", in.num)
		}
		name := string(raw[off : off+nl])
		ents = append(ents, dirent{ino: ino, name: name})
		names[name] = ino
		off += nl
	}
	return ents, names, nil
}

// storeDir makes ents, indexed by names, the directory's contents and
// commits them synchronously (data and metadata both durable on return).
// first is the index of the first entry that differs from what the
// directory held when ents was loaded, and off its byte offset; the bytes
// of the entries before it are already in the buffer cache where they
// belong, so only the count header and the entries from first on are
// encoded and copied — host work in the bytes that changed, not in the
// size of the directory. The simulated work is that of a whole rewrite:
// see writeDir.
//
// It invalidates the memoized parse and its index and re-validates them as
// ents and names only if the cache update ran without yielding. Otherwise
// concurrent mutators of the same directory may have interleaved, the memo
// stays invalid, and the next quiescent loadDir rebuilds it from the
// buffer cache at zero simulated cost.
func (fs *FS) storeDir(p *sim.Proc, in *inode, ents []dirent, names dirIndex, first, off int) error {
	in.dents, in.names, in.dentsOK = nil, nil, false
	in.storing++
	defer func() { in.storing-- }()
	n := 0
	for _, e := range ents[first:] {
		n += direntFixed + len(e.name)
	}
	tail := make([]byte, 0, n)
	for _, e := range ents[first:] {
		tail = binary.BigEndian.AppendUint64(tail, uint64(e.ino))
		tail = binary.BigEndian.AppendUint16(tail, uint16(len(e.name)))
		tail = append(tail, e.name...)
	}
	f0 := fs.sim.EventsFired()
	if err := fs.writeDir(p, in, uint32(len(ents)), off, tail); err != nil {
		return err
	}
	in.size = uint32(off + len(tail))
	now := fs.sim.Now()
	in.mtime, in.ctime = now, now
	in.dirtyCore, in.dirtyMeta = true, true
	if fs.sim.EventsFired() == f0 {
		// writeDir ran without yielding (no event fired), so nothing could
		// interleave: the buffer cache holds exactly ents. Re-validate the
		// memo now, before the flushes below yield, so concurrent readers
		// and mutators work on it.
		in.dents, in.names, in.dentsOK = ents, names, true
	}
	// Directory writes are synchronous end to end.
	if err := fs.SyncData(p, in.num, 0, in.size); err != nil {
		return err
	}
	if err := fs.flushDirtyIndirect(p, in); err != nil {
		return err
	}
	return fs.flushInode(p, in, false, true)
}

// direntOffset is the byte offset of ents[i] in the directory's encoding.
func direntOffset(ents []dirent, i int) int {
	off := dirHeaderSize
	for _, e := range ents[:i] {
		off += direntFixed + len(e.name)
	}
	return off
}

// dirEnd is the byte offset where an entry appended to the directory goes.
func dirEnd(in *inode) int { return max(int(in.size), dirHeaderSize) }

// readRaw reads file bytes without touching atime (directory internal).
func (fs *FS) readRaw(p *sim.Proc, in *inode, off uint32, out []byte) (int, error) {
	read := 0
	n := len(out)
	for read < n {
		fb := int64(off+uint32(read)) / BlockSize
		bo := int64(off+uint32(read)) % BlockSize
		take := BlockSize - int(bo)
		if take > n-read {
			take = n - read
		}
		phys, _, err := fs.bmap(p, in, fb, false)
		if err != nil {
			return read, err
		}
		if phys == 0 {
			for i := 0; i < take; i++ {
				out[read+i] = 0
			}
		} else {
			b, err := fs.getBuf(p, phys, true)
			if err != nil {
				return read, err
			}
			copy(out[read:read+take], b.blk.Data()[bo:bo+int64(take)])
		}
		read += take
	}
	return read, nil
}

// writeDir brings the directory's cached blocks to a new state: count in
// the header, and tail — the encoding of the entries that changed — at
// byte offset off, where the directory now ends. Bytes between the header
// and off stay as they are. Every block up to the new end is marked dirty,
// the ones no changed byte falls in without a copy: their buffers already
// hold the right bytes, and a whole rewrite would have dirtied them and had
// the caller's SyncData write them too. Blocks past the new end are left
// alone, stale bytes and all (callers flush).
func (fs *FS) writeDir(p *sim.Proc, in *inode, count uint32, off int, tail []byte) error {
	end := off + len(tail)
	for fb := int64(0); fb*BlockSize < int64(end); fb++ {
		lo := int(fb) * BlockSize // the block holds directory bytes [lo, hi)
		hi := min(lo+BlockSize, end)
		from := max(off, lo) // tail bytes land in [from, hi), if from < hi
		// With the tail starting right behind the header the two are one
		// run, and a full block inside the run is rewritten whole.
		whole := hi-lo == BlockSize && (from == lo || off == dirHeaderSize)
		phys, mc, err := fs.bmap(p, in, fb, true)
		if err != nil {
			return err
		}
		// A block that is new or rewritten whole has nothing to keep; any
		// other is read from the device if it is not cached (it always is:
		// loading the directory cached it, and live blocks are never
		// evicted).
		b, err := fs.getBuf(p, phys, !mc && !whole)
		if err != nil {
			return err
		}
		b.owner = in.num
		if fb == 0 || from < hi {
			if whole {
				fs.ownFresh(b)
			} else {
				fs.own(b)
			}
			n := 0
			if fb == 0 {
				binary.BigEndian.PutUint32(b.blk.Data(), count)
				n = dirHeaderSize
			}
			if from < hi {
				n += copy(b.blk.Data()[from-lo:hi-lo], tail[from-off:hi-off])
			}
			fs.pool.Acct().CountCopy(n)
		}
		b.dirty = true
		if mc {
			in.dirtyMeta = true
		}
	}
	return nil
}

// Lookup implements vfs.FileSystem.
func (fs *FS) Lookup(p *sim.Proc, dir vfs.Ino, name string) (vfs.Ino, error) {
	din, err := fs.getInode(dir)
	if err != nil {
		return 0, err
	}
	switch name {
	case ".", "":
		return dir, nil
	case "..":
		// Parent pointers are not tracked; root is its own parent and the
		// NFS layer resolves ".." only at the root in these workloads.
		return dir, nil
	}
	_, names, err := fs.loadDir(p, din)
	if err != nil {
		return 0, err
	}
	if ino, ok := names[name]; ok {
		return ino, nil
	}
	return 0, vfs.ErrNoEnt
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(p *sim.Proc, dir vfs.Ino, name string, mode uint32) (vfs.Ino, error) {
	return fs.makeNode(p, dir, name, mode, vfs.TypeReg)
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(p *sim.Proc, dir vfs.Ino, name string, mode uint32) (vfs.Ino, error) {
	ino, err := fs.makeNode(p, dir, name, mode, vfs.TypeDir)
	if err != nil {
		return 0, err
	}
	in := fs.inodes[ino]
	in.nlink = 2
	return ino, nil
}

func (fs *FS) makeNode(p *sim.Proc, dir vfs.Ino, name string, mode uint32, ft vfs.FileType) (vfs.Ino, error) {
	if len(name) == 0 || len(name) > 255 {
		return 0, vfs.ErrNoEnt
	}
	din, err := fs.getInode(dir)
	if err != nil {
		return 0, err
	}
	ents, names, err := fs.loadDir(p, din)
	if err != nil {
		return 0, err
	}
	if _, ok := names[name]; ok {
		return 0, vfs.ErrExist
	}
	in := fs.allocInode(ft, mode)
	if in == nil {
		return 0, vfs.ErrNoSpace
	}
	kept := strings.Clone(name)
	ents = append(ents, dirent{ino: in.num, name: kept})
	names[kept] = in.num
	if err := fs.storeDir(p, din, ents, names, len(ents)-1, dirEnd(din)); err != nil {
		return 0, err
	}
	// New inode durable too.
	if err := fs.flushInode(p, in, false, true); err != nil {
		return 0, err
	}
	return in.num, nil
}

// Remove implements vfs.FileSystem.
func (fs *FS) Remove(p *sim.Proc, dir vfs.Ino, name string) error {
	return fs.unlink(p, dir, name, false)
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(p *sim.Proc, dir vfs.Ino, name string) error {
	return fs.unlink(p, dir, name, true)
}

func (fs *FS) unlink(p *sim.Proc, dir vfs.Ino, name string, wantDir bool) error {
	din, err := fs.getInode(dir)
	if err != nil {
		return err
	}
	ents, names, err := fs.loadDir(p, din)
	if err != nil {
		return err
	}
	i := indexOf(ents, name)
	if i < 0 {
		return vfs.ErrNoEnt
	}
	tin, err := fs.getInode(ents[i].ino)
	if err != nil {
		return err
	}
	if wantDir {
		if tin.ftype != vfs.TypeDir {
			return vfs.ErrNotDir
		}
		sub, _, err := fs.loadDir(p, tin)
		if err != nil {
			return err
		}
		if len(sub) > 0 {
			return vfs.ErrNotEmpty
		}
		// Reading the victim may have slept; take the parent again.
		if ents, names, err = fs.loadDir(p, din); err != nil {
			return err
		}
		if i = indexOf(ents, name); i < 0 || ents[i].ino != tin.num {
			return vfs.ErrNoEnt
		}
	} else if tin.ftype == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	delete(names, name)
	if err := fs.storeDir(p, din, slices.Delete(ents, i, i+1), names, i, direntOffset(ents, i)); err != nil {
		return err
	}
	tin.nlink--
	if tin.nlink == 0 || (wantDir && tin.nlink <= 1) {
		return fs.freeInode(p, tin)
	}
	return fs.flushInode(p, tin, false, true)
}

// Rename implements vfs.FileSystem: it moves fromName in fromDir to toName
// in toDir, replacing any existing regular file at the destination.
func (fs *FS) Rename(p *sim.Proc, fromDir vfs.Ino, fromName string, toDir vfs.Ino, toName string) error {
	fdin, err := fs.getInode(fromDir)
	if err != nil {
		return err
	}
	_, fnames, err := fs.loadDir(p, fdin)
	if err != nil {
		return err
	}
	moved, ok := fnames[fromName]
	if !ok {
		return vfs.ErrNoEnt
	}
	tdin, err := fs.getInode(toDir)
	if err != nil {
		return err
	}
	// An existing destination goes first. Dropping it clears its inode slot
	// on the device, which yields, so the entries are taken afresh after it.
	_, tnames, err := fs.loadDir(p, tdin)
	if err != nil {
		return err
	}
	if ino, ok := tnames[toName]; ok && ino != moved {
		if err := fs.dropTarget(p, ino); err != nil {
			return err
		}
	}
	fents, fnames, err := fs.loadDir(p, fdin)
	if err != nil {
		return err
	}
	idx := indexOf(fents, fromName)
	if idx < 0 || fents[idx].ino != moved {
		return vfs.ErrNoEnt
	}
	if fdin == tdin {
		// Same-directory rename: single dir rewrite.
		first := idx
		if _, ok := fnames[toName]; ok {
			if j := indexOf(fents, toName); j != idx {
				fents = slices.Delete(fents, j, j+1)
				if j < idx {
					idx--
				}
				first = min(idx, j)
			}
		}
		kept := strings.Clone(toName)
		delete(fnames, fromName)
		fnames[kept] = moved
		fents[idx].name = kept
		return fs.storeDir(p, fdin, fents, fnames, first, direntOffset(fents, first))
	}
	delete(fnames, fromName)
	if err := fs.storeDir(p, fdin, slices.Delete(fents, idx, idx+1), fnames, idx, direntOffset(fents, idx)); err != nil {
		return err
	}
	tents, tnames, err := fs.loadDir(p, tdin)
	if err != nil {
		return err
	}
	first, off := len(tents), dirEnd(tdin)
	if _, ok := tnames[toName]; ok {
		first = indexOf(tents, toName)
		off = direntOffset(tents, first)
		tents = slices.Delete(tents, first, first+1)
	}
	kept := strings.Clone(toName)
	tnames[kept] = moved
	return fs.storeDir(p, tdin, append(tents, dirent{ino: moved, name: kept}), tnames, first, off)
}

// dropTarget unlinks the regular file a rename replaces.
func (fs *FS) dropTarget(p *sim.Proc, ino vfs.Ino) error {
	tin, err := fs.getInode(ino)
	if err != nil {
		return err
	}
	if tin.ftype == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	tin.nlink--
	if tin.nlink == 0 {
		return fs.freeInode(p, tin)
	}
	return nil
}

// Readdir implements vfs.FileSystem. The cookie is the index of the next
// entry; count bounds the total name bytes returned. The entries are
// appended to dst after loadDir, the last yield.
func (fs *FS) Readdir(p *sim.Proc, dir vfs.Ino, cookie uint32, count int, dst []vfs.DirEntry) ([]vfs.DirEntry, bool, error) {
	din, err := fs.getInode(dir)
	if err != nil {
		return dst, false, err
	}
	ents, _, err := fs.loadDir(p, din)
	if err != nil {
		return dst, false, err
	}
	// The entry at the cookie always goes, whatever count says.
	bytes := 0
	for i := int(cookie); i < len(ents); i++ {
		bytes += 16 + len(ents[i].name)
		if bytes > count && i > int(cookie) {
			return dst, false, nil
		}
		dst = append(dst, vfs.DirEntry{Ino: ents[i].ino, Name: ents[i].name, Cookie: uint32(i + 1)})
	}
	return dst, true, nil
}
