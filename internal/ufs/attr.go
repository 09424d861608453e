package ufs

import (
	"encoding/binary"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// GetAttr returns ino's attributes. They come from the in-core inode; no
// device I/O is needed.
func (fs *FS) GetAttr(p *sim.Proc, ino vfs.Ino) (vfs.Attr, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	return fs.attrOf(in), nil
}

func (fs *FS) attrOf(in *inode) vfs.Attr {
	return vfs.Attr{
		Type:   in.ftype,
		Mode:   in.mode,
		NLink:  in.nlink,
		UID:    in.uid,
		GID:    in.gid,
		Size:   in.size,
		Blocks: (in.size + BlockSize - 1) / BlockSize,
		Gen:    in.gen,
		ATime:  in.atime,
		MTime:  in.mtime,
		CTime:  in.ctime,
	}
}

// SetAttrs applies a SETATTR's changes. The change is committed to the
// device before returning, as SETATTR requires.
func (fs *FS) SetAttrs(p *sim.Proc, ino vfs.Ino, sa vfs.SetAttr) (vfs.Attr, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	if sa.Mode != nil {
		in.mode = *sa.Mode
	}
	if sa.UID != nil {
		in.uid = *sa.UID
	}
	if sa.GID != nil {
		in.gid = *sa.GID
	}
	if sa.Size != nil {
		if err := fs.truncate(p, in, *sa.Size); err != nil {
			return vfs.Attr{}, err
		}
	}
	in.ctime = fs.sim.Now()
	in.dirtyCore, in.dirtyMeta = true, true
	if err := fs.flushInode(p, in, false, true); err != nil {
		return vfs.Attr{}, err
	}
	return fs.attrOf(in), nil
}

// truncate shrinks or extends the file to size bytes, freeing blocks
// beyond the new end.
func (fs *FS) truncate(p *sim.Proc, in *inode, size uint32) error {
	if size >= in.size {
		in.size = size
		return nil
	}
	// A shrinking truncate invalidates any memoized directory parse.
	in.dents, in.names, in.dentsOK = nil, nil, false
	keep := (int64(size) + BlockSize - 1) / BlockSize
	// Free direct blocks beyond the cut.
	for fb := keep; fb < NumDirect; fb++ {
		if in.direct[fb] != 0 {
			fs.markFree(in.direct[fb])
			fs.evict(in.direct[fb])
			in.direct[fb] = 0
		}
	}
	// Free single-indirect data blocks beyond the cut.
	if in.indirect != 0 {
		ib, err := fs.getBuf(p, in.indirect, true)
		if err != nil {
			return err
		}
		for i := 0; i < PtrsPerBlock; i++ {
			fb := int64(NumDirect + i)
			ptr := int64(binary.BigEndian.Uint64(ib.blk.Data()[i*8:]))
			if ptr != 0 && fb >= keep {
				fs.markFree(ptr)
				fs.evict(ptr)
				fs.own(ib)
				binary.BigEndian.PutUint64(ib.blk.Data()[i*8:], 0)
				ib.dirty = true
			}
		}
		if keep <= NumDirect {
			fs.markFree(in.indirect)
			fs.evict(in.indirect)
			in.indirect = 0
		}
	}
	// Free double-indirect data blocks beyond the cut.
	if in.dindirect != 0 {
		db, err := fs.getBuf(p, in.dindirect, true)
		if err != nil {
			return err
		}
		for l1 := 0; l1 < PtrsPerBlock; l1++ {
			l1ptr := int64(binary.BigEndian.Uint64(db.blk.Data()[l1*8:]))
			if l1ptr == 0 {
				continue
			}
			lb, err := fs.getBuf(p, l1ptr, true)
			if err != nil {
				return err
			}
			anyKept := false
			for l2 := 0; l2 < PtrsPerBlock; l2++ {
				fb := int64(NumDirect + PtrsPerBlock + l1*PtrsPerBlock + l2)
				ptr := int64(binary.BigEndian.Uint64(lb.blk.Data()[l2*8:]))
				if ptr == 0 {
					continue
				}
				if fb >= keep {
					fs.markFree(ptr)
					fs.evict(ptr)
					fs.own(lb)
					binary.BigEndian.PutUint64(lb.blk.Data()[l2*8:], 0)
					lb.dirty = true
				} else {
					anyKept = true
				}
			}
			if !anyKept {
				fs.markFree(l1ptr)
				fs.evict(l1ptr)
				fs.own(db)
				binary.BigEndian.PutUint64(db.blk.Data()[l1*8:], 0)
				db.dirty = true
			}
		}
		if keep <= NumDirect+PtrsPerBlock {
			fs.markFree(in.dindirect)
			fs.evict(in.dindirect)
			in.dindirect = 0
		}
	}
	in.size = size
	in.dirtyMeta = true
	return nil
}
