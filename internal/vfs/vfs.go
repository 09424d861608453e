// Package vfs defines the filesystem interface the NFS server layer calls
// through, including the hint flags the paper added to the VFS (GFS on
// ULTRIX) layer so the server could steer the filesystem's write policy
// (§6.4): IO_DATAONLY, IO_DELAYDATA, FWRITE_METADATA, and the new
// VOP_SYNCDATA entry point with byte-range hints.
package vfs

import (
	"errors"

	"repro/internal/block"
	"repro/internal/sim"
)

// Ino is an inode number.
type Ino uint64

// IOFlags modify VOP_WRITE behaviour.
type IOFlags uint32

// Write flags. IOSync is classic synchronous write-through. The paper's
// additions: IODataOnly delivers data to the (accelerated) device now but
// delays metadata; IODelayData leaves even the data dirty in the buffer
// cache so UFS can pick its own clustering policy.
const (
	IOSync IOFlags = 1 << iota
	IODataOnly
	IODelayData
)

// FsyncFlags modify VOP_FSYNC behaviour.
type FsyncFlags uint32

// Fsync flags. FWrite is the classic full flush; FWriteMetadata restricts
// the flush to the inode and indirect blocks.
const (
	FWrite FsyncFlags = 1 << iota
	FWriteMetadata
)

// FileType mirrors the NFS file types the filesystem can hold.
type FileType uint32

// File types.
const (
	TypeReg FileType = 1
	TypeDir FileType = 2
)

// Attr is the attribute set the server layer needs.
type Attr struct {
	Type   FileType
	Mode   uint32
	NLink  uint32
	UID    uint32
	GID    uint32
	Size   uint32
	Blocks uint32
	Gen    uint32
	ATime  sim.Time
	MTime  sim.Time
	CTime  sim.Time
}

// SetAttr carries the fields of a SETATTR; nil pointers mean "leave".
type SetAttr struct {
	Mode *uint32
	UID  *uint32
	GID  *uint32
	Size *uint32
}

// DirEntry is one directory entry.
type DirEntry struct {
	Ino    Ino
	Name   string
	Cookie uint32
}

// Errors returned by filesystem implementations.
var (
	ErrNoEnt    = errors.New("vfs: no such file or directory")
	ErrExist    = errors.New("vfs: file exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrNoSpace  = errors.New("vfs: no space on device")
	ErrStale    = errors.New("vfs: stale file reference")
	ErrFBig     = errors.New("vfs: file too large")
	// ErrIO reports a device-level I/O failure (media error, failed
	// controller); the NFS layer maps it to NFS3ERR_IO-style status.
	ErrIO = errors.New("vfs: I/O error")
)

// FileSystem is the interface between the NFS server layer and the local
// filesystem. All methods that touch the device take the calling process
// so device service time can be charged to it. A name argument may alias
// the wire buffer it was decoded from; an implementation that keeps one
// past the call copies it.
type FileSystem interface {
	// Root returns the root directory inode.
	Root() Ino
	// FSID identifies the filesystem in file handles.
	FSID() uint32

	// Lookup resolves name within directory dir.
	Lookup(p *sim.Proc, dir Ino, name string) (Ino, error)
	// Create makes a regular file; it is fully synchronous (data for the
	// directory plus both inodes are durable when it returns), as NFS
	// requires. name may alias a wire buffer: the entry keeps a copy.
	Create(p *sim.Proc, dir Ino, name string, mode uint32) (Ino, error)
	// Mkdir makes a directory, fully synchronously. name may alias a wire
	// buffer: the entry keeps a copy.
	Mkdir(p *sim.Proc, dir Ino, name string, mode uint32) (Ino, error)
	// Remove unlinks a regular file, fully synchronously.
	Remove(p *sim.Proc, dir Ino, name string) error
	// Rmdir removes an empty directory.
	Rmdir(p *sim.Proc, dir Ino, name string) error
	// Rename moves an entry, fully synchronously. toName may alias a wire
	// buffer: the entry keeps a copy.
	Rename(p *sim.Proc, fromDir Ino, fromName string, toDir Ino, toName string) error
	// Readdir appends to dst the entries starting after cookie, up to
	// count bytes of names, and returns the extended slice, so a caller
	// that passes its own scratch allocates nothing.
	Readdir(p *sim.Proc, dir Ino, cookie uint32, count int, dst []DirEntry) ([]DirEntry, bool, error)

	// GetAttr returns attributes.
	GetAttr(p *sim.Proc, ino Ino) (Attr, error)
	// SetAttrs applies attribute changes synchronously.
	SetAttrs(p *sim.Proc, ino Ino, sa SetAttr) (Attr, error)

	// Read fills buf from the file at off; short reads at EOF.
	Read(p *sim.Proc, ino Ino, off uint32, buf []byte) (int, error)
	// Write is VOP_WRITE with the paper's flag extensions.
	Write(p *sim.Proc, ino Ino, off uint32, data []byte, flags IOFlags) error
	// SyncData is VOP_SYNCDATA: flush dirty data blocks overlapping
	// [from,to) to the device, clustering adjacent blocks.
	SyncData(p *sim.Proc, ino Ino, from, to uint32) error
	// Fsync is VOP_FSYNC. With FWriteMetadata only the inode and indirect
	// blocks are flushed; with FWrite alone everything dirty is.
	Fsync(p *sim.Proc, ino Ino, flags FsyncFlags) error

	// Statfs reports capacity.
	Statfs(p *sim.Proc) (blockSize int, blocks, free int64)
}

// BlockWriter is the optional zero-copy write entry point: a filesystem
// that implements it can land a refcounted payload buffer directly in its
// cache (adopting the buffer for aligned full-block writes) instead of
// memmoving the bytes out of the wire. The server write layer probes for
// it once and falls back to Write otherwise. The caller keeps its own
// reference to b; the filesystem takes another if it retains the buffer.
type BlockWriter interface {
	WriteBuf(p *sim.Proc, ino Ino, off uint32, b *block.Buf, n int, flags IOFlags) error
}

// BlockReader is the optional zero-copy read entry point, the mirror of
// BlockWriter: a filesystem that implements it answers a read that is a
// prefix of one cached block, of a length XDR would not pad, with a
// reference to that block instead of memmoving the bytes into out. b is
// nil for every other read (holes, unaligned or block-spanning requests,
// odd-length tails, reads at or past EOF), which fills out exactly as
// Read does. A non-nil b belongs to the caller, who must Release it and
// must never write through it; its first n bytes are the data.
type BlockReader interface {
	ReadBuf(p *sim.Proc, ino Ino, off uint32, out []byte) (b *block.Buf, n int, err error)
}
