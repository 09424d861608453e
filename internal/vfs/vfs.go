// Package vfs holds the vocabulary the NFS server layer and the local
// filesystem share: inode numbers, attributes, directory entries, errors,
// and the hint flags the paper added to the VFS (GFS on ULTRIX) layer so
// the server could steer the filesystem's write policy (§6.4):
// IO_DATAONLY, IO_DELAYDATA and FWRITE_METADATA. The one filesystem is
// internal/ufs, whose methods state the contract each VOP keeps.
package vfs

import (
	"errors"

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
