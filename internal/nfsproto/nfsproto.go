// Package nfsproto implements the NFS version 2 protocol (RFC 1094):
// file handles, attributes, per-procedure argument and result structures,
// and their XDR codecs. The structures are shared by the simulated client
// and server and by the real-UDP example server.
package nfsproto

import (
	"errors"
	"fmt"

	"repro/internal/xdr"
)

// Program identity.
const (
	Program = 100003
	Version = 2
)

// Proc identifies an NFSv2 procedure.
type Proc uint32

// NFSv2 procedure numbers.
const (
	ProcNull       Proc = 0
	ProcGetattr    Proc = 1
	ProcSetattr    Proc = 2
	ProcRoot       Proc = 3 // obsolete
	ProcLookup     Proc = 4
	ProcReadlink   Proc = 5
	ProcRead       Proc = 6
	ProcWritecache Proc = 7 // unused in v2
	ProcWrite      Proc = 8
	ProcCreate     Proc = 9
	ProcRemove     Proc = 10
	ProcRename     Proc = 11
	ProcLink       Proc = 12
	ProcSymlink    Proc = 13
	ProcMkdir      Proc = 14
	ProcRmdir      Proc = 15
	ProcReaddir    Proc = 16
	ProcStatfs     Proc = 17
	// NumProcs is one past the highest procedure number.
	NumProcs = 18
)

var procNames = [NumProcs]string{
	"NULL", "GETATTR", "SETATTR", "ROOT", "LOOKUP", "READLINK", "READ",
	"WRITECACHE", "WRITE", "CREATE", "REMOVE", "RENAME", "LINK", "SYMLINK",
	"MKDIR", "RMDIR", "READDIR", "STATFS",
}

func (p Proc) String() string {
	if int(p) < len(procNames) {
		return procNames[p]
	}
	return fmt.Sprintf("PROC(%d)", uint32(p))
}

// Status is an NFSv2 status code ("stat" in RFC 1094).
type Status uint32

// NFSv2 status codes.
const (
	OK             Status = 0
	ErrPerm        Status = 1
	ErrNoEnt       Status = 2
	ErrIO          Status = 5
	ErrNXIO        Status = 6
	ErrAcces       Status = 13
	ErrExist       Status = 17
	ErrNoDev       Status = 19
	ErrNotDir      Status = 20
	ErrIsDir       Status = 21
	ErrFBig        Status = 27
	ErrNoSpc       Status = 28
	ErrROFS        Status = 30
	ErrNameTooLong Status = 63
	ErrNotEmpty    Status = 66
	ErrDQuot       Status = 69
	ErrStale       Status = 70
	ErrWFlush      Status = 99
)

func (s Status) String() string {
	switch s {
	case OK:
		return "NFS_OK"
	case ErrPerm:
		return "NFSERR_PERM"
	case ErrNoEnt:
		return "NFSERR_NOENT"
	case ErrIO:
		return "NFSERR_IO"
	case ErrAcces:
		return "NFSERR_ACCES"
	case ErrExist:
		return "NFSERR_EXIST"
	case ErrNotDir:
		return "NFSERR_NOTDIR"
	case ErrIsDir:
		return "NFSERR_ISDIR"
	case ErrFBig:
		return "NFSERR_FBIG"
	case ErrNoSpc:
		return "NFSERR_NOSPC"
	case ErrROFS:
		return "NFSERR_ROFS"
	case ErrNotEmpty:
		return "NFSERR_NOTEMPTY"
	case ErrStale:
		return "NFSERR_STALE"
	case ErrWFlush:
		return "NFSERR_WFLUSH"
	default:
		return fmt.Sprintf("NFSERR(%d)", uint32(s))
	}
}

// Err converts a non-OK status to a Go error (nil for OK).
func (s Status) Err() error {
	if s == OK {
		return nil
	}
	return fmt.Errorf("nfs: %s", s)
}

// Protocol size constants.
const (
	FHSize     = 32   // bytes in a file handle
	MaxData    = 8192 // maximum READ/WRITE transfer
	MaxPathLen = 1024
	MaxNameLen = 255
	CookieSize = 4
	BlockSize  = 8192 // client/server transfer unit assumed by the paper
)

// ErrTruncated reports a structurally bad message.
var ErrTruncated = errors.New("nfsproto: truncated message")

// FH is an NFSv2 file handle: 32 opaque bytes. This implementation packs a
// filesystem id and inode number into the first bytes and leaves the rest
// zero, as many servers did.
type FH [FHSize]byte

// NewFH builds a file handle from a filesystem id, an inode number and a
// generation count.
func NewFH(fsid uint32, ino uint64, gen uint32) FH {
	var fh FH
	fh[0] = byte(fsid >> 24)
	fh[1] = byte(fsid >> 16)
	fh[2] = byte(fsid >> 8)
	fh[3] = byte(fsid)
	for i := 0; i < 8; i++ {
		fh[4+i] = byte(ino >> (56 - 8*i))
	}
	fh[12] = byte(gen >> 24)
	fh[13] = byte(gen >> 16)
	fh[14] = byte(gen >> 8)
	fh[15] = byte(gen)
	return fh
}

// FSID extracts the filesystem id.
func (f FH) FSID() uint32 {
	return uint32(f[0])<<24 | uint32(f[1])<<16 | uint32(f[2])<<8 | uint32(f[3])
}

// Ino extracts the inode number.
func (f FH) Ino() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f[4+i])
	}
	return v
}

// Gen extracts the generation count.
func (f FH) Gen() uint32 {
	return uint32(f[12])<<24 | uint32(f[13])<<16 | uint32(f[14])<<8 | uint32(f[15])
}

func (f FH) String() string {
	return fmt.Sprintf("fh(fs=%d,ino=%d,gen=%d)", f.FSID(), f.Ino(), f.Gen())
}

// FType is an NFSv2 file type.
type FType uint32

// File types.
const (
	TypeNone FType = 0
	TypeReg  FType = 1
	TypeDir  FType = 2
	TypeBlk  FType = 3
	TypeChr  FType = 4
	TypeLnk  FType = 5
)

// TimeVal is seconds/microseconds, NFSv2 style.
type TimeVal struct {
	Sec  uint32
	USec uint32
}

// Less reports whether t is earlier than u.
func (t TimeVal) Less(u TimeVal) bool {
	return t.Sec < u.Sec || (t.Sec == u.Sec && t.USec < u.USec)
}

// FAttr is the fattr structure: the file attributes returned by most
// procedures. Write gathering guarantees that all gathered replies carry
// the same MTime.
type FAttr struct {
	Type      FType
	Mode      uint32
	NLink     uint32
	UID, GID  uint32
	Size      uint32
	BlockSize uint32
	Rdev      uint32
	Blocks    uint32
	FSID      uint32
	FileID    uint32
	ATime     TimeVal
	MTime     TimeVal
	CTime     TimeVal
}

func (a *FAttr) encode(e *xdr.Encoder) {
	e.Uint32(uint32(a.Type))
	e.Uint32(a.Mode)
	e.Uint32(a.NLink)
	e.Uint32(a.UID)
	e.Uint32(a.GID)
	e.Uint32(a.Size)
	e.Uint32(a.BlockSize)
	e.Uint32(a.Rdev)
	e.Uint32(a.Blocks)
	e.Uint32(a.FSID)
	e.Uint32(a.FileID)
	e.Uint32(a.ATime.Sec)
	e.Uint32(a.ATime.USec)
	e.Uint32(a.MTime.Sec)
	e.Uint32(a.MTime.USec)
	e.Uint32(a.CTime.Sec)
	e.Uint32(a.CTime.USec)
}

func decodeFAttr(d *xdr.Decoder) (FAttr, error) {
	var a FAttr
	fields := []*uint32{
		(*uint32)(&a.Type), &a.Mode, &a.NLink, &a.UID, &a.GID, &a.Size,
		&a.BlockSize, &a.Rdev, &a.Blocks, &a.FSID, &a.FileID,
		&a.ATime.Sec, &a.ATime.USec, &a.MTime.Sec, &a.MTime.USec,
		&a.CTime.Sec, &a.CTime.USec,
	}
	for _, f := range fields {
		v, err := d.Uint32()
		if err != nil {
			return a, err
		}
		*f = v
	}
	return a, nil
}

// NoValue marks an SAttr field as "do not set".
const NoValue = 0xFFFFFFFF

// SAttr is the sattr structure used by SETATTR/CREATE/MKDIR; fields set to
// NoValue are left unchanged by the server.
type SAttr struct {
	Mode     uint32
	UID, GID uint32
	Size     uint32
	ATime    TimeVal
	MTime    TimeVal
}

// DefaultSAttr returns an SAttr that sets only the mode.
func DefaultSAttr(mode uint32) SAttr {
	return SAttr{
		Mode: mode, UID: NoValue, GID: NoValue, Size: NoValue,
		ATime: TimeVal{NoValue, NoValue}, MTime: TimeVal{NoValue, NoValue},
	}
}

func (a *SAttr) encode(e *xdr.Encoder) {
	e.Uint32(a.Mode)
	e.Uint32(a.UID)
	e.Uint32(a.GID)
	e.Uint32(a.Size)
	e.Uint32(a.ATime.Sec)
	e.Uint32(a.ATime.USec)
	e.Uint32(a.MTime.Sec)
	e.Uint32(a.MTime.USec)
}

func decodeSAttr(d *xdr.Decoder) (SAttr, error) {
	var a SAttr
	fields := []*uint32{
		&a.Mode, &a.UID, &a.GID, &a.Size,
		&a.ATime.Sec, &a.ATime.USec, &a.MTime.Sec, &a.MTime.USec,
	}
	for _, f := range fields {
		v, err := d.Uint32()
		if err != nil {
			return a, err
		}
		*f = v
	}
	return a, nil
}

// AttrStat is the common (status, attributes) result.
type AttrStat struct {
	Status Status
	Attr   FAttr
}

// fattrSize is the encoded size of an FAttr (17 words).
const fattrSize = 68

// EncodedSize reports the exact encoded size of the result.
func (r *AttrStat) EncodedSize() int {
	if r.Status == OK {
		return 4 + fattrSize
	}
	return 4
}

// EncodeTo appends the result to e.
func (r *AttrStat) EncodeTo(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		r.Attr.encode(e)
	}
}

// DecodeAttrStatInto parses an attrstat result into a caller-owned struct
// (which may be pooled or per-client scratch).
func DecodeAttrStatInto(b []byte, r *AttrStat) error {
	d := xdr.NewDecoder(b)
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	*r = AttrStat{Status: Status(st)}
	if r.Status == OK {
		if r.Attr, err = decodeFAttr(d); err != nil {
			return err
		}
	}
	return nil
}

// DirOpArgs names an entry within a directory.
type DirOpArgs struct {
	Dir FH
	// Name, once decoded, aliases the message it was decoded from (wire
	// heads are never written after their send): a holder that keeps it
	// past the message copies it.
	Name string
}

// EncodedSize reports the exact encoded size of the arguments.
func (a *DirOpArgs) EncodedSize() int { return FHSize + xdr.OpaqueSize(len(a.Name)) }

// EncodeTo appends the arguments to e.
func (a *DirOpArgs) EncodeTo(e *xdr.Encoder) {
	e.FixedOpaque(a.Dir[:])
	e.String(a.Name)
}

// DecodeDirOpArgs parses diropargs into a fresh record. Outside
// tests only bench/drivers_sim.go calls it; ROADMAP's "bench/ catches
// up" moves that caller onto DecodeDirOpArgsInto and deletes it.
func DecodeDirOpArgs(b []byte) (*DirOpArgs, error) {
	a := &DirOpArgs{}
	if err := DecodeDirOpArgsInto(b, a); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeDirOpArgsInto parses diropargs into a caller-owned struct.
func DecodeDirOpArgsInto(b []byte, a *DirOpArgs) error {
	return decodeDirOpArgs(xdr.NewDecoder(b), a)
}

func decodeDirOpArgs(d *xdr.Decoder, a *DirOpArgs) error {
	if err := decodeFH(d, &a.Dir); err != nil {
		return err
	}
	var err error
	a.Name, err = d.StringRef()
	return err
}

func decodeFH(d *xdr.Decoder, fh *FH) error {
	b, err := d.FixedOpaqueRef(FHSize)
	if err != nil {
		return err
	}
	copy(fh[:], b)
	return nil
}

// DirOpRes is the (status, file handle, attributes) result of LOOKUP and
// CREATE-family procedures.
type DirOpRes struct {
	Status Status
	File   FH
	Attr   FAttr
}

// EncodedSize reports the exact encoded size of the result.
func (r *DirOpRes) EncodedSize() int {
	if r.Status == OK {
		return 4 + FHSize + fattrSize
	}
	return 4
}

// EncodeTo appends the result to e.
func (r *DirOpRes) EncodeTo(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		e.FixedOpaque(r.File[:])
		r.Attr.encode(e)
	}
}

// DecodeDirOpResInto parses a diropres result into a caller-owned struct.
func DecodeDirOpResInto(b []byte, r *DirOpRes) error {
	d := xdr.NewDecoder(b)
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	*r = DirOpRes{Status: Status(st)}
	if r.Status == OK {
		if err := decodeFH(d, &r.File); err != nil {
			return err
		}
		if r.Attr, err = decodeFAttr(d); err != nil {
			return err
		}
	}
	return nil
}

// SetattrArgs are the SETATTR arguments.
type SetattrArgs struct {
	File FH
	Attr SAttr
}

// EncodedSize reports the exact encoded size of the arguments.
func (a *SetattrArgs) EncodedSize() int { return FHSize + 32 }

// EncodeTo appends the arguments to e.
func (a *SetattrArgs) EncodeTo(e *xdr.Encoder) {
	e.FixedOpaque(a.File[:])
	a.Attr.encode(e)
}

// DecodeSetattrArgsInto parses SETATTR arguments into a caller-owned
// struct.
func DecodeSetattrArgsInto(b []byte, a *SetattrArgs) error {
	d := xdr.NewDecoder(b)
	if err := decodeFH(d, &a.File); err != nil {
		return err
	}
	var err error
	a.Attr, err = decodeSAttr(d)
	return err
}

// ReadArgs are the READ arguments.
type ReadArgs struct {
	File       FH
	Offset     uint32
	Count      uint32
	TotalCount uint32 // unused by the protocol
}

// EncodedSize reports the exact encoded size of the arguments.
func (a *ReadArgs) EncodedSize() int { return FHSize + 12 }

// EncodeTo appends the arguments to e.
func (a *ReadArgs) EncodeTo(e *xdr.Encoder) {
	e.FixedOpaque(a.File[:])
	e.Uint32(a.Offset)
	e.Uint32(a.Count)
	e.Uint32(a.TotalCount)
}

// DecodeReadArgs parses READ arguments into a fresh record. Outside
// tests only bench/drivers_sim.go calls it; ROADMAP's "bench/ catches
// up" moves that caller onto DecodeReadArgsInto and deletes it.
func DecodeReadArgs(b []byte) (*ReadArgs, error) {
	a := &ReadArgs{}
	if err := DecodeReadArgsInto(b, a); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeReadArgsInto parses READ arguments into a caller-owned struct.
func DecodeReadArgsInto(b []byte, a *ReadArgs) error {
	d := xdr.NewDecoder(b)
	if err := decodeFH(d, &a.File); err != nil {
		return err
	}
	var err error
	if a.Offset, err = d.Uint32(); err != nil {
		return err
	}
	if a.Count, err = d.Uint32(); err != nil {
		return err
	}
	if a.TotalCount, err = d.Uint32(); err != nil {
		return err
	}
	return nil
}

// ReadRes is the READ result.
type ReadRes struct {
	Status Status
	Attr   FAttr
	Data   []byte
}

// EncodedSize reports the exact encoded size of the result.
func (r *ReadRes) EncodedSize() int {
	if r.Status == OK {
		return 4 + fattrSize + xdr.OpaqueSize(len(r.Data))
	}
	return 4
}

// EncodeTo appends the result to e.
func (r *ReadRes) EncodeTo(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		r.Attr.encode(e)
		e.Opaque(r.Data)
	}
}

// DecodeReadResInto parses a READ result into a caller-owned struct. Data
// aliases b.
func DecodeReadResInto(b []byte, r *ReadRes) error {
	d := xdr.NewDecoder(b)
	if err := decodeReadResAttrs(d, r); err != nil || r.Status != OK {
		return err
	}
	var err error
	r.Data, err = d.OpaqueRef()
	return err
}

// decodeReadResAttrs resets r and parses what precedes the data of a READ
// result: the status and, when it is OK, the attributes.
func decodeReadResAttrs(d *xdr.Decoder, r *ReadRes) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	*r = ReadRes{Status: Status(st)}
	if r.Status == OK {
		r.Attr, err = decodeFAttr(d)
	}
	return err
}

// ReadResHeadSize is the encoded size of a successful READ result up to
// and including the opaque data length word: the head segment of a split
// (zero-copy) READ reply, whose data bytes travel as a refcounted datagram
// body instead of being memmoved into the wire buffer.
const ReadResHeadSize = 4 + fattrSize + 4

// AppendReadResHead appends the head of a successful READ result — status,
// attributes and the data length word — for n bytes of data that ride as a
// separate datagram body segment. n must be a multiple of 4 (no XDR
// padding can follow a split body).
func AppendReadResHead(e *xdr.Encoder, attr *FAttr, n int) {
	e.Uint32(uint32(OK))
	attr.encode(e)
	e.Uint32(uint32(n)) // opaque data length
}

// DecodeReadResSplitInto parses a split READ result's head from b and
// attaches body as the data, verifying the length word agrees. Data
// aliases body.
func DecodeReadResSplitInto(b []byte, body []byte, r *ReadRes) error {
	d := xdr.NewDecoder(b)
	if err := decodeReadResAttrs(d, r); err != nil {
		return err
	}
	if r.Status != OK {
		return fmt.Errorf("nfsproto: split READ with status %s", r.Status)
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if int(n) != len(body) {
		return fmt.Errorf("nfsproto: split READ length %d, body %d", n, len(body))
	}
	r.Data = body
	return nil
}

// WriteArgs are the decoded WRITE arguments (DecodeWriteArgsSplitInto); a
// WRITE is encoded as a head (AppendWriteArgsHead) and a body. BeginOffset
// and TotalCount are unused by the protocol but present on the wire.
type WriteArgs struct {
	File        FH
	BeginOffset uint32
	Offset      uint32
	TotalCount  uint32
	Data        []byte
}

// WriteArgsHeadSize is the encoded size of WRITE arguments up to and
// including the opaque data length word: the head segment of a split
// WRITE, whose data bytes travel as a refcounted datagram body instead of
// being memmoved into the wire buffer. Every WRITE travels this way.
const WriteArgsHeadSize = FHSize + 16

// AppendWriteArgsHead appends the WRITE argument head — fixed fields plus
// the data length word — for a payload of n bytes whose data rides as a
// separate datagram body segment, and returns that body's length: n
// rounded up to XDR's 4-byte unit, so head plus body is the opaque's
// exact wire size. The pad bytes are whatever the body buffer holds there;
// the decoder never reads them.
func AppendWriteArgsHead(e *xdr.Encoder, fh FH, off uint32, n int) int {
	e.FixedOpaque(fh[:])
	e.Uint32(0) // BeginOffset, unused on the wire
	e.Uint32(off)
	e.Uint32(uint32(n)) // TotalCount
	e.Uint32(uint32(n)) // opaque data length
	return xdr.OpaqueSize(n) - 4
}

// DecodeWriteArgsSplitInto parses a WRITE's argument head from b and
// attaches the first n bytes of body as the data, n being the head's
// length word; body must be n padded to XDR's 4-byte unit, as
// AppendWriteArgsHead sized it. Data aliases body.
func DecodeWriteArgsSplitInto(b []byte, body []byte, a *WriteArgs) error {
	d := xdr.NewDecoder(b)
	if err := decodeFH(d, &a.File); err != nil {
		return err
	}
	var err error
	if a.BeginOffset, err = d.Uint32(); err != nil {
		return err
	}
	if a.Offset, err = d.Uint32(); err != nil {
		return err
	}
	if a.TotalCount, err = d.Uint32(); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if xdr.OpaqueSize(int(n))-4 != len(body) {
		return fmt.Errorf("nfsproto: split WRITE length %d, body %d", n, len(body))
	}
	a.Data = body[:n]
	return nil
}

// CreateArgs are CREATE and MKDIR arguments.
type CreateArgs struct {
	Where DirOpArgs
	Attr  SAttr
}

// EncodedSize reports the exact encoded size of the arguments.
func (a *CreateArgs) EncodedSize() int { return a.Where.EncodedSize() + 32 }

// EncodeTo appends the arguments to e.
func (a *CreateArgs) EncodeTo(e *xdr.Encoder) {
	a.Where.EncodeTo(e)
	a.Attr.encode(e)
}

// DecodeCreateArgsInto parses CREATE/MKDIR arguments into a caller-owned
// struct.
func DecodeCreateArgsInto(b []byte, a *CreateArgs) error {
	d := xdr.NewDecoder(b)
	if err := decodeDirOpArgs(d, &a.Where); err != nil {
		return err
	}
	var err error
	a.Attr, err = decodeSAttr(d)
	return err
}

// RenameArgs are the RENAME arguments.
type RenameArgs struct {
	From DirOpArgs
	To   DirOpArgs
}

// EncodedSize reports the exact encoded size of the arguments.
func (a *RenameArgs) EncodedSize() int { return a.From.EncodedSize() + a.To.EncodedSize() }

// EncodeTo appends the arguments to e.
func (a *RenameArgs) EncodeTo(e *xdr.Encoder) {
	a.From.EncodeTo(e)
	a.To.EncodeTo(e)
}

// DecodeRenameArgsInto parses RENAME arguments into a caller-owned struct.
func DecodeRenameArgsInto(b []byte, a *RenameArgs) error {
	d := xdr.NewDecoder(b)
	if err := decodeDirOpArgs(d, &a.From); err != nil {
		return err
	}
	return decodeDirOpArgs(d, &a.To)
}

// StatusRes is the bare-status result of SETATTR-like procedures on the
// wire (RFC 1094 returns attrstat for SETATTR; REMOVE/RENAME/RMDIR return
// only a status).
type StatusRes struct {
	Status Status
}

// EncodedSize reports the exact encoded size of the result.
func (r *StatusRes) EncodedSize() int { return 4 }

// EncodeTo appends the result to e.
func (r *StatusRes) EncodeTo(e *xdr.Encoder) { e.Uint32(uint32(r.Status)) }

// DecodeStatusResInto parses a status-only result into a caller-owned
// struct.
func DecodeStatusResInto(b []byte, r *StatusRes) error {
	d := xdr.NewDecoder(b)
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	return nil
}

// ReaddirArgs are the READDIR arguments.
type ReaddirArgs struct {
	Dir    FH
	Cookie uint32
	Count  uint32
}

// EncodedSize reports the exact encoded size of the arguments.
func (a *ReaddirArgs) EncodedSize() int { return FHSize + 8 }

// EncodeTo appends the arguments to e.
func (a *ReaddirArgs) EncodeTo(e *xdr.Encoder) {
	e.FixedOpaque(a.Dir[:])
	e.Uint32(a.Cookie)
	e.Uint32(a.Count)
}

// DecodeReaddirArgsInto parses READDIR arguments into a caller-owned
// struct.
func DecodeReaddirArgsInto(b []byte, a *ReaddirArgs) error {
	d := xdr.NewDecoder(b)
	if err := decodeFH(d, &a.Dir); err != nil {
		return err
	}
	var err error
	if a.Cookie, err = d.Uint32(); err != nil {
		return err
	}
	a.Count, err = d.Uint32()
	return err
}

// DirEntry is one READDIR entry.
type DirEntry struct {
	FileID uint32
	// Name, once decoded, aliases the reply it was decoded from, like
	// DirOpArgs.Name.
	Name   string
	Cookie uint32
}

// ReaddirRes is the READDIR result.
type ReaddirRes struct {
	Status  Status
	Entries []DirEntry
	EOF     bool
}

// EncodedSize reports the exact encoded size of the result.
func (r *ReaddirRes) EncodedSize() int {
	if r.Status != OK {
		return 4
	}
	n := 4 + 8
	for _, ent := range r.Entries {
		n += 12 + xdr.OpaqueSize(len(ent.Name))
	}
	return n
}

// EncodeTo appends the result to e.
func (r *ReaddirRes) EncodeTo(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		for _, ent := range r.Entries {
			e.Bool(true) // value follows
			e.Uint32(ent.FileID)
			e.String(ent.Name)
			e.Uint32(ent.Cookie)
		}
		e.Bool(false) // end of list
		e.Bool(r.EOF)
	}
}

// DecodeReaddirResInto parses a READDIR result into a caller-owned struct,
// reusing its Entries backing. The backing is cleared first, so that past
// len(r.Entries) no name aliases an older reply: a reused record pins only
// the message it last decoded.
func DecodeReaddirResInto(b []byte, r *ReaddirRes) error {
	d := xdr.NewDecoder(b)
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	r.EOF = false
	clear(r.Entries[:cap(r.Entries)])
	r.Entries = r.Entries[:0]
	if r.Status != OK {
		return nil
	}
	for {
		more, err := d.Bool()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		var ent DirEntry
		if ent.FileID, err = d.Uint32(); err != nil {
			return err
		}
		if ent.Name, err = d.StringRef(); err != nil {
			return err
		}
		if ent.Cookie, err = d.Uint32(); err != nil {
			return err
		}
		r.Entries = append(r.Entries, ent)
	}
	if r.EOF, err = d.Bool(); err != nil {
		return err
	}
	return nil
}

// StatfsRes is the STATFS result.
type StatfsRes struct {
	Status Status
	TSize  uint32 // optimal transfer size
	BSize  uint32 // block size
	Blocks uint32 // total blocks
	BFree  uint32 // free blocks
	BAvail uint32 // free blocks available to non-root
}

// EncodedSize reports the exact encoded size of the result.
func (r *StatfsRes) EncodedSize() int {
	if r.Status == OK {
		return 24
	}
	return 4
}

// EncodeTo appends the result to e.
func (r *StatfsRes) EncodeTo(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		e.Uint32(r.TSize)
		e.Uint32(r.BSize)
		e.Uint32(r.Blocks)
		e.Uint32(r.BFree)
		e.Uint32(r.BAvail)
	}
}

// DecodeStatfsResInto parses a STATFS result into a caller-owned struct.
func DecodeStatfsResInto(b []byte, r *StatfsRes) error {
	d := xdr.NewDecoder(b)
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	*r = StatfsRes{Status: Status(st)}
	if r.Status != OK {
		return nil
	}
	for _, f := range []*uint32{&r.TSize, &r.BSize, &r.Blocks, &r.BFree, &r.BAvail} {
		if *f, err = d.Uint32(); err != nil {
			return err
		}
	}
	return nil
}

// FHArgs is the single-file-handle argument used by GETATTR, READLINK and
// STATFS.
type FHArgs struct {
	File FH
}

// EncodedSize reports the exact encoded size of the arguments.
func (a *FHArgs) EncodedSize() int { return FHSize }

// EncodeTo appends the arguments to e.
func (a *FHArgs) EncodeTo(e *xdr.Encoder) { e.FixedOpaque(a.File[:]) }

// DecodeFHArgsInto parses a file-handle argument into a caller-owned
// struct.
func DecodeFHArgsInto(b []byte, a *FHArgs) error {
	return decodeFH(xdr.NewDecoder(b), &a.File)
}
