// Package oncrpc implements the ONC Remote Procedure Call message protocol,
// version 2 (RFC 1057): call and reply headers, the AUTH_NULL and AUTH_UNIX
// credential flavors, and accept/reject status handling. It is transport
// neutral; NFS runs it over UDP datagrams.
package oncrpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/xdr"
)

// RPCVersion is the only supported RPC protocol version.
const RPCVersion = 2

// MsgType discriminates calls from replies.
type MsgType uint32

// Message types.
const (
	Call  MsgType = 0
	Reply MsgType = 1
)

// AuthFlavor identifies a credential/verifier style.
type AuthFlavor uint32

// Authentication flavors.
const (
	AuthNull AuthFlavor = 0
	AuthUnix AuthFlavor = 1
)

// ReplyStat is the top-level reply discriminant.
type ReplyStat uint32

// Reply statuses.
const (
	MsgAccepted ReplyStat = 0
	MsgDenied   ReplyStat = 1
)

// AcceptStat describes the fate of an accepted call.
type AcceptStat uint32

// Accept statuses.
const (
	Success      AcceptStat = 0
	ProgUnavail  AcceptStat = 1
	ProgMismatch AcceptStat = 2
	ProcUnavail  AcceptStat = 3
	GarbageArgs  AcceptStat = 4
	SystemErr    AcceptStat = 5
)

// Errors surfaced by the codec.
var (
	ErrBadMessage  = errors.New("oncrpc: malformed message")
	ErrRPCMismatch = errors.New("oncrpc: rpc version mismatch")
	ErrNotCall     = errors.New("oncrpc: message is not a call")
	ErrNotReply    = errors.New("oncrpc: message is not a reply")
)

// OpaqueAuth is a credential or verifier.
type OpaqueAuth struct {
	Flavor AuthFlavor
	Body   []byte
}

// NullAuth is the empty AUTH_NULL credential.
func NullAuth() OpaqueAuth { return OpaqueAuth{Flavor: AuthNull} }

// UnixCred is the AUTH_UNIX credential body.
type UnixCred struct {
	Stamp       uint32
	MachineName string
	UID, GID    uint32
	GIDs        []uint32
}

// Encode serializes the credential body.
func (c *UnixCred) Encode() []byte {
	e := xdr.NewEncoder(nil)
	e.Uint32(c.Stamp)
	e.String(c.MachineName)
	e.Uint32(c.UID)
	e.Uint32(c.GID)
	e.Uint32(uint32(len(c.GIDs)))
	for _, g := range c.GIDs {
		e.Uint32(g)
	}
	return e.Bytes()
}

// CallMsg is an RPC call header plus procedure arguments.
type CallMsg struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred OpaqueAuth
	Verf OpaqueAuth
	Args []byte // procedure-specific, already XDR encoded
}

// EncodedSize reports the exact wire size of the call: its header, then
// the args.
func (c *CallMsg) EncodedSize() int { return CallHeaderSize(c.Cred, c.Verf) + len(c.Args) }

// EncodeTo appends the call to e: its header, then the args spliced in
// verbatim.
func (c *CallMsg) EncodeTo(e *xdr.Encoder) {
	AppendCallHeader(e, c.XID, c.Prog, c.Vers, c.Proc, c.Cred, c.Verf)
	e.Raw(c.Args)
}

// CallHeaderSize reports the exact encoded size of the call header
// (everything before the args) for the given credential and verifier.
func CallHeaderSize(cred, verf OpaqueAuth) int {
	return 32 + xdr.OpaqueSize(len(cred.Body)) + xdr.OpaqueSize(len(verf.Body))
}

// AppendCallHeader appends a call header to e; the caller then encodes the
// procedure arguments directly after it, so header and args share one
// buffer (the client-side twin of AppendSuccessHeader).
func AppendCallHeader(e *xdr.Encoder, xid, prog, vers, proc uint32, cred, verf OpaqueAuth) {
	e.Uint32(xid)
	e.Uint32(uint32(Call))
	e.Uint32(RPCVersion)
	e.Uint32(prog)
	e.Uint32(vers)
	e.Uint32(proc)
	e.Uint32(uint32(cred.Flavor))
	e.Opaque(cred.Body)
	e.Uint32(uint32(verf.Flavor))
	e.Opaque(verf.Body)
}

// DecodeCallInto parses a call message into a caller-owned struct (which
// may be pooled). The Args, Cred.Body and Verf.Body fields alias b.
func DecodeCallInto(b []byte, c *CallMsg) error {
	d := xdr.NewDecoder(b)
	var err error
	if c.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if MsgType(mt) != Call {
		return ErrNotCall
	}
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	if v != RPCVersion {
		return ErrRPCMismatch
	}
	if c.Prog, err = d.Uint32(); err != nil {
		return err
	}
	if c.Vers, err = d.Uint32(); err != nil {
		return err
	}
	if c.Proc, err = d.Uint32(); err != nil {
		return err
	}
	cf, err := d.Uint32()
	if err != nil {
		return err
	}
	c.Cred.Flavor = AuthFlavor(cf)
	if c.Cred.Body, err = d.OpaqueRef(); err != nil {
		return err
	}
	vf, err := d.Uint32()
	if err != nil {
		return err
	}
	c.Verf.Flavor = AuthFlavor(vf)
	if c.Verf.Body, err = d.OpaqueRef(); err != nil {
		return err
	}
	c.Args = b[d.Offset():]
	return nil
}

// ReplyMsg is an accepted or denied RPC reply.
type ReplyMsg struct {
	XID     uint32
	Stat    ReplyStat
	Verf    OpaqueAuth
	AccStat AcceptStat
	// MismatchLow/High are set for ProgMismatch replies.
	MismatchLow, MismatchHigh uint32
	Results                   []byte // procedure-specific, already XDR encoded
}

// ErrorReply builds an accepted reply with a non-success status.
func ErrorReply(xid uint32, st AcceptStat) *ReplyMsg {
	return &ReplyMsg{XID: xid, Stat: MsgAccepted, AccStat: st, Verf: NullAuth()}
}

// EncodedSize reports the exact wire size of the reply.
func (r *ReplyMsg) EncodedSize() int {
	if r.Stat == MsgDenied {
		return 24
	}
	n := 20 + xdr.OpaqueSize(len(r.Verf.Body))
	switch r.AccStat {
	case ProgMismatch:
		n += 8
	case Success:
		n += len(r.Results)
	}
	return n
}

// EncodeTo appends the reply to e.
func (r *ReplyMsg) EncodeTo(e *xdr.Encoder) {
	e.Uint32(r.XID)
	e.Uint32(uint32(Reply))
	e.Uint32(uint32(r.Stat))
	if r.Stat == MsgDenied {
		// Only RPC_MISMATCH denial is modelled.
		e.Uint32(0) // RPC_MISMATCH
		e.Uint32(RPCVersion)
		e.Uint32(RPCVersion)
		return
	}
	e.Uint32(uint32(r.Verf.Flavor))
	e.Opaque(r.Verf.Body)
	e.Uint32(uint32(r.AccStat))
	if r.AccStat == ProgMismatch {
		e.Uint32(r.MismatchLow)
		e.Uint32(r.MismatchHigh)
	}
	if r.AccStat == Success {
		e.Raw(r.Results)
	}
}

// SuccessHeaderSize is the encoded size of the header AppendSuccessHeader
// writes: an MSG_ACCEPTED/SUCCESS reply with an AUTH_NULL verifier.
const SuccessHeaderSize = 24

// BootVerfSize is the extra wire bytes a boot-instance verifier adds to a
// success header (an 8-byte opaque body).
const BootVerfSize = 8

// AppendSuccessHeader appends the accepted-success reply header for xid to
// e; the caller then encodes the procedure results directly after it. This
// is the server fast path: header and results share one exactly-sized
// buffer instead of being encoded separately and concatenated.
func AppendSuccessHeader(e *xdr.Encoder, xid uint32) {
	e.Uint32(xid)
	e.Uint32(uint32(Reply))
	e.Uint32(uint32(MsgAccepted))
	e.Uint32(uint32(AuthNull))
	e.Uint32(0) // empty verifier body
	e.Uint32(uint32(Success))
}

// AppendSuccessHeaderBootVerf appends an accepted-success reply header
// whose AUTH_NULL verifier carries an 8-byte boot-instance id. Clients
// compare the id across replies to detect that a server rebooted (and thus
// that its duplicate-request cache is gone). The header is
// SuccessHeaderSize+BootVerfSize bytes.
func AppendSuccessHeaderBootVerf(e *xdr.Encoder, xid uint32, bootID uint64) {
	e.Uint32(xid)
	e.Uint32(uint32(Reply))
	e.Uint32(uint32(MsgAccepted))
	e.Uint32(uint32(AuthNull))
	e.Uint32(8) // verifier body length
	e.Uint32(uint32(bootID >> 32))
	e.Uint32(uint32(bootID))
	e.Uint32(uint32(Success))
}

// BootVerf extracts the boot-instance id from a reply verifier, if one is
// present (8-byte body).
func BootVerf(verf OpaqueAuth) (uint64, bool) {
	if len(verf.Body) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(verf.Body), true
}

// PeekXID reads the transaction id of any RPC message without a full
// decode; receivers use it to route a reply before deciding whether to
// spend a decode on it.
func PeekXID(b []byte) (uint32, bool) {
	if len(b) < 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(b), true
}

// DecodeReplyInto parses a reply message into a caller-owned struct (which
// may be pooled). Results and Verf.Body alias b.
func DecodeReplyInto(b []byte, r *ReplyMsg) error {
	d := xdr.NewDecoder(b)
	*r = ReplyMsg{}
	var err error
	if r.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if MsgType(mt) != Reply {
		return ErrNotReply
	}
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Stat = ReplyStat(st)
	if r.Stat == MsgDenied {
		return nil
	}
	if r.Stat != MsgAccepted {
		return fmt.Errorf("%w: reply stat %d", ErrBadMessage, st)
	}
	vf, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Verf.Flavor = AuthFlavor(vf)
	if r.Verf.Body, err = d.OpaqueRef(); err != nil {
		return err
	}
	as, err := d.Uint32()
	if err != nil {
		return err
	}
	r.AccStat = AcceptStat(as)
	switch r.AccStat {
	case ProgMismatch:
		if r.MismatchLow, err = d.Uint32(); err != nil {
			return err
		}
		if r.MismatchHigh, err = d.Uint32(); err != nil {
			return err
		}
	case Success:
		r.Results = b[d.Offset():]
	}
	return nil
}
