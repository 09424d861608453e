package oncrpc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

// accepted is a successful reply carrying results, as the server's
// success header plus its encoded results put it on the wire.
func accepted(xid uint32, results []byte) *ReplyMsg {
	return &ReplyMsg{XID: xid, Stat: MsgAccepted, AccStat: Success, Verf: NullAuth(), Results: results}
}

func TestCallRoundTrip(t *testing.T) {
	cred := (&UnixCred{Stamp: 99, MachineName: "client1", UID: 1000, GID: 100, GIDs: []uint32{100, 20}}).Encode()
	c := &CallMsg{
		XID:  0xdeadbeef,
		Prog: 100003,
		Vers: 2,
		Proc: 8,
		Cred: OpaqueAuth{Flavor: AuthUnix, Body: cred},
		Verf: NullAuth(),
		Args: []byte{1, 2, 3, 4},
	}
	var got CallMsg
	if err := DecodeCallInto(xdr.Marshal(c), &got); err != nil {
		t.Fatalf("DecodeCallInto: %v", err)
	}
	if got.XID != c.XID || got.Prog != c.Prog || got.Vers != c.Vers || got.Proc != c.Proc {
		t.Fatalf("header mismatch: %+v vs %+v", got, c)
	}
	if got.Cred.Flavor != AuthUnix || !bytes.Equal(got.Cred.Body, cred) {
		t.Fatalf("cred = %v %v, want AUTH_UNIX %v", got.Cred.Flavor, got.Cred.Body, cred)
	}
	if !bytes.Equal(got.Args, c.Args) {
		t.Fatalf("args = %v, want %v", got.Args, c.Args)
	}
}

// TestCallEncodeToIsTheCallHeader: a CallMsg encodes as AppendCallHeader
// followed by its args, byte for byte, so the client's header-then-args
// encode and a whole CallMsg put the same call on the wire.
func TestCallEncodeToIsTheCallHeader(t *testing.T) {
	cred := OpaqueAuth{Flavor: AuthUnix, Body: (&UnixCred{MachineName: "c"}).Encode()}
	args := []byte{5, 6, 7, 8}
	e := xdr.NewEncoder(nil)
	AppendCallHeader(e, 77, 100003, 2, 8, cred, NullAuth())
	e.Raw(args)
	whole := xdr.Marshal(&CallMsg{XID: 77, Prog: 100003, Vers: 2, Proc: 8, Cred: cred, Verf: NullAuth(), Args: args})
	if !bytes.Equal(e.Bytes(), whole) {
		t.Fatalf("AppendCallHeader+args = %x, CallMsg = %x", e.Bytes(), whole)
	}
}

func TestReplyRoundTripSuccess(t *testing.T) {
	var got ReplyMsg
	if err := DecodeReplyInto(xdr.Marshal(accepted(42, []byte{9, 8, 7, 6})), &got); err != nil {
		t.Fatalf("DecodeReplyInto: %v", err)
	}
	if got.XID != 42 || got.Stat != MsgAccepted || got.AccStat != Success {
		t.Fatalf("reply = %+v", got)
	}
	if !bytes.Equal(got.Results, []byte{9, 8, 7, 6}) {
		t.Fatalf("results = %v", got.Results)
	}
}

func TestReplyErrorStatuses(t *testing.T) {
	for _, st := range []AcceptStat{ProgUnavail, ProcUnavail, GarbageArgs, SystemErr} {
		var got ReplyMsg
		if err := DecodeReplyInto(xdr.Marshal(ErrorReply(7, st)), &got); err != nil {
			t.Fatalf("DecodeReplyInto(%v): %v", st, err)
		}
		if got.AccStat != st {
			t.Fatalf("AccStat = %v, want %v", got.AccStat, st)
		}
		if len(got.Results) != 0 {
			t.Fatalf("error reply carried results")
		}
	}
}

func TestReplyProgMismatch(t *testing.T) {
	r := &ReplyMsg{XID: 1, Stat: MsgAccepted, AccStat: ProgMismatch, Verf: NullAuth(), MismatchLow: 2, MismatchHigh: 3}
	var got ReplyMsg
	if err := DecodeReplyInto(xdr.Marshal(r), &got); err != nil {
		t.Fatalf("DecodeReplyInto: %v", err)
	}
	if got.MismatchLow != 2 || got.MismatchHigh != 3 {
		t.Fatalf("mismatch range = %d..%d", got.MismatchLow, got.MismatchHigh)
	}
}

func TestReplyDenied(t *testing.T) {
	var got ReplyMsg
	if err := DecodeReplyInto(xdr.Marshal(&ReplyMsg{XID: 5, Stat: MsgDenied}), &got); err != nil {
		t.Fatalf("DecodeReplyInto: %v", err)
	}
	if got.Stat != MsgDenied {
		t.Fatalf("Stat = %v", got.Stat)
	}
}

func TestDecodeCallRejectsReply(t *testing.T) {
	if err := DecodeCallInto(xdr.Marshal(accepted(1, nil)), &CallMsg{}); !errors.Is(err, ErrNotCall) {
		t.Fatalf("DecodeCallInto(reply) = %v, want ErrNotCall", err)
	}
}

func TestDecodeReplyRejectsCall(t *testing.T) {
	c := &CallMsg{XID: 1, Cred: NullAuth(), Verf: NullAuth()}
	if err := DecodeReplyInto(xdr.Marshal(c), &ReplyMsg{}); !errors.Is(err, ErrNotReply) {
		t.Fatalf("DecodeReplyInto(call) = %v, want ErrNotReply", err)
	}
}

func TestDecodeCallRejectsBadRPCVersion(t *testing.T) {
	b := xdr.Marshal(&CallMsg{XID: 1, Cred: NullAuth(), Verf: NullAuth()})
	b[11] = 3 // rpcvers field low byte
	if err := DecodeCallInto(b, &CallMsg{}); !errors.Is(err, ErrRPCMismatch) {
		t.Fatalf("bad rpcvers: %v, want ErrRPCMismatch", err)
	}
}

func TestDecodeCallTruncated(t *testing.T) {
	b := xdr.Marshal(&CallMsg{XID: 1, Cred: NullAuth(), Verf: NullAuth(), Args: []byte{1}})
	for n := 0; n < len(b)-1; n += 3 {
		if err := DecodeCallInto(b[:n], &CallMsg{}); err == nil {
			t.Fatalf("DecodeCallInto accepted %d-byte truncation", n)
		}
	}
}

func TestQuickCallRoundTrip(t *testing.T) {
	f := func(xid, prog, vers, proc uint32, args []byte) bool {
		if len(args) > 8192 {
			args = args[:8192]
		}
		c := &CallMsg{XID: xid, Prog: prog, Vers: vers, Proc: proc, Cred: NullAuth(), Verf: NullAuth(), Args: args}
		var got CallMsg
		err := DecodeCallInto(xdr.Marshal(c), &got)
		return err == nil && got.XID == xid && got.Prog == prog &&
			got.Vers == vers && got.Proc == proc && bytes.Equal(got.Args, args)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReplyRoundTrip(t *testing.T) {
	f := func(xid uint32, results []byte) bool {
		if len(results) > 8192 {
			results = results[:8192]
		}
		var got ReplyMsg
		err := DecodeReplyInto(xdr.Marshal(accepted(xid, results)), &got)
		return err == nil && got.XID == xid && bytes.Equal(got.Results, results)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
