package oncrpc

import (
	"testing"

	"repro/internal/xdr"
)

// The "exactly-sized" single-buffer encode paths rely on these size
// functions being exact: an undercount silently costs an append regrowth
// per message, an overcount wastes retained capacity.

func TestCallMsgEncodedSizeExact(t *testing.T) {
	cred := (&UnixCred{MachineName: "client-9", UID: 3, GID: 4, GIDs: []uint32{1, 2, 3}}).Encode()
	for _, c := range []*CallMsg{
		{XID: 1, Prog: 100003, Vers: 2, Proc: 8, Cred: OpaqueAuth{Flavor: AuthUnix, Body: cred}, Verf: NullAuth(), Args: make([]byte, 8200)},
		{XID: 2, Cred: NullAuth(), Verf: NullAuth()},
		{XID: 3, Cred: OpaqueAuth{Flavor: AuthUnix, Body: []byte{1, 2, 3}}, Verf: NullAuth(), Args: []byte{9}},
	} {
		enc := xdr.Marshal(c)
		if len(enc) != c.EncodedSize() {
			t.Errorf("CallMsg EncodedSize = %d, encoded %d", c.EncodedSize(), len(enc))
		}
		hdr := CallHeaderSize(c.Cred, c.Verf)
		if hdr != len(enc)-len(c.Args) {
			t.Errorf("CallHeaderSize = %d, actual header = %d", hdr, len(enc)-len(c.Args))
		}
	}
}

func TestReplyMsgEncodedSizeExact(t *testing.T) {
	for _, r := range []*ReplyMsg{
		accepted(7, make([]byte, 100)),
		accepted(8, nil),
		ErrorReply(9, GarbageArgs),
		{XID: 10, Stat: MsgAccepted, AccStat: ProgMismatch, Verf: NullAuth(), MismatchLow: 2, MismatchHigh: 2},
		{XID: 11, Stat: MsgDenied},
	} {
		if n := len(xdr.Marshal(r)); n != r.EncodedSize() {
			t.Errorf("ReplyMsg (stat=%d acc=%d) EncodedSize = %d, encoded %d",
				r.Stat, r.AccStat, r.EncodedSize(), n)
		}
	}
	// The server fast-path header must match ReplyMsg's accepted-success
	// encoding byte for byte.
	e := xdr.NewEncoder(nil)
	AppendSuccessHeader(e, 7)
	full := xdr.Marshal(accepted(7, nil))
	if string(e.Bytes()) != string(full) {
		t.Errorf("AppendSuccessHeader bytes differ from the accepted-success ReplyMsg encoding")
	}
	if len(e.Bytes()) != SuccessHeaderSize {
		t.Errorf("SuccessHeaderSize = %d, actual = %d", SuccessHeaderSize, len(e.Bytes()))
	}
}
