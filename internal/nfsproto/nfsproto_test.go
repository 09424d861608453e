package nfsproto

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

func TestFHPacking(t *testing.T) {
	fh := NewFH(7, 123456789, 42)
	if fh.FSID() != 7 {
		t.Fatalf("FSID = %d", fh.FSID())
	}
	if fh.Ino() != 123456789 {
		t.Fatalf("Ino = %d", fh.Ino())
	}
	if fh.Gen() != 42 {
		t.Fatalf("Gen = %d", fh.Gen())
	}
}

func TestFHQuickPacking(t *testing.T) {
	f := func(fsid uint32, ino uint64, gen uint32) bool {
		fh := NewFH(fsid, ino, gen)
		return fh.FSID() == fsid && fh.Ino() == ino && fh.Gen() == gen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFHDistinct(t *testing.T) {
	a := NewFH(1, 2, 3)
	b := NewFH(1, 3, 3)
	if a == b {
		t.Fatal("distinct inodes produced equal handles")
	}
}

func sampleAttr() FAttr {
	return FAttr{
		Type: TypeReg, Mode: 0644, NLink: 1, UID: 10, GID: 20,
		Size: 8192, BlockSize: 8192, Blocks: 2, FSID: 1, FileID: 55,
		ATime: TimeVal{100, 1}, MTime: TimeVal{200, 2}, CTime: TimeVal{300, 3},
	}
}

func TestAttrStatRoundTrip(t *testing.T) {
	r := &AttrStat{Status: OK, Attr: sampleAttr()}
	var got AttrStat
	if err := DecodeAttrStatInto(xdr.Marshal(r), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != *r {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestAttrStatError(t *testing.T) {
	r := &AttrStat{Status: ErrStale}
	var got AttrStat
	if err := DecodeAttrStatInto(xdr.Marshal(r), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Status != ErrStale {
		t.Fatalf("Status = %v", got.Status)
	}
}

// splitWrite encodes a WRITE of data as its head and a body padded to
// XDR's 4-byte unit with zeros, as a sender's body buffer carries it.
func splitWrite(fh FH, off uint32, data []byte) (head, body []byte) {
	e := xdr.NewEncoder(make([]byte, 0, WriteArgsHeadSize))
	n := AppendWriteArgsHead(e, fh, off, len(data))
	body = make([]byte, n)
	copy(body, data)
	return e.Bytes(), body
}

// TestWriteArgsRoundTrip: head plus body of a WRITE are byte for byte
// XDR's contiguous encoding of the arguments, pad included, so a WRITE of
// any length has its exact wire size; the decoder hands back exactly the
// payload, aliasing the body.
func TestWriteArgsRoundTrip(t *testing.T) {
	fh := NewFH(1, 2, 3)
	for _, n := range []int{0, 1, 6, 7, 1000, 8191, MaxData} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		head, body := splitWrite(fh, 16384, data)
		if len(head) != WriteArgsHeadSize {
			t.Fatalf("n=%d: head is %d bytes, WriteArgsHeadSize %d", n, len(head), WriteArgsHeadSize)
		}
		e := xdr.NewEncoder(nil)
		e.FixedOpaque(fh[:])
		e.Uint32(0)
		e.Uint32(16384)
		e.Uint32(uint32(n))
		e.Opaque(data)
		if !bytes.Equal(append(head, body...), e.Bytes()) {
			t.Fatalf("n=%d: head+body differs from the contiguous encoding", n)
		}
		var got WriteArgs
		if err := DecodeWriteArgsSplitInto(head, body, &got); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if got.File != fh || got.Offset != 16384 || got.TotalCount != uint32(n) || !bytes.Equal(got.Data, data) {
			t.Fatalf("n=%d: round trip mismatch: %+v", n, got)
		}
		if n > 0 && &got.Data[0] != &body[0] {
			t.Fatalf("n=%d: Data does not alias the body", n)
		}
	}
}

func TestWriteArgsQuick(t *testing.T) {
	f := func(off uint32, data []byte) bool {
		if len(data) > MaxData {
			data = data[:MaxData]
		}
		head, body := splitWrite(NewFH(1, 9, 0), off, data)
		if len(head)+len(body) != FHSize+12+xdr.OpaqueSize(len(data)) {
			return false
		}
		var got WriteArgs
		err := DecodeWriteArgsSplitInto(head, body, &got)
		return err == nil && got.Offset == off && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadArgsResRoundTrip(t *testing.T) {
	a := &ReadArgs{File: NewFH(1, 7, 0), Offset: 4096, Count: 8192}
	ga, err := DecodeReadArgs(xdr.Marshal(a))
	if err != nil || *ga != *a {
		t.Fatalf("args round trip: %+v err %v", ga, err)
	}
	r := &ReadRes{Status: OK, Attr: sampleAttr(), Data: []byte("hello world")}
	var gr ReadRes
	if err := DecodeReadResInto(xdr.Marshal(r), &gr); err != nil {
		t.Fatalf("res decode: %v", err)
	}
	if gr.Status != OK || !bytes.Equal(gr.Data, r.Data) || gr.Attr != r.Attr {
		t.Fatal("res round trip mismatch")
	}
}

func TestDirOpRoundTrip(t *testing.T) {
	a := &DirOpArgs{Dir: NewFH(1, 1, 0), Name: "passwd"}
	var ga DirOpArgs
	if err := DecodeDirOpArgsInto(xdr.Marshal(a), &ga); err != nil || ga != *a {
		t.Fatalf("args round trip: %+v err %v", ga, err)
	}
	r := &DirOpRes{Status: OK, File: NewFH(1, 9, 1), Attr: sampleAttr()}
	var gr DirOpRes
	if err := DecodeDirOpResInto(xdr.Marshal(r), &gr); err != nil || gr != *r {
		t.Fatalf("res round trip: %+v err %v", gr, err)
	}
}

func TestDirOpResError(t *testing.T) {
	r := &DirOpRes{Status: ErrNoEnt}
	var gr DirOpRes
	if err := DecodeDirOpResInto(xdr.Marshal(r), &gr); err != nil || gr.Status != ErrNoEnt {
		t.Fatalf("error res: %+v err %v", gr, err)
	}
}

func TestCreateArgsRoundTrip(t *testing.T) {
	a := &CreateArgs{
		Where: DirOpArgs{Dir: NewFH(1, 1, 0), Name: "newfile"},
		Attr:  DefaultSAttr(0644),
	}
	var ga CreateArgs
	if err := DecodeCreateArgsInto(xdr.Marshal(a), &ga); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ga != *a {
		t.Fatalf("round trip: %+v vs %+v", ga, a)
	}
}

func TestSetattrArgsRoundTrip(t *testing.T) {
	a := &SetattrArgs{File: NewFH(2, 5, 0), Attr: SAttr{Mode: 0600, UID: NoValue, GID: NoValue, Size: 0, ATime: TimeVal{NoValue, NoValue}, MTime: TimeVal{NoValue, NoValue}}}
	var ga SetattrArgs
	if err := DecodeSetattrArgsInto(xdr.Marshal(a), &ga); err != nil || ga != *a {
		t.Fatalf("round trip: %+v err %v", ga, err)
	}
}

func TestRenameArgsRoundTrip(t *testing.T) {
	a := &RenameArgs{
		From: DirOpArgs{Dir: NewFH(1, 1, 0), Name: "old"},
		To:   DirOpArgs{Dir: NewFH(1, 2, 0), Name: "new"},
	}
	var ga RenameArgs
	if err := DecodeRenameArgsInto(xdr.Marshal(a), &ga); err != nil || ga != *a {
		t.Fatalf("round trip: %+v err %v", ga, err)
	}
}

func TestReaddirRoundTrip(t *testing.T) {
	a := &ReaddirArgs{Dir: NewFH(1, 1, 0), Cookie: 2, Count: 512}
	var ga ReaddirArgs
	if err := DecodeReaddirArgsInto(xdr.Marshal(a), &ga); err != nil || ga != *a {
		t.Fatalf("args round trip: %+v err %v", ga, err)
	}
	r := &ReaddirRes{
		Status: OK,
		Entries: []DirEntry{
			{FileID: 2, Name: ".", Cookie: 1},
			{FileID: 1, Name: "..", Cookie: 2},
			{FileID: 9, Name: "data.bin", Cookie: 3},
		},
		EOF: true,
	}
	var gr ReaddirRes
	if err := DecodeReaddirResInto(xdr.Marshal(r), &gr); err != nil {
		t.Fatalf("res decode: %v", err)
	}
	if gr.Status != OK || !gr.EOF || len(gr.Entries) != 3 {
		t.Fatalf("res = %+v", gr)
	}
	for i := range r.Entries {
		if gr.Entries[i] != r.Entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, gr.Entries[i], r.Entries[i])
		}
	}
}

func TestReaddirEmpty(t *testing.T) {
	r := &ReaddirRes{Status: OK, EOF: true}
	var gr ReaddirRes
	if err := DecodeReaddirResInto(xdr.Marshal(r), &gr); err != nil || len(gr.Entries) != 0 || !gr.EOF {
		t.Fatalf("empty readdir: %+v err %v", gr, err)
	}
}

func TestStatfsRoundTrip(t *testing.T) {
	r := &StatfsRes{Status: OK, TSize: 8192, BSize: 8192, Blocks: 131072, BFree: 1000, BAvail: 900}
	var gr StatfsRes
	if err := DecodeStatfsResInto(xdr.Marshal(r), &gr); err != nil || gr != *r {
		t.Fatalf("round trip: %+v err %v", gr, err)
	}
}

func TestFHArgsRoundTrip(t *testing.T) {
	a := &FHArgs{File: NewFH(3, 33, 1)}
	var ga FHArgs
	if err := DecodeFHArgsInto(xdr.Marshal(a), &ga); err != nil || ga.File != a.File {
		t.Fatalf("round trip: %+v err %v", ga, err)
	}
}

func TestStatusStrings(t *testing.T) {
	if OK.String() != "NFS_OK" {
		t.Fatal(OK.String())
	}
	if ErrStale.String() != "NFSERR_STALE" {
		t.Fatal(ErrStale.String())
	}
	if OK.Err() != nil {
		t.Fatal("OK.Err() != nil")
	}
	if ErrIO.Err() == nil {
		t.Fatal("ErrIO.Err() == nil")
	}
}

func TestProcString(t *testing.T) {
	if ProcWrite.String() != "WRITE" {
		t.Fatal(ProcWrite.String())
	}
	if Proc(99).String() != "PROC(99)" {
		t.Fatal(Proc(99).String())
	}
}

func TestTimeValLess(t *testing.T) {
	a := TimeVal{1, 5}
	b := TimeVal{1, 6}
	c := TimeVal{2, 0}
	if !a.Less(b) || !b.Less(c) || b.Less(a) || a.Less(a) {
		t.Fatal("TimeVal ordering broken")
	}
}

func TestTruncatedDecodersFail(t *testing.T) {
	r := &AttrStat{Status: OK, Attr: sampleAttr()}
	b := xdr.Marshal(r)
	if err := DecodeAttrStatInto(b[:8], &AttrStat{}); err == nil {
		t.Fatal("truncated attrstat accepted")
	}
	head, body := splitWrite(NewFH(1, 1, 1), 0, []byte("xyz"))
	for i := 0; i < len(head); i += 4 {
		if err := DecodeWriteArgsSplitInto(head[:i], body, &WriteArgs{}); err == nil {
			t.Fatalf("writeargs head truncated to %d bytes accepted", i)
		}
	}
	// A body that is not the length word padded to 4 bytes: short, unpadded,
	// one unit long, missing.
	for _, b := range [][]byte{body[:2], body[:3], append(body, 0, 0, 0, 0), nil} {
		if err := DecodeWriteArgsSplitInto(head, b, &WriteArgs{}); err == nil {
			t.Fatalf("writeargs of 3 bytes accepted with a %d-byte body", len(b))
		}
	}
}

// TestReadResSplitMatchesContiguous: head plus body of a split READ reply
// are byte for byte the contiguous encoding (so the wire is the same
// whichever way a reply goes), and the split decoder attaches the body as
// Data without copying and refuses a length that disagrees.
func TestReadResSplitMatchesContiguous(t *testing.T) {
	attr := sampleAttr()
	for _, n := range []int{0, 4, 1000, MaxData} {
		body := bytes.Repeat([]byte{0xAB}, n)
		e := xdr.NewEncoder(make([]byte, 0, ReadResHeadSize))
		AppendReadResHead(e, &attr, n)
		if e.Len() != ReadResHeadSize {
			t.Fatalf("head is %d bytes, ReadResHeadSize %d", e.Len(), ReadResHeadSize)
		}
		whole := xdr.Marshal(&ReadRes{Status: OK, Attr: attr, Data: body})
		if !bytes.Equal(append(e.Bytes(), body...), whole) {
			t.Fatalf("n=%d: head+body differs from the contiguous encoding", n)
		}
		var r ReadRes
		if err := DecodeReadResSplitInto(whole[:ReadResHeadSize], body, &r); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Status != OK || r.Attr != attr || len(r.Data) != n || (n > 0 && &r.Data[0] != &body[0]) {
			t.Fatalf("n=%d: split decode mismatch", n)
		}
		if err := DecodeReadResSplitInto(whole[:ReadResHeadSize], body[:n/2], &r); n > 0 && err == nil {
			t.Fatalf("n=%d: length mismatch accepted", n)
		}
	}
	var r ReadRes
	if err := DecodeReadResSplitInto(xdr.Marshal(&ReadRes{Status: ErrIO}), nil, &r); err == nil {
		t.Fatal("an error result cannot carry a body")
	}
	if err := DecodeReadResSplitInto([]byte{0, 0}, nil, &r); err == nil {
		t.Fatal("truncated head accepted")
	}
}

// TestArgsDecodeIntoAllocatesNothing: the hot-path argument decoders fill
// a caller-owned struct with what the allocating form returns (READ) or
// with what was encoded (FH, and the names of LOOKUP, CREATE and RENAME,
// which alias the message), off the heap.
func TestArgsDecodeIntoAllocatesNothing(t *testing.T) {
	ra := xdr.Marshal(&ReadArgs{File: NewFH(1, 7, 3), Offset: 4096, Count: 8192, TotalCount: 5})
	fa := xdr.Marshal(&FHArgs{File: NewFH(2, 9, 1)})
	dir := NewFH(1, 2, 3)
	da := xdr.Marshal(&DirOpArgs{Dir: dir, Name: "lookup.me"})
	ca := xdr.Marshal(&CreateArgs{Where: DirOpArgs{Dir: dir, Name: "new.file"}, Attr: DefaultSAttr(0644)})
	na := xdr.Marshal(&RenameArgs{From: DirOpArgs{Dir: dir, Name: "old"}, To: DirOpArgs{Dir: dir, Name: "new"}})
	var r ReadArgs
	var f FHArgs
	var d DirOpArgs
	var c CreateArgs
	var rn RenameArgs
	if n := testing.AllocsPerRun(100, func() {
		if DecodeReadArgsInto(ra, &r) != nil || DecodeFHArgsInto(fa, &f) != nil {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Fatalf("%v allocs per decode pair, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if DecodeDirOpArgsInto(da, &d) != nil || DecodeCreateArgsInto(ca, &c) != nil || DecodeRenameArgsInto(na, &rn) != nil {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Fatalf("%v allocs per LOOKUP, CREATE and RENAME decode, want 0", n)
	}
	if d.Name != "lookup.me" || c.Where.Name != "new.file" || rn.From.Name != "old" || rn.To.Name != "new" {
		t.Fatalf("decoded names %q, %q, %q, %q", d.Name, c.Where.Name, rn.From.Name, rn.To.Name)
	}
	wr, _ := DecodeReadArgs(ra)
	if r != *wr || f.File != NewFH(2, 9, 1) {
		t.Fatal("Into forms disagree with what was encoded")
	}
	if DecodeReadArgsInto(ra[:FHSize+8], &r) == nil || DecodeFHArgsInto(fa[:FHSize-1], &f) == nil {
		t.Fatal("truncated arguments accepted")
	}
}

// TestReaddirResIntoReusesItsBacking: a warm ReaddirRes decodes a reply
// without allocating (entry names alias the reply), and it holds names of
// the reply it last decoded and no other, so a long reply followed by a
// short one leaves no name past the short one's entries.
func TestReaddirResIntoReusesItsBacking(t *testing.T) {
	long, short := xdr.Marshal(readdirRes(24)), xdr.Marshal(readdirRes(3))
	var g ReaddirRes
	if n := testing.AllocsPerRun(100, func() {
		if DecodeReaddirResInto(long, &g) != nil {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Errorf("warm 24-entry decode allocates %v objects, want 0", n)
	}
	if len(g.Entries) != 24 || g.Entries[23].Name != "entry-23" {
		t.Fatalf("24-entry decode: %+v", g.Entries)
	}
	if err := DecodeReaddirResInto(short, &g); err != nil || len(g.Entries) != 3 {
		t.Fatalf("3-entry decode: %d entries, %v", len(g.Entries), err)
	}
	for i, e := range g.Entries[3:cap(g.Entries)] {
		if e.Name != "" {
			t.Fatalf("Entries[%d] past the reply still names %q", 3+i, e.Name)
		}
	}
}

// readdirRes is an OK READDIR result of n named entries.
func readdirRes(n int) *ReaddirRes {
	r := &ReaddirRes{Status: OK, EOF: true}
	for i := 0; i < n; i++ {
		r.Entries = append(r.Entries, DirEntry{FileID: uint32(i + 2), Name: fmt.Sprintf("entry-%02d", i), Cookie: uint32(i + 1)})
	}
	return r
}
