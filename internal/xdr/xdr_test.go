package xdr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff} {
		e := NewEncoder(nil)
		e.Uint32(v)
		if e.Len() != 4 {
			t.Fatalf("Uint32 encoded to %d bytes", e.Len())
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Uint32()
		if err != nil || got != v {
			t.Fatalf("round trip %d -> %d, err %v", v, got, err)
		}
	}
}

func TestUint32BigEndian(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint32(0x01020304)
	want := []byte{1, 2, 3, 4}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoding = %v, want %v", e.Bytes(), want)
	}
}

func TestInt32Negative(t *testing.T) {
	e := NewEncoder(nil)
	e.Int32(-1)
	d := NewDecoder(e.Bytes())
	got, err := d.Int32()
	if err != nil || got != -1 {
		t.Fatalf("round trip -1 -> %d, err %v", got, err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		e := NewEncoder(nil)
		e.Uint64(v)
		if e.Len() != 8 {
			t.Fatalf("Uint64 encoded to %d bytes", e.Len())
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Uint64()
		if err != nil || got != v {
			t.Fatalf("round trip %d -> %d, err %v", v, got, err)
		}
	}
}

func TestBoolStrict(t *testing.T) {
	e := NewEncoder(nil)
	e.Bool(true)
	e.Bool(false)
	e.Uint32(2) // invalid boolean on the wire
	d := NewDecoder(e.Bytes())
	if v, err := d.Bool(); err != nil || !v {
		t.Fatalf("Bool true: %v %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Fatalf("Bool false: %v %v", v, err)
	}
	if _, err := d.Bool(); !errors.Is(err, ErrBadBool) {
		t.Fatalf("Bool(2) err = %v, want ErrBadBool", err)
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		e := NewEncoder(nil)
		e.Opaque(data)
		wantLen := 4 + n + (4-n%4)%4
		if e.Len() != wantLen {
			t.Fatalf("Opaque(%d bytes) encoded to %d, want %d", n, e.Len(), wantLen)
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip %v -> %v", data, got)
		}
		if d.Remaining() != 0 {
			t.Fatalf("leftover %d bytes after n=%d", d.Remaining(), n)
		}
	}
}

func TestFixedOpaqueRoundTrip(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	e := NewEncoder(nil)
	e.FixedOpaque(data)
	if e.Len() != 8 { // 5 bytes + 3 padding
		t.Fatalf("len = %d, want 8", e.Len())
	}
	d := NewDecoder(e.Bytes())
	got, err := d.FixedOpaque(5)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip = %v, err %v", got, err)
	}
}

// stringSink keeps a decoded string on the heap, as a caller that keeps
// the name would.
var stringSink string

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "hello", "exact4ch", "ünïcødé"} {
		e := NewEncoder(nil)
		e.String(s)
		d := NewDecoder(e.Bytes())
		got, err := d.String()
		if err != nil || got != s {
			t.Fatalf("round trip %q -> %q, err %v", s, got, err)
		}
	}

	// The string is the one copy: it survives the buffer being
	// overwritten, and decoding it costs one object, not two.
	e := NewEncoder(nil)
	e.String("hello")
	buf := e.Bytes()
	got, _ := NewDecoder(buf).String()
	copy(buf[4:], "XXXXX")
	if got != "hello" {
		t.Fatalf("decoded string aliases the buffer: %q", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if stringSink, err = NewDecoder(buf).String(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("String costs %v allocs, want 1", n)
	}
}

// StringRef is the copy-free String: the result aliases the buffer (so an
// overwrite shows through), length 0 gives "", a bad or truncated length
// fails as OpaqueRef does, and decoding costs nothing.
func TestStringRefAliases(t *testing.T) {
	for _, s := range []string{"", "a", "hello", "exact4ch", "ünïcødé"} {
		e := NewEncoder(nil)
		e.String(s)
		e.Uint32(7)
		d := NewDecoder(e.Bytes())
		got, err := d.StringRef()
		if err != nil || got != s {
			t.Fatalf("round trip %q -> %q, err %v", s, got, err)
		}
		if v, err := d.Uint32(); err != nil || v != 7 {
			t.Fatalf("after %q: next value %d, err %v (padding not skipped)", s, v, err)
		}
	}

	e := NewEncoder(nil)
	e.String("hello")
	buf := e.Bytes()
	got, _ := NewDecoder(buf).StringRef()
	copy(buf[4:], "XXXXX")
	if got != "XXXXX" {
		t.Fatalf("StringRef copied the buffer: %q after overwrite", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if stringSink, err = NewDecoder(buf).StringRef(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("StringRef costs %v allocs, want 0", n)
	}

	for _, tc := range []struct {
		b    []byte
		want error
	}{
		{[]byte{0, 0}, ErrShortBuffer},                      // truncated length
		{[]byte{0, 0, 0, 8, 1, 2}, ErrShortBuffer},          // claims 8 bytes, has 2
		{[]byte{0, 0, 0, 3, 'a', 'b', 'c'}, ErrShortBuffer}, // padding missing
		{[]byte{0xFF, 0xFF, 0xFF, 0xF0, 0}, ErrBadLength},   // implausible length
		{[]byte{0, 0, 0, 0, 99}, nil},                       // length 0
	} {
		_, ref := NewDecoder(tc.b).OpaqueRef()
		got, err := NewDecoder(tc.b).StringRef()
		if !errors.Is(err, tc.want) || fmt.Sprint(err) != fmt.Sprint(ref) || got != "" {
			t.Fatalf("StringRef(%v) = %q, %v; want %v, as OpaqueRef's %v", tc.b, got, err, tc.want, ref)
		}
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if _, err := d.Uint32(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Uint32 on short buffer: %v", err)
	}
	d = NewDecoder([]byte{0, 0, 0, 8, 1, 2}) // claims 8 bytes, has 2
	if _, err := d.Opaque(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Opaque on short buffer: %v", err)
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint32(0xFFFFFFF0)
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(); !errors.Is(err, ErrBadLength) {
		t.Fatalf("huge opaque length: %v, want ErrBadLength", err)
	}
	d2 := NewDecoder(nil)
	if _, err := d2.FixedOpaque(-1); !errors.Is(err, ErrBadLength) {
		t.Fatalf("negative fixed length: %v, want ErrBadLength", err)
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint32(7)
	e.String("file.txt")
	e.Bool(true)
	e.Uint64(1 << 33)
	e.Opaque([]byte{9, 9, 9})
	d := NewDecoder(e.Bytes())
	if v, _ := d.Uint32(); v != 7 {
		t.Fatal("field 1")
	}
	if s, _ := d.String(); s != "file.txt" {
		t.Fatal("field 2")
	}
	if b, _ := d.Bool(); !b {
		t.Fatal("field 3")
	}
	if v, _ := d.Uint64(); v != 1<<33 {
		t.Fatal("field 4")
	}
	if o, _ := d.Opaque(); !bytes.Equal(o, []byte{9, 9, 9}) {
		t.Fatal("field 5")
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestQuickOpaqueRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		e := NewEncoder(nil)
		e.Opaque(data)
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque()
		return err == nil && bytes.Equal(got, data) && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(a uint32, b uint64, s string, o []byte, flag bool) bool {
		if len(o) > 4096 {
			o = o[:4096]
		}
		e := NewEncoder(nil)
		e.Uint32(a)
		e.Uint64(b)
		e.String(s)
		e.Opaque(o)
		e.Bool(flag)
		d := NewDecoder(e.Bytes())
		ga, e1 := d.Uint32()
		gb, e2 := d.Uint64()
		gs, e3 := d.String()
		og, e4 := d.Opaque()
		gf, e5 := d.Bool()
		for _, err := range []error{e1, e2, e3, e4, e5} {
			if err != nil {
				return false
			}
		}
		return ga == a && gb == b && gs == s && bytes.Equal(og, o) && gf == flag && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLengthAlwaysMultipleOf4(t *testing.T) {
	f := func(o []byte, s string) bool {
		if len(o) > 4096 {
			o = o[:4096]
		}
		e := NewEncoder(nil)
		e.Opaque(o)
		e.String(s)
		return e.Len()%4 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncoderReset: one Encoder value serves message after message, each
// on its own buffer.
func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.Reset(make([]byte, 0, 8))
	e.Uint32(1)
	first := e.Bytes()
	e.Reset(make([]byte, 0, 8))
	e.Uint32(2)
	if !bytes.Equal(first, []byte{0, 0, 0, 1}) || !bytes.Equal(e.Bytes(), []byte{0, 0, 0, 2}) {
		t.Fatalf("messages overlap: %v %v", first, e.Bytes())
	}
}
