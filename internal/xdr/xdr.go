// Package xdr implements External Data Representation (XDR, RFC 1014)
// encoding and decoding as used by ONC RPC and NFS. All quantities are
// big-endian and padded to 4-byte boundaries.
package xdr

import (
	"errors"
	"fmt"
	"unsafe"
)

// Errors returned by the decoder.
var (
	ErrShortBuffer = errors.New("xdr: short buffer")
	ErrBadLength   = errors.New("xdr: implausible length")
	ErrBadBool     = errors.New("xdr: boolean not 0 or 1")
)

// maxLen bounds variable-length opaque/string sizes to protect decoders fed
// garbage: nothing in NFSv2 exceeds 8K data plus small headers.
const maxLen = 1 << 20

// Encoder appends XDR-encoded values to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder writing into buf (may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Reset points the encoder at buf, discarding what it held: a long-lived
// Encoder value (one per server or client, since encoding never yields)
// serves every message without a heap object per RPC.
func (e *Encoder) Reset(buf []byte) { e.buf = buf }

// Bytes returns the encoded bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (XDR "unsigned hyper").
func (e *Encoder) Uint64(v uint64) {
	e.Uint32(uint32(v >> 32))
	e.Uint32(uint32(v))
}

// Bool encodes a boolean as 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// FixedOpaque encodes fixed-length opaque data (no length prefix), padded
// to a multiple of 4 bytes.
func (e *Encoder) FixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for pad := (4 - len(b)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// Opaque encodes variable-length opaque data: length then padded bytes.
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.FixedOpaque(b)
}

// String encodes an XDR string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	for pad := (4 - len(s)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// Raw appends pre-encoded bytes verbatim (no length prefix, no padding).
// It is the splice point for embedding an already-XDR-encoded body, such
// as RPC procedure arguments, without a second encoding pass.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// OpaqueSize reports the encoded size of variable-length opaque data of n
// bytes: length word plus payload padded to a 4-byte boundary.
func OpaqueSize(n int) int { return 4 + (n+3)&^3 }

// Record is a wire record with one encode form: its exact encoded size,
// and an append of itself onto an encoder. The client and server size a
// wire head by EncodedSize and fill it with EncodeTo, so a header and the
// record after it share one buffer.
type Record interface {
	EncodedSize() int
	EncodeTo(e *Encoder)
}

// Marshal encodes r into a fresh buffer of exactly its size, for callers
// that want the record alone (tests building messages by hand).
func Marshal(r Record) []byte {
	e := NewEncoder(make([]byte, 0, r.EncodedSize()))
	r.EncodeTo(e)
	return e.Bytes()
}

// Decoder consumes XDR-encoded values from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset reports the current read position.
func (d *Decoder) Offset() int { return d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off:]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Bool decodes a boolean, insisting on 0 or 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: %d", ErrBadBool, v)
	}
}

// FixedOpaque decodes n bytes of fixed-length opaque data plus padding.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || n > maxLen {
		return nil, ErrBadLength
	}
	padded := n + (4-n%4)%4
	if d.Remaining() < padded {
		return nil, ErrShortBuffer
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+n])
	d.off += padded
	return out, nil
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, n)
	}
	return d.FixedOpaque(int(n))
}

// FixedOpaqueRef is FixedOpaque without the defensive copy: the returned
// slice aliases the decoder's buffer. Use it only when the buffer is
// immutable for the life of the result (wire payloads are).
func (d *Decoder) FixedOpaqueRef(n int) ([]byte, error) {
	if n < 0 || n > maxLen {
		return nil, ErrBadLength
	}
	padded := n + (4-n%4)%4
	if d.Remaining() < padded {
		return nil, ErrShortBuffer
	}
	out := d.buf[d.off : d.off+n : d.off+n]
	d.off += padded
	return out, nil
}

// OpaqueRef decodes variable-length opaque data without copying; the
// result aliases the decoder's buffer.
func (d *Decoder) OpaqueRef() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, n)
	}
	return d.FixedOpaqueRef(int(n))
}

// String decodes an XDR string. The conversion is its one copy: the bytes
// are read in place, not first copied out as Opaque would.
func (d *Decoder) String() (string, error) {
	b, err := d.OpaqueRef()
	return string(b), err
}

// StringRef is String without the copy: the returned string aliases the
// decoder's buffer, under OpaqueRef's contract that the buffer is immutable
// for the life of the result (wire payloads are). A caller that keeps the
// name past the message must copy it (strings.Clone). It is the tree's one
// use of unsafe.
func (d *Decoder) StringRef() (string, error) {
	b, err := d.OpaqueRef()
	if len(b) == 0 {
		return "", err
	}
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}
