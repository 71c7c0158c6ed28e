// Package codec provides the compact binary encoding primitives shared
// by the wire protocol and the service description models: varint
// integers, length-prefixed strings and byte slices, and bounds-checked
// reading that turns truncated or corrupt input into errors instead of
// panics.
//
// The paper stresses that bandwidth matters in dynamic (often wireless)
// environments and that "XML-based semantic service descriptions …
// typically are quite large"; a compact binary encoding is the natural
// stand-in for the binary-XML/compression hook the paper proposes, and
// its exact byte counts feed the bandwidth experiments.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is wrapped by all reader errors caused by short input.
var ErrTruncated = errors.New("codec: truncated input")

// ErrTooLong is wrapped when a declared length exceeds sane limits.
var ErrTooLong = errors.New("codec: declared length too long")

// MaxBytes caps any single length-prefixed field. Semantic profiles are
// a few KB; anything beyond this is corruption or an attack.
const MaxBytes = 1 << 24

// Buffer accumulates an encoded message. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// Bytes returns the encoded bytes (not a copy).
func (w *Buffer) Bytes() []byte { return w.b }

// Reset empties the buffer, keeping its capacity for reuse (pooled
// encoders truncate rather than reallocate between messages).
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Len returns the number of bytes written so far.
func (w *Buffer) Len() int { return len(w.b) }

// Uvarint appends an unsigned varint.
func (w *Buffer) Uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// UvarintLen returns the encoded size of v as a uvarint, so a writer
// can account for a length prefix before it writes one.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Varint appends a signed (zigzag) varint.
func (w *Buffer) Varint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

// Byte appends one raw byte.
func (w *Buffer) Byte(v byte) { w.b = append(w.b, v) }

// Bool appends a boolean as one byte.
func (w *Buffer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Float64 appends an IEEE-754 double, big-endian.
func (w *Buffer) Float64(v float64) {
	w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v))
}

// String appends a length-prefixed UTF-8 string.
func (w *Buffer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// Bytes16 appends exactly 16 raw bytes (UUIDs).
func (w *Buffer) Bytes16(v [16]byte) { w.b = append(w.b, v[:]...) }

// BytesVar appends a length-prefixed byte slice.
func (w *Buffer) BytesVar(v []byte) {
	w.Uvarint(uint64(len(v)))
	w.b = append(w.b, v...)
}

// StringSlice appends a count-prefixed slice of strings.
func (w *Buffer) StringSlice(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader decodes a message produced by Buffer. All methods return an
// error wrapping ErrTruncated or ErrTooLong on malformed input and keep
// the reader positioned at the failure point.
type Reader struct {
	b   []byte
	off int
}

// NewReader wraps the byte slice for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset repoints the reader at a new input, keeping the value reusable
// (zero-allocation decode loops embed one Reader and Reset it per
// frame instead of constructing a fresh one on the heap).
func (r *Reader) Reset(b []byte) {
	r.b = b
	r.off = 0
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: uvarint at offset %d", ErrTruncated, r.off)
	}
	r.off += n
	return v, nil
}

// Varint reads a signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: varint at offset %d", ErrTruncated, r.off)
	}
	r.off += n
	return v, nil
}

// Byte reads one raw byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("%w: byte at offset %d", ErrTruncated, r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// Bool reads a boolean byte; any nonzero value is true.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	return b != 0, err
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() (float64, error) {
	if r.Remaining() < 8 {
		return 0, fmt.Errorf("%w: float64 at offset %d", ErrTruncated, r.off)
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.BytesVar()
	return string(b), err
}

// Bytes16 reads exactly 16 raw bytes.
func (r *Reader) Bytes16() ([16]byte, error) {
	var v [16]byte
	if r.Remaining() < 16 {
		return v, fmt.Errorf("%w: 16 bytes at offset %d", ErrTruncated, r.off)
	}
	copy(v[:], r.b[r.off:])
	r.off += 16
	return v, nil
}

// BytesVar reads a length-prefixed byte slice. The returned slice
// aliases the input buffer; callers that retain it must copy.
func (r *Reader) BytesVar() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxBytes {
		return nil, fmt.Errorf("%w: %d bytes at offset %d", ErrTooLong, n, r.off)
	}
	if uint64(r.Remaining()) < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, r.off, r.Remaining())
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

// View reads a length-prefixed string as a substring of src, which must
// hold the bytes the reader decodes: no copy is made, so every view of
// one src shares its single allocation.
func (r *Reader) View(src string) (string, error) {
	b, err := r.BytesVar()
	if err != nil {
		return "", err
	}
	return src[r.off-len(b) : r.off], nil
}

// Count reads the element count that prefixes a string slice. A string
// needs at least one length byte, so a count above Remaining is
// rejected before anything is preallocated for it.
func (r *Reader) Count() (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > MaxBytes {
		return 0, fmt.Errorf("%w: %d strings", ErrTooLong, n)
	}
	if n > uint64(r.Remaining()) {
		return 0, fmt.Errorf("%w: %d strings with %d bytes left", ErrTruncated, n, r.Remaining())
	}
	return int(n), nil
}

// StringSlice reads a count-prefixed string slice.
func (r *Reader) StringSlice() ([]string, error) {
	n, err := r.Count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Expect verifies that the reader is fully consumed; decoding functions
// call it last to reject trailing garbage.
func (r *Reader) Expect(what string) error {
	if r.Remaining() != 0 {
		return fmt.Errorf("codec: %d trailing bytes after %s", r.Remaining(), what)
	}
	return nil
}
