// Package wire implements the binary serialization used whenever data
// crosses a node boundary in the simulated cluster. Every tuple, summary,
// and partitioning plan shipped through an exchange operator is encoded
// with this package so that serialization cost — a first-class concern in
// the FUDJ paper's translation layer (Fig. 7) — is actually paid and
// measurable, rather than elided by in-process pointer passing.
//
// The format is a simple length-unprefixed stream: callers are expected
// to know the schema of what they read, exactly as a database runtime
// does. Integers use zig-zag varint encoding; strings and byte slices are
// length-prefixed. Streams that must be cut into self-delimiting,
// checksummed units (served responses, spill runs, checkpoints) wrap
// these payloads in the frame of frame.go.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShortBuffer is returned when a decoder runs out of input bytes.
var ErrShortBuffer = errors.New("wire: short buffer")

// Encoder appends primitive values to a growable byte buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The returned slice aliases the
// encoder's internal buffer and is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the buffer, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a signed zig-zag varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Float64 appends a float64 as 8 little-endian bytes.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends a boolean as a single byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends a single raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// BytesField appends a length-prefixed byte slice.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends bytes verbatim with no length prefix.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder consumes primitive values from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder reading from buf. The decoder does not
// copy buf; the caller must not mutate it while decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset makes d read buf from its start.
func (d *Decoder) Reset(buf []byte) { d.buf, d.off = buf, 0 }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset reports the current read position.
func (d *Decoder) Offset() int { return d.off }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint at offset %d: %w", d.off, ErrShortBuffer)
	}
	d.off += n
	return v, nil
}

// Varint reads a signed zig-zag varint.
func (d *Decoder) Varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint at offset %d: %w", d.off, ErrShortBuffer)
	}
	d.off += n
	return v, nil
}

// Float64 reads an 8-byte little-endian float64.
func (d *Decoder) Float64() (float64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

// Bool reads a single-byte boolean.
func (d *Decoder) Bool() (bool, error) {
	b, err := d.Byte()
	return b != 0, err
}

// Byte reads a single raw byte.
func (d *Decoder) Byte() (byte, error) {
	if d.Remaining() < 1 {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// UvarintCount reads an element count that precedes a sequence of
// elements, each occupying at least minElemSize encoded bytes, and
// rejects counts the remaining input cannot possibly hold. Decoders
// must size allocations with this rather than a raw Uvarint: a
// corrupted length prefix must produce an error, never a giant
// allocation.
func (d *Decoder) UvarintCount(minElemSize int) (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if n > uint64(d.Remaining()/minElemSize) {
		return 0, fmt.Errorf("wire: count %d exceeds the %d remaining bytes: %w",
			n, d.Remaining(), ErrShortBuffer)
	}
	return int(n), nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	off, n, err := d.Span()
	if err != nil {
		return "", err
	}
	return string(d.buf[off : off+n]), nil
}

// Span reads a length-prefixed string as String does, bounds check and
// all, but copies nothing: it returns where the string's bytes lie in
// the input. A decoder of many strings spans them all, copies their run
// once with CopyFrom and slices each string out of that copy.
func (d *Decoder) Span() (off, n int, err error) {
	l, err := d.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	if uint64(d.Remaining()) < l {
		return 0, 0, ErrShortBuffer
	}
	off = d.off
	d.off += int(l)
	return off, int(l), nil
}

// CopyFrom returns one copy of the input from offset start, a position
// the decoder has read past, up to its read position. A string Span
// found at off with length n in that run is copy[off-start:][:n].
func (d *Decoder) CopyFrom(start int) string { return string(d.buf[start:d.off]) }

// BytesField reads a length-prefixed byte slice. The returned slice
// aliases the decoder's input.
func (d *Decoder) BytesField() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(d.Remaining()) < n {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// Marshaler is implemented by values that can encode themselves.
type Marshaler interface {
	MarshalWire(e *Encoder)
}

// Unmarshaler is implemented by values that can decode themselves.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}
