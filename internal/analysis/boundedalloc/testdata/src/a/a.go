// Fixture for the boundedalloc analyzer: allocations sized by a raw
// decoded length prefix are findings; UvarintCount is the checked
// source.
package a

import (
	"bufio"
	"encoding/binary"
)

// Decoder stands in for wire.Decoder (matched by type name).
type Decoder struct{ buf []byte }

func (d *Decoder) Uvarint() (uint64, error)          { return 0, nil }
func (d *Decoder) Varint() (int64, error)            { return 0, nil }
func (d *Decoder) UvarintCount(min int) (int, error) { return 0, nil }

type Record []byte

func flaggedRaw(d *Decoder) ([]Record, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	out := make([]Record, n) // want `make sized by n, which comes from a raw decoded length prefix`
	return out, nil
}

func flaggedPropagated(d *Decoder) ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	size := int(n) * 8
	return make([]byte, size), nil // want `make sized by size`
}

func flaggedBinary(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	return make([]byte, n) // want `make sized by n`
}

func flaggedStream(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want `make sized by n`
}

func okChecked(d *Decoder) ([]Record, error) {
	n, err := d.UvarintCount(1)
	if err != nil {
		return nil, err
	}
	return make([]Record, n), nil
}

func okReassigned(d *Decoder) []byte {
	n, _ := d.Uvarint()
	n = 16
	return make([]byte, n)
}

func okUntaintedSize(d *Decoder, have int) []byte {
	if _, err := d.Uvarint(); err != nil {
		return nil
	}
	return make([]byte, have)
}

// allocRecords' parameter n flows unchecked into a make: the fact makes
// passing a raw decoded length at that position a call-site finding.
func allocRecords(n int) []Record {
	return make([]Record, n)
}

// AllocForwarded forwards its parameter to allocRecords, inheriting the
// alloc-param fact transitively (exported for fixture b).
func AllocForwarded(n int) []Record {
	return allocRecords(n)
}

func flaggedParamFlow(d *Decoder) ([]Record, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	return allocRecords(int(n)), nil // want `int\(n\) comes from a raw decoded length prefix and flows into an allocation size inside allocRecords`
}

func flaggedParamFlowTransitive(d *Decoder) []Record {
	n, _ := d.Uvarint()
	return AllocForwarded(int(n)) // want `int\(n\) comes from a raw decoded length prefix and flows into an allocation size inside AllocForwarded`
}

func okParamChecked(d *Decoder, limit int) []Record {
	n, _ := d.Uvarint()
	if n > uint64(limit) {
		return nil
	}
	return allocRecords(int(n))
}

// allocChecked bounds its parameter before allocating, so it exports no
// alloc-param fact and raw lengths may be passed to it.
func allocChecked(n, limit int) []Record {
	if n > limit {
		n = limit
	}
	return make([]Record, n)
}

func okCalleeChecks(d *Decoder) []Record {
	n, _ := d.Uvarint()
	return allocChecked(int(n), 64)
}

// ReadLength returns a raw decoded length: callers' results are tainted
// through the TaintedReturns fact (exported for fixture b).
func ReadLength(d *Decoder) (uint64, error) {
	return d.Uvarint()
}

func flaggedTaintedReturn(d *Decoder) ([]byte, error) {
	n, err := ReadLength(d)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want `make sized by n`
}

// Header models a decoded frame header whose Count field is stored raw:
// every read of the field is tainted (exported for fixture b).
type Header struct {
	Count int
	Flags int
}

func fillHeader(d *Decoder, h *Header) error {
	n, err := d.Uvarint()
	if err != nil {
		return err
	}
	h.Count = int(n)
	return nil
}

func flaggedFieldRead(h *Header) []Record {
	return make([]Record, h.Count) // want `make sized by h.Count`
}

func flaggedCompositeField(d *Decoder) *Header {
	n, _ := d.Uvarint()
	h := &Header{Count: int(n), Flags: 0}
	_ = h
	return h
}

func okUntaintedField(h *Header) []Record {
	return make([]Record, h.Flags)
}

func okMin(d *Decoder, bound int) []byte {
	n, _ := d.Uvarint()
	return make([]byte, min(int(n), bound))
}

// Batch-frame headers, modeling types.DecodeBatch: a columnar frame
// carries a column count (width) and a row count, and the decoder
// allocates rows*width cells. Both prefixes must come through
// UvarintCount — width costs one tag byte per column, and every row
// costs at least width payload bytes — so the product is bounded by
// the frame's actual size.

type Value struct{ kind byte }

func flaggedBatchWidthRaw(d *Decoder) ([]byte, error) {
	width, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	return make([]byte, width), nil // want `make sized by width`
}

func flaggedBatchCellsRaw(d *Decoder) ([]Value, error) {
	width, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	rows, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	cells := int(rows) * int(width)
	return make([]Value, cells), nil // want `make sized by cells`
}

// flaggedBatchRowsRaw checks the column count but not the row count:
// the arena is still unbounded in rows.
func flaggedBatchRowsRaw(d *Decoder) ([]Value, error) {
	width, err := d.UvarintCount(1)
	if err != nil {
		return nil, err
	}
	rows, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	return make([]Value, int(rows)*width), nil // want `make sized by int\(rows\) \* width`
}

// okBatchHeaderChecked is the shape the real decoder uses: width is
// bounded by its tag bytes, rows by the per-row payload floor (at
// least width bytes each, one pad byte per row for width 0), so the
// rows*width arena never exceeds the frame's byte count.
func okBatchHeaderChecked(d *Decoder) ([]Value, error) {
	width, err := d.UvarintCount(1)
	if err != nil {
		return nil, err
	}
	rowFloor := width
	if rowFloor < 1 {
		rowFloor = 1
	}
	rows, err := d.UvarintCount(rowFloor)
	if err != nil {
		return nil, err
	}
	return make([]Value, rows*width), nil
}
