package types

import (
	"fmt"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

// The batch codec: one encoder (EncodeBatchInto/encodeColumn, records →
// frame) and one decoder (decodeColumnarRecords/decodeColumnInto, frame
// → records). Every shuffle frame, spill run and checkpoint file moves
// its records through this pair, so each kind's column layout is spelled
// out exactly twice in the tree — once per direction, below.
//
// A frame is the format byte 0x01 followed by the columnar payload:
//
//	uvarint(width)          — bounded by UvarintCount(1): every column
//	                          encodes at least its tag byte
//	column tags [width]     — one byte per column: the Kind for a
//	                          uniform scalar column, batchGenericTag for
//	                          a reference-kind or kind-mixed one
//	uvarint(rows)           — every column encodes at least one byte
//	                          per row (Null columns pad one zero byte),
//	                          so rows is bounded by
//	                          UvarintCount(max(width, 1))
//	column payloads [width] — per column, `rows` values with no
//	                          per-value kind byte:
//
//	    Null               one zero pad byte
//	    Bool, Int64        varint(i)
//	    Float64            float64(f)
//	    String             uvarint length + bytes
//	    Interval           varint(i) varint(j)
//	    Point              float64(f) float64(f2)
//	    Rect               float64(f) float64(f2) float64(f3) float64(f4)
//	    generic            Value.MarshalWire / DecodeValue (kind byte
//	                       + payload) per value
//
// A zero-width frame (what a COUNT(*) over a cross join replicates:
// rows that carry no column at all) pads one zero byte per row, as a
// Null column does, so its row count is bounded like any other.
//
// The format byte is kept, and any other value rejected, so that a
// future layout can be told apart from this one.
const batchFormatColumnar = 0x01

// batchGenericTag marks a kind-mixed or reference-kind column in the
// columnar frame; uniform scalar columns use their Kind byte directly.
const batchGenericTag = 0xFF

// Batch is DecodeBatch's reusable scratch: the column-tag buffer of the
// frame being decoded. A caller that decodes many frames (one delivery
// goroutine, one run or checkpoint reader) keeps one and passes it to
// every call; it holds no record data, so the records a decode returned
// stay valid across later calls.
type Batch struct {
	tags []byte
}

// NewBatch returns a scratch sized for frames of the given width; it
// grows on demand, so 0 is always a valid argument.
func NewBatch(width int) *Batch {
	return &Batch{tags: make([]byte, 0, width)}
}

// typedKind reports whether a uniform column of kind k is written as a
// typed column (reference kinds use the generic representation).
func typedKind(k Kind) bool {
	return int(k) < len(kindNames) && kindNames[k] != "" && k != KindPolygon && k != KindList && k != KindLineString
}

// EncodeBatch encodes a record slice as one batch frame. The second
// parameter is unused — encoding reads columns straight out of the
// records and stages nothing; it stays only because the benchmark module
// compiles against this signature (ROADMAP, benchmark-only PRs).
func EncodeBatch(recs []Record, _ *Batch) []byte {
	e := wire.NewEncoder(len(recs)*24 + 16)
	EncodeBatchInto(e, recs)
	return e.Bytes()
}

// EncodeBatchInto appends one batch frame for recs to e. Every record
// must have the width of the first: the catalog and the dataset reader
// admit only records of their schema's width, a built-in operator's
// output is checked where it enters the plan, and the engine's own
// operators build every row of a stream to one width.
func EncodeBatchInto(e *wire.Encoder, recs []Record) {
	w := 0
	if len(recs) > 0 {
		w = len(recs[0])
	}
	e.Byte(batchFormatColumnar)
	e.Uvarint(uint64(w))
	// Column tags: the uniform scalar Kind, or the generic tag for
	// reference-kind or kind-mixed columns. The kind scan is a byte
	// compare per value; payloads are emitted straight from the record
	// values below, so the whole encode is one staging-free pass.
	tags := make([]byte, w)
	for c := 0; c < w; c++ {
		k := recs[0][c].kind
		generic := !typedKind(k)
		if !generic {
			for _, r := range recs[1:] {
				if r[c].kind != k {
					generic = true
					break
				}
			}
		}
		if generic {
			tags[c] = batchGenericTag
		} else {
			tags[c] = byte(k)
		}
		e.Byte(tags[c])
	}
	e.Uvarint(uint64(len(recs)))
	if w == 0 {
		encodeColumn(e, recs, 0, byte(KindNull)) // one pad byte per row
	}
	for c := 0; c < w; c++ {
		encodeColumn(e, recs, c, tags[c])
	}
}

// encodeColumn emits column c of a uniform-width record slice using the
// representation its already-emitted tag promised.
func encodeColumn(e *wire.Encoder, recs []Record, c int, tag byte) {
	if tag == batchGenericTag {
		for _, r := range recs {
			r[c].MarshalWire(e)
		}
		return
	}
	switch Kind(tag) {
	case KindNull:
		// One pad byte per row keeps every column at >=1 byte/row,
		// which is what lets the decoder bound `rows` with
		// UvarintCount(width) before allocating the arenas.
		for range recs {
			e.Byte(0)
		}
	case KindBool, KindInt64:
		for _, r := range recs {
			e.Varint(r[c].int())
		}
	case KindFloat64:
		for _, r := range recs {
			e.Float64(r[c].float())
		}
	case KindString:
		for _, r := range recs {
			e.String(r[c].str())
		}
	case KindInterval:
		for _, r := range recs {
			e.Varint(r[c].int())
			e.Varint(r[c].int2())
		}
	case KindPoint:
		for _, r := range recs {
			e.Float64(r[c].float())
			e.Float64(r[c].float2())
		}
	case KindRect:
		for _, r := range recs {
			r[c].rect().MarshalWire(e)
		}
	}
}

// DecodeBatch decodes one batch frame and materializes its records. A
// frame decodes straight into one []Value arena and one
// []Record header arena — two allocations for the whole frame, whatever
// its row count. scratch, when non-nil, carries the column-tag buffer
// across decodes.
func DecodeBatch(buf []byte, scratch *Batch) ([]Record, error) {
	if scratch == nil {
		scratch = NewBatch(0)
	}
	d := wire.NewDecoder(buf)
	format, err := d.Byte()
	if err != nil {
		return nil, fmt.Errorf("types: batch format: %w", err)
	}
	if format != batchFormatColumnar {
		return nil, fmt.Errorf("types: unknown batch format 0x%02x", format)
	}
	return decodeColumnarRecords(d, scratch)
}

// decodeColumnarRecords reads a columnar payload directly into record
// form. Allocation stays bounded by the frame: width and rows both come
// through UvarintCount — rows at a floor of one payload byte per row
// per column — so the rows×width arena never holds more cells than the
// frame, well-formed or corrupted, has bytes left.
func decodeColumnarRecords(d *wire.Decoder, scratch *Batch) ([]Record, error) {
	width, err := d.UvarintCount(1)
	if err != nil {
		return nil, fmt.Errorf("types: batch width: %w", err)
	}
	tags := scratch.tags
	if cap(tags) < width {
		tags = make([]byte, width)
	}
	tags = tags[:width]
	scratch.tags = tags
	for c := 0; c < width; c++ {
		tag, err := d.Byte()
		if err != nil {
			return nil, fmt.Errorf("types: batch column tag: %w", err)
		}
		if tag != batchGenericTag && !typedKind(Kind(tag)) {
			return nil, fmt.Errorf("types: invalid batch column tag 0x%02x", tag)
		}
		tags[c] = tag
	}
	rows, err := d.UvarintCount(max(width, 1))
	if err != nil {
		return nil, fmt.Errorf("types: batch rows: %w", err)
	}
	if rows == 0 {
		return nil, nil
	}
	if width == 0 { // one pad byte per row, as a Null column
		if err := decodeColumnInto(d, nil, 0, 0, rows, byte(KindNull)); err != nil {
			return nil, err
		}
	}
	arena := make([]Value, rows*width)
	recs := make([]Record, rows)
	for i := range recs {
		recs[i] = arena[i*width : (i+1)*width : (i+1)*width]
	}
	for c, tag := range tags {
		if err := decodeColumnInto(d, arena, c, width, rows, tag); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// decodeColumnInto fills column c of the row-major arena from d.
func decodeColumnInto(d *wire.Decoder, arena []Value, c, width, rows int, tag byte) error {
	if tag == batchGenericTag {
		var shapes shapeSlabs
		for row := 0; row < rows; row++ {
			v, err := shapes.decode(d, rows-row)
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = v
		}
		return nil
	}
	switch k := Kind(tag); k {
	case KindNull:
		for row := 0; row < rows; row++ {
			if _, err := d.Byte(); err != nil {
				return fmt.Errorf("types: batch null column %d: %w", c, err)
			}
			// The arena's zero Value is already Null.
		}
	case KindBool, KindInt64:
		for row := 0; row < rows; row++ {
			v, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = Value{kind: k, a: uint64(v)}
		}
	case KindFloat64:
		for row := 0; row < rows; row++ {
			v, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = NewFloat64(v)
		}
	case KindString:
		// One walk spans every value, each cell holding its length and
		// its offset into the column (in b; 0 for an empty string)
		// meanwhile; the column's bytes are then copied once and every
		// value slices the copy. A column of empty strings copies
		// nothing.
		start, total := d.Offset(), 0
		for row := 0; row < rows; row++ {
			off, n, err := d.Span()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			v := Value{kind: KindString, a: uint64(n)}
			if n > 0 {
				v.b = uint64(off - start)
			}
			arena[row*width+c] = v
			total += n
		}
		var col string
		if total > 0 {
			col = d.CopyFrom(start)
		}
		for row := 0; row < rows; row++ {
			v := &arena[row*width+c]
			*v = NewString(col[v.b:][:v.a])
		}
	case KindInterval:
		for row := 0; row < rows; row++ {
			i, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			j, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = NewInterval(interval.Interval{Start: i, End: j})
		}
	case KindPoint:
		for row := 0; row < rows; row++ {
			x, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			y, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = NewPoint(geo.Point{X: x, Y: y})
		}
	case KindRect:
		// One slice holds the column's rects, each cell pointing at its
		// own; a rect takes 32 bytes (four float64s), which bounds the
		// slice by the input.
		if d.Remaining()/32 < rows {
			return fmt.Errorf("types: batch rect column %d: %w", c, wire.ErrShortBuffer)
		}
		rects := make([]geo.Rect, rows)
		for row := range rects {
			if err := rects[row].UnmarshalWire(d); err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = rectAt(&rects[row])
		}
	}
	return nil
}
