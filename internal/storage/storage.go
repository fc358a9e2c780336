// Package storage persists datasets, spill runs and checkpoints as
// record-frame files (framefile.go; the analogue of the storage files a
// real BDMS keeps), plus a TSV reader compatible with cmd/datagen's
// output so externally prepared data can be imported.
package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// A dataset file is a sealed record-frame file:
//
//	magic "FUDJDS", then the format version byte
//	header   the dataset's name, then its schema: uvarint field count
//	         and per field its name and Kind byte
//	frame*   records (one types.EncodeBatch payload)
//	end      payload = uvarint count of the frames before it
const (
	magic   = "FUDJDS"
	version = 2
)

// WriteDataset saves a named dataset to path. The file is built beside
// path and renamed into place once complete, so a failed save leaves
// nothing at path.
func WriteDataset(path, name string, schema *types.Schema, recs []types.Record) error {
	if err := schema.CheckWidths(recs); err != nil {
		return fmt.Errorf("storage: dataset %q: %w", name, err)
	}
	var hdr wire.Encoder
	hdr.String(name)
	hdr.Uvarint(uint64(schema.Len()))
	for _, f := range schema.Fields {
		hdr.String(f.Name)
		hdr.Byte(byte(f.Kind))
	}
	_, err := saveSealed(path, magic+string(rune(version)), hdr.Bytes(), recs)
	return err
}

// ReadDataset loads a dataset file written by WriteDataset. A file that
// is cut short or damaged anywhere is an error; it never yields a
// prefix of the dataset.
func ReadDataset(path string) (name string, schema *types.Schema, recs []types.Record, err error) {
	r, head, err := readSealed(path, len(magic)+1)
	if err != nil {
		return "", nil, nil, err
	}
	defer r.Close()
	if len(head) <= len(magic) || string(head[:len(magic)]) != magic {
		return "", nil, nil, fmt.Errorf("storage: %s is not a FUDJ dataset file", path)
	}
	if head[len(magic)] != version {
		return "", nil, nil, fmt.Errorf("storage: unsupported format version %d", head[len(magic)])
	}
	tag, payload, err := r.nextSealed()
	switch {
	case err == io.EOF:
		err = errors.New("no header frame")
	case err == nil && tag != tagHeader:
		err = fmt.Errorf("frame tag %d, want the header", tag)
	case err == nil:
		name, schema, err = decodeHeader(payload)
	}
	if err == nil {
		recs, err = r.sealedRecords()
	}
	if err == nil {
		err = schema.CheckWidths(recs)
	}
	if err != nil {
		return "", nil, nil, fmt.Errorf("storage: dataset file %s: %w", path, err)
	}
	return name, schema, recs, nil
}

// decodeHeader reads a dataset file's header frame.
func decodeHeader(payload []byte) (string, *types.Schema, error) {
	d := wire.NewDecoder(payload)
	name, err := d.String()
	if err != nil {
		return "", nil, err
	}
	// Each field costs at least two bytes (name length prefix + kind),
	// so a corrupt count larger than the frame errors before allocating.
	nFields, err := d.UvarintCount(2)
	if err != nil {
		return "", nil, err
	}
	fields := make([]types.Field, nFields)
	for i := range fields {
		if fields[i].Name, err = d.String(); err != nil {
			return "", nil, err
		}
		kind, err := d.Byte()
		if err != nil {
			return "", nil, err
		}
		fields[i].Kind = types.Kind(kind)
	}
	schema, err := types.CheckedSchema(fields...)
	return name, schema, err
}

// ParseValue parses the textual rendering Value.String produces back
// into a value of the given kind; it is the inverse used by the TSV
// importer. Polygons and lists round-trip through the binary format
// only (their text forms are abbreviated).
func ParseValue(kind types.Kind, text string) (types.Value, error) {
	text = strings.TrimSpace(text)
	switch kind {
	case types.KindNull:
		return types.Null, nil
	case types.KindBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return types.Null, fmt.Errorf("storage: bad bool %q", text)
		}
		return types.NewBool(b), nil
	case types.KindInt64:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return types.Null, fmt.Errorf("storage: bad int %q", text)
		}
		return types.NewInt64(i), nil
	case types.KindFloat64:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Null, fmt.Errorf("storage: bad float %q", text)
		}
		return types.NewFloat64(f), nil
	case types.KindString:
		if strings.HasPrefix(text, `"`) {
			s, err := strconv.Unquote(text)
			if err != nil {
				return types.Null, fmt.Errorf("storage: bad string %q", text)
			}
			return types.NewString(s), nil
		}
		return types.NewString(text), nil
	case types.KindPoint:
		var x, y float64
		if _, err := fmt.Sscanf(text, "POINT(%f %f)", &x, &y); err != nil {
			return types.Null, fmt.Errorf("storage: bad point %q", text)
		}
		return types.NewPoint(geo.Point{X: x, Y: y}), nil
	case types.KindRect:
		var x1, y1, x2, y2 float64
		if _, err := fmt.Sscanf(text, "RECT(%f %f, %f %f)", &x1, &y1, &x2, &y2); err != nil {
			return types.Null, fmt.Errorf("storage: bad rect %q", text)
		}
		return types.NewRect(geo.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}), nil
	case types.KindInterval:
		var s, e int64
		if _, err := fmt.Sscanf(text, "[%d,%d]", &s, &e); err != nil {
			return types.Null, fmt.Errorf("storage: bad interval %q", text)
		}
		return types.NewInterval(interval.Interval{Start: s, End: e}), nil
	}
	return types.Null, fmt.Errorf("storage: cannot parse %v from text (use the binary format)", kind)
}

// ReadTSV imports a dataset in cmd/datagen's TSV layout: an optional
// "# comment" line, a header row of field names, then one record per
// line. Field kinds come from the provided schema (names must match
// the header).
func ReadTSV(r io.Reader, schema *types.Schema) ([]types.Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Header (skipping comments).
	var header []string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "" {
			continue
		}
		header = strings.Split(line, "\t")
		break
	}
	if len(header) != schema.Len() {
		return nil, fmt.Errorf("storage: header has %d columns, schema %d", len(header), schema.Len())
	}
	for i, name := range header {
		if strings.TrimSpace(name) != schema.Fields[i].Name {
			return nil, fmt.Errorf("storage: column %d is %q, schema wants %q", i, name, schema.Fields[i].Name)
		}
	}

	var recs []types.Record
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, "\t")
		if len(cells) != schema.Len() {
			return nil, fmt.Errorf("storage: line %d has %d columns, schema %d", lineNo, len(cells), schema.Len())
		}
		rec := make(types.Record, len(cells))
		for i, cell := range cells {
			v, err := ParseValue(schema.Fields[i].Kind, cell)
			if err != nil {
				return nil, fmt.Errorf("storage: line %d column %q: %w", lineNo, schema.Fields[i].Name, err)
			}
			rec[i] = v
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}
