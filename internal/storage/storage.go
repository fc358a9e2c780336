// Package storage persists datasets: a compact binary format built on
// the engine's wire encoding (the analogue of the storage files a real
// BDMS keeps), plus a TSV reader compatible with cmd/datagen's output
// so externally prepared data can be imported.
package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// magic identifies the binary dataset format; the byte after it is the
// format version.
const (
	magic   = "FUDJDS"
	version = 1
)

// WriteDataset writes a named dataset in the binary format.
func WriteDataset(w io.Writer, name string, schema *types.Schema, recs []types.Record) error {
	e := wire.NewEncoder(1024)
	e.Raw([]byte(magic))
	e.Byte(version)
	e.String(name)
	e.Uvarint(uint64(schema.Len()))
	for _, f := range schema.Fields {
		e.String(f.Name)
		e.Byte(byte(f.Kind))
	}
	e.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		if len(r) != schema.Len() {
			return fmt.Errorf("storage: record has %d fields, schema %d", len(r), schema.Len())
		}
		r.MarshalWire(e)
	}
	_, err := w.Write(e.Bytes())
	return err
}

// ReadDataset reads a dataset written by WriteDataset.
func ReadDataset(r io.Reader) (name string, schema *types.Schema, recs []types.Record, err error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return "", nil, nil, err
	}
	if len(buf) < len(magic)+1 || string(buf[:len(magic)]) != magic {
		return "", nil, nil, fmt.Errorf("storage: not a FUDJ dataset file")
	}
	if buf[len(magic)] != version {
		return "", nil, nil, fmt.Errorf("storage: unsupported format version %d", buf[len(magic)])
	}
	d := wire.NewDecoder(buf[len(magic)+1:])
	if name, err = d.String(); err != nil {
		return "", nil, nil, err
	}
	// Each field costs at least two bytes (name length prefix + kind),
	// so a corrupt count larger than the file errors before allocating.
	nFields, err := d.UvarintCount(2)
	if err != nil {
		return "", nil, nil, err
	}
	fields := make([]types.Field, nFields)
	for i := range fields {
		if fields[i].Name, err = d.String(); err != nil {
			return "", nil, nil, err
		}
		kind, err := d.Byte()
		if err != nil {
			return "", nil, nil, err
		}
		fields[i].Kind = types.Kind(kind)
	}
	if schema, err = types.CheckedSchema(fields...); err != nil {
		return "", nil, nil, fmt.Errorf("storage: %w", err)
	}
	// Every record needs at least one byte of payload.
	nRecs, err := d.UvarintCount(1)
	if err != nil {
		return "", nil, nil, err
	}
	recs = make([]types.Record, nRecs)
	for i := range recs {
		if recs[i], err = types.DecodeRecord(d); err != nil {
			return "", nil, nil, fmt.Errorf("storage: record %d: %w", i, err)
		}
		if len(recs[i]) != schema.Len() {
			return "", nil, nil, fmt.Errorf("storage: record %d has %d fields, schema %d", i, len(recs[i]), schema.Len())
		}
	}
	if d.Remaining() != 0 {
		return "", nil, nil, fmt.Errorf("storage: %d trailing bytes", d.Remaining())
	}
	return name, schema, recs, nil
}

// SaveFile writes a dataset to path.
func SaveFile(path, name string, schema *types.Schema, recs []types.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDataset(f, name, schema, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (string, *types.Schema, []types.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, nil, err
	}
	defer f.Close()
	return ReadDataset(f)
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
