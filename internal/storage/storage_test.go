package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fudj/internal/datagen"
	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/types"
	"fudj/internal/wire"
)

func TestBinaryRoundTripAllGenerators(t *testing.T) {
	sets := []*datagen.Dataset{
		datagen.Wildfires(1, 50),
		datagen.Parks(2, 50),
		datagen.NYCTaxi(3, 50),
		datagen.AmazonReview(4, 50),
	}
	dir := t.TempDir()
	for _, ds := range sets {
		path := filepath.Join(dir, ds.Name)
		if err := WriteDataset(path, ds.Name, ds.Schema, ds.Records); err != nil {
			t.Fatalf("%s: write: %v", ds.Name, err)
		}
		name, schema, recs, err := ReadDataset(path)
		if err != nil {
			t.Fatalf("%s: read: %v", ds.Name, err)
		}
		if name != ds.Name {
			t.Errorf("name = %q, want %q", name, ds.Name)
		}
		if schema.String() != ds.Schema.String() {
			t.Errorf("schema = %v, want %v", schema, ds.Schema)
		}
		if len(recs) != len(ds.Records) {
			t.Fatalf("%d records, want %d", len(recs), len(ds.Records))
		}
		for i := range recs {
			for j := range recs[i] {
				if !recs[i][j].Equal(ds.Records[i][j]) {
					t.Fatalf("%s record %d field %d mismatch", ds.Name, i, j)
				}
			}
		}
	}
}

// dirEntries lists the names in dir: a save must leave nothing behind
// but the file it published.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestSaveLoadFile(t *testing.T) {
	ds := datagen.Parks(7, 20)
	dir := t.TempDir()
	path := filepath.Join(dir, "parks.fudj")
	if err := WriteDataset(path, "parks", ds.Schema, ds.Records); err != nil {
		t.Fatal(err)
	}
	name, schema, recs, err := ReadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "parks" || schema.Len() != ds.Schema.Len() || len(recs) != 20 {
		t.Errorf("loaded %q %v %d", name, schema, len(recs))
	}
	if _, _, _, err := ReadDataset(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file should error")
	}
	if got := dirEntries(t, dir); len(got) != 1 || got[0] != "parks.fudj" {
		t.Errorf("directory holds %v after one save, want [parks.fudj]", got)
	}

	// A save that fails after writing its frames — its publish, as its
	// path is a directory — removes its temp file and leaves the
	// directory as it was.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(blocked, "parks", ds.Schema, ds.Records); err == nil {
		t.Error("a save onto a directory should error")
	}
	if got := dirEntries(t, dir); len(got) != 2 || got[0] != "blocked" || got[1] != "parks.fudj" {
		t.Errorf("directory holds %v after failed saves, want [blocked parks.fudj]", got)
	}
}

// TestReadDatasetErrors covers files that are not dataset files of this
// version: wrong magic, the retired v1 layout (a record count plus one
// Record.MarshalWire per row), and sealed files without a header.
func TestReadDatasetErrors(t *testing.T) {
	sealed := func(frames ...[]byte) []byte {
		out := []byte(magic + "\x02")
		for _, f := range frames {
			out = append(out, f...)
		}
		return out
	}
	end := func(n byte) []byte { return wire.AppendFrame(nil, tagEnd, []byte{n}) }
	cases := map[string]struct {
		file []byte
		want string
	}{
		"empty":     {nil, "not a FUDJ dataset file"},
		"bad magic": {[]byte("NOTFUDJ\x01"), "not a FUDJ dataset file"},
		"v1":        {[]byte(magic + "\x01\x01t\x01\x02id\x02\x01\x01\x02\x02"), "unsupported format version 1"},
		"version 7": {[]byte(magic + "\x07"), "unsupported format version 7"},
		"no frames": {sealed(), "truncated before end frame"},
		"no header": {sealed(end(0)), "no header frame"},
		"records before the header": {
			sealed(wire.AppendFrame(nil, tagRecords, types.EncodeBatch(nil, nil)), end(1)),
			"want the header",
		},
		"header twice": {
			sealed(wire.AppendFrame(nil, tagHeader, []byte{1, 't', 0}), wire.AppendFrame(nil, tagHeader, []byte{1, 't', 0}), end(2)),
			"want 1",
		},
		"records wider than the schema": {
			sealed(wire.AppendFrame(nil, tagHeader, []byte{1, 't', 0}),
				wire.AppendFrame(nil, tagRecords, types.EncodeBatch([]types.Record{{types.NewInt64(1)}}, nil)), end(2)),
			"record 0 has 1 fields, schema 0",
		},
	}
	dir := t.TempDir()
	for name, c := range cases {
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ReadDataset(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestDatasetFileDamageRejected cuts a multi-frame dataset file short
// and flips its bytes: every damaged file is refused, none yields a
// prefix of the dataset.
func TestDatasetFileDamageRejected(t *testing.T) {
	ds := datagen.Wildfires(5, 1200)
	dir := t.TempDir()
	path := filepath.Join(dir, "wildfires.fudj")
	if err := WriteDataset(path, ds.Name, ds.Schema, ds.Records); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for fr := wire.NewFrameReader(bytes.NewReader(file[len(magic)+1:]), int64(len(file))); ; frames++ {
		if _, _, err := fr.Next(); err != nil {
			break
		}
	}
	if frames < 4 { // header, two records frames, end
		t.Fatalf("want a multi-frame file, got %d frames", frames)
	}
	damaged := filepath.Join(dir, "damaged")
	check := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(damaged, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, recs, err := ReadDataset(damaged); err == nil {
			t.Fatalf("%s: read %d of %d records without error", what, len(recs), len(ds.Records))
		}
	}
	// Every offset near either end (magic, header, end frame), and a
	// stride through the records frames between.
	step := len(file)/300 + 1
	for cut := 0; cut < len(file); cut++ {
		if cut < 64 || cut > len(file)-64 || cut%step == 0 {
			check(fmt.Sprintf("cut at %d of %d", cut, len(file)), file[:cut])
			flipped := bytes.Clone(file)
			flipped[cut] ^= 0xff
			check(fmt.Sprintf("byte %d flipped", cut), flipped)
		}
	}
}

func TestWriteDatasetRejectsRaggedRecords(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "id", Kind: types.KindInt64})
	dir := t.TempDir()
	err := WriteDataset(filepath.Join(dir, "t"), "t", schema, []types.Record{{types.NewInt64(1), types.NewInt64(2)}})
	if err == nil {
		t.Error("ragged record should error")
	}
	if got := dirEntries(t, dir); len(got) != 0 {
		t.Errorf("a refused save left %v", got)
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		kind types.Kind
		text string
		want types.Value
	}{
		{types.KindInt64, "42", types.NewInt64(42)},
		{types.KindInt64, "-7", types.NewInt64(-7)},
		{types.KindFloat64, "2.5", types.NewFloat64(2.5)},
		{types.KindBool, "true", types.NewBool(true)},
		{types.KindString, `"hello\tworld"`, types.NewString("hello\tworld")},
		{types.KindString, "bare", types.NewString("bare")},
		{types.KindPoint, "POINT(1.5 -2)", types.NewPoint(geo.Point{X: 1.5, Y: -2})},
		{types.KindRect, "RECT(0 0, 3 4)", types.NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 4})},
		{types.KindInterval, "[10,20]", types.NewInterval(interval.Interval{Start: 10, End: 20})},
		{types.KindNull, "whatever", types.Null},
	}
	for _, c := range cases {
		got, err := ParseValue(c.kind, c.text)
		if err != nil {
			t.Errorf("ParseValue(%v, %q): %v", c.kind, c.text, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseValue(%v, %q) = %v, want %v", c.kind, c.text, got, c.want)
		}
	}
	for _, bad := range []struct {
		kind types.Kind
		text string
	}{
		{types.KindInt64, "x"},
		{types.KindFloat64, ""},
		{types.KindBool, "maybe"},
		{types.KindPoint, "1,2"},
		{types.KindInterval, "10-20"},
		{types.KindPolygon, "POLYGON(...)"},
	} {
		if _, err := ParseValue(bad.kind, bad.text); err == nil {
			t.Errorf("ParseValue(%v, %q): want error", bad.kind, bad.text)
		}
	}
}

// Property: any value whose kind ParseValue supports round-trips
// through its String rendering.
func TestParseValueInvertsString(t *testing.T) {
	vals := []types.Value{
		types.NewInt64(123), types.NewFloat64(-0.5), types.NewBool(false),
		types.NewString("with \"quotes\" and\ttabs"),
		types.NewPoint(geo.Point{X: 3, Y: 4}),
		types.NewRect(geo.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}),
		types.NewInterval(interval.Interval{Start: -5, End: 500}),
	}
	for _, v := range vals {
		got, err := ParseValue(v.Kind(), v.String())
		if err != nil {
			t.Errorf("round trip %v: %v", v, err)
			continue
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestReadTSV(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "location", Kind: types.KindPoint},
		types.Field{Name: "note", Kind: types.KindString},
	)
	// Note: tabs inside quoted strings are not supported by the TSV
	// importer (a documented format restriction).
	input := `# a comment
id	location	note
1	POINT(1 2)	"hello"

2	POINT(3 4)	"world"
`
	recs, err := ReadTSV(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][1].Point() != (geo.Point{X: 3, Y: 4}) || recs[1][2].Str() != "world" {
		t.Errorf("record 1 = %v", recs[1])
	}
	// Errors: header mismatch, bad column count, bad value.
	if _, err := ReadTSV(strings.NewReader("wrong\theader\tnames\n"), schema); err == nil {
		t.Error("header mismatch should error")
	}
	if _, err := ReadTSV(strings.NewReader("id\tlocation\tnote\n1\tPOINT(1 2)\n"), schema); err == nil {
		t.Error("short row should error")
	}
	if _, err := ReadTSV(strings.NewReader("id\tlocation\tnote\nx\tPOINT(1 2)\t\"a\"\n"), schema); err == nil {
		t.Error("bad int should error")
	}
}

// The datagen TSV output read back must equal the original (for the
// kinds the text format supports).
func TestTSVRoundTripWithDatagenFormat(t *testing.T) {
	ds := datagen.Wildfires(11, 30)
	var sb strings.Builder
	names := make([]string, ds.Schema.Len())
	for i, f := range ds.Schema.Fields {
		names[i] = f.Name
	}
	sb.WriteString("# " + ds.String() + "\n")
	sb.WriteString(strings.Join(names, "\t") + "\n")
	for _, rec := range ds.Records {
		cells := make([]string, len(rec))
		for i, v := range rec {
			cells[i] = v.String()
		}
		sb.WriteString(strings.Join(cells, "\t") + "\n")
	}
	recs, err := ReadTSV(strings.NewReader(sb.String()), ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ds.Records) {
		t.Fatalf("%d records, want %d", len(recs), len(ds.Records))
	}
	for i := range recs {
		for j := range recs[i] {
			if !recs[i][j].Equal(ds.Records[i][j]) {
				t.Fatalf("record %d field %d: %v != %v", i, j, recs[i][j], ds.Records[i][j])
			}
		}
	}
}
