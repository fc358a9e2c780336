package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fudj/internal/datagen"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A reader may allocate a fixed overhead plus a bounded multiple of its
// input: a decoded value is 32 bytes from as little as one input byte,
// and the TSV scanner's line buffer is 1 MiB whatever the input.
const (
	allocPerByte  = 512
	allocOverhead = 2 << 20
)

func checkAllocated(t *testing.T, n int, got uint64) {
	t.Helper()
	if limit := uint64(allocOverhead + allocPerByte*n); got > limit {
		t.Fatalf("%d input bytes allocated %d bytes (limit %d)", n, got, limit)
	}
}

// datasetFile returns the bytes WriteDataset saves for a dataset.
func datasetFile(tb testing.TB, name string, schema *types.Schema, recs []types.Record) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), name)
	if err := WriteDataset(path, name, schema, recs); err != nil {
		tb.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return file
}

// FuzzReadDataset feeds the dataset-file reader arbitrary files. It may
// reject them but must never panic, and never allocate more than the
// input's size bounds; an accepted file must survive a write/read round
// trip unchanged in shape.
func FuzzReadDataset(f *testing.F) {
	for _, ds := range []*datagen.Dataset{datagen.Parks(1, 3), datagen.NYCTaxi(2, 3), datagen.AmazonReview(3, 3)} {
		file := datasetFile(f, ds.Name, ds.Schema, ds.Records)
		f.Add(file)
		f.Add(file[:len(file)/2]) // truncated mid-frame
	}
	// Sealed files with a crafted header: 2^20 fields claimed, and a
	// column named twice.
	for _, hdr := range [][]byte{{1, 't', 0x80, 0x80, 0x40, 2, 'i', 'd', 2}, {1, 't', 2, 1, 'a', 2, 1, 'a', 2}} {
		file := []byte(magic + "\x02")
		file = wire.AppendFrame(file, tagHeader, hdr)
		f.Add(wire.AppendFrame(file, tagEnd, []byte{1}))
	}
	f.Add(datasetFile(f, "none", types.NewSchema(), []types.Record{{}, {}})) // zero-width rows

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "in")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var (
			name   string
			schema *types.Schema
			recs   []types.Record
			err    error
		)
		checkAllocated(t, len(data), allocated(func() {
			name, schema, recs, err = ReadDataset(path)
		}))
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again")
		if err := WriteDataset(again, name, schema, recs); err != nil {
			t.Fatalf("rewrite of an accepted file failed: %v", err)
		}
		name2, schema2, recs2, err := ReadDataset(again)
		if err != nil {
			t.Fatalf("re-read of an accepted file failed: %v", err)
		}
		if name2 != name || schema2.String() != schema.String() || len(recs2) != len(recs) {
			t.Fatalf("round trip changed the dataset: %q %v %d -> %q %v %d",
				name, schema, len(recs), name2, schema2, len(recs2))
		}
	})
}

// FuzzReadTSV feeds the TSV importer arbitrary text against a schema
// of up to eight columns c0, c1, … whose kinds the fuzzer picks. The
// importer may reject the text but must never panic or allocate more
// than the input's size bounds, and every record it accepts has the
// schema's width.
func FuzzReadTSV(f *testing.F) {
	f.Add([]byte("# comment\nc0\tc1\tc2\n1\tPOINT(1 2)\t\"hi\"\n\n2\tPOINT(3 4)\tworld\n"),
		[]byte{byte(types.KindInt64), byte(types.KindPoint), byte(types.KindString)})
	f.Add([]byte("c0\tc1\n[1,5]\tRECT(0 0, 1 1)\n[2,3]\tRECT(1 1, 2 2)\n"),
		[]byte{byte(types.KindInterval), byte(types.KindRect)})
	f.Add([]byte("c0\tc1\ttrue\t1.5\n"), []byte{byte(types.KindBool), byte(types.KindFloat64)})
	f.Add([]byte("c0\nPOLYGON((0 0, 1 0, 0 1))\n"), []byte{byte(types.KindPolygon)})

	f.Fuzz(func(t *testing.T, data, kinds []byte) {
		if len(kinds) == 0 || len(kinds) > 8 {
			return
		}
		fields := make([]types.Field, len(kinds))
		for i, k := range kinds {
			fields[i] = types.Field{Name: fmt.Sprintf("c%d", i), Kind: types.Kind(k % byte(types.KindLineString+1))}
		}
		schema := types.NewSchema(fields...)
		var (
			recs []types.Record
			err  error
		)
		checkAllocated(t, len(data), allocated(func() {
			recs, err = ReadTSV(strings.NewReader(string(data)), schema)
		}))
		if err != nil {
			return
		}
		for i, r := range recs {
			if len(r) != schema.Len() {
				t.Fatalf("record %d has %d fields, schema %d", i, len(r), schema.Len())
			}
		}
	})
}
