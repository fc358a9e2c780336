package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"fudj/internal/types"
	"fudj/internal/wire"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "name", Kind: types.KindString},
	)
}

func testRows(n int) []types.Record {
	rows := make([]types.Record, n)
	for i := range rows {
		rows[i] = types.Record{types.NewInt64(int64(i)), types.NewString("row")}
	}
	return rows
}

// drain reads every frame in buf, returning types and payloads.
func drainFrames(t *testing.T, buf []byte) (typs []byte, payloads [][]byte) {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(buf))
	for {
		typ, payload, err := fr.Next()
		if err == io.EOF {
			return typs, payloads
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		typs = append(typs, typ)
		payloads = append(payloads, payload)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	schema := testSchema()
	rows := testRows(10)
	var stream []byte
	stream = append(stream, EncodeSchemaFrame(schema)...)
	stream = append(stream, EncodeBatchFrames(rows)...)
	stream = append(stream, EncodeTrailerFrame(Trailer{Rows: len(rows), ElapsedNs: 42})...)

	typs, payloads := drainFrames(t, stream)
	if len(typs) < 3 || typs[0] != FrameSchema || typs[len(typs)-1] != FrameTrailer {
		t.Fatalf("unexpected frame sequence %v", typs)
	}
	gotSchema, err := DecodeSchemaFrame(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if gotSchema.Len() != 2 || gotSchema.Fields[0].Name != "id" || gotSchema.Fields[1].Kind != types.KindString {
		t.Fatalf("schema did not round-trip: %+v", gotSchema)
	}
	var got []types.Record
	for i, typ := range typs {
		if typ != FrameBatch {
			continue
		}
		recs, err := types.DecodeRecords(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	trailer, err := DecodeTrailerFrame(payloads[len(payloads)-1])
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Rows != 10 || trailer.ElapsedNs != 42 {
		t.Fatalf("trailer did not round-trip: %+v", trailer)
	}
}

func TestFrameBatchChunking(t *testing.T) {
	rows := testRows(3 * batchMaxRecords)
	stream := EncodeBatchFrames(rows)
	typs, payloads := drainFrames(t, stream)
	if len(typs) < 3 {
		t.Fatalf("expected at least 3 batch frames for %d rows, got %d", len(rows), len(typs))
	}
	total := 0
	for i := range typs {
		recs, err := types.DecodeRecords(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
	}
	if total != len(rows) {
		t.Fatalf("chunked batches carried %d rows, want %d", total, len(rows))
	}
}

func TestFrameCRCDetectsCorruption(t *testing.T) {
	frame := EncodeTrailerFrame(Trailer{Rows: 7})
	// Flip one byte: the type byte, every CRC byte and every payload
	// position must be caught (a flipped length byte may instead read as
	// a truncated stream; internal/wire's frame test covers those).
	for i := 0; i < len(frame); i++ {
		if i >= 1 && i <= 4 {
			continue
		}
		damaged := make([]byte, len(frame))
		copy(damaged, frame)
		damaged[i] ^= 0x01
		_, _, err := NewFrameReader(bytes.NewReader(damaged)).Next()
		var corrupt *CorruptFrameError
		if !errors.As(err, &corrupt) {
			t.Fatalf("flip at %d: got %v, want CorruptFrameError", i, err)
		}
		if !corrupt.Retryable() {
			t.Fatal("corrupt frames must be retryable")
		}
	}
}

func TestFrameUnknownTypeAndOversize(t *testing.T) {
	bad := wire.AppendFrame(nil, 99, []byte("x"))
	_, _, err := NewFrameReader(bytes.NewReader(bad)).Next()
	var corrupt *CorruptFrameError
	if !errors.As(err, &corrupt) {
		t.Fatalf("unknown type: got %v", err)
	}

	// A corrupted length prefix must error before allocating.
	huge := make([]byte, wire.FrameHeaderSize)
	huge[0] = FrameBatch
	binary.LittleEndian.PutUint32(huge[1:5], MaxFramePayload+1)
	_, _, err = NewFrameReader(bytes.NewReader(huge)).Next()
	if !errors.As(err, &corrupt) {
		t.Fatalf("oversize length: got %v", err)
	}
}

func TestFrameTruncationIsUnexpectedEOF(t *testing.T) {
	frame := EncodeTrailerFrame(Trailer{Rows: 1})
	for _, cut := range []int{1, wire.FrameHeaderSize - 1, wire.FrameHeaderSize + 1, len(frame) - 1} {
		_, _, err := NewFrameReader(bytes.NewReader(frame[:cut])).Next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// A clean end of stream is io.EOF, not an error in disguise.
	if _, _, err := NewFrameReader(bytes.NewReader(nil)).Next(); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestMarkReplayed(t *testing.T) {
	schema := testSchema()
	rows := testRows(5)
	var stream []byte
	stream = append(stream, EncodeSchemaFrame(schema)...)
	stream = append(stream, EncodeBatchFrames(rows)...)
	stream = append(stream, EncodeTrailerFrame(Trailer{Rows: len(rows), ElapsedNs: 42})...)

	marked := MarkReplayed(stream)
	typs, payloads := drainFrames(t, marked) // CRCs must still verify
	if typs[0] != FrameSchema || typs[len(typs)-1] != FrameTrailer {
		t.Fatalf("frame sequence changed: %v", typs)
	}
	tr, err := DecodeTrailerFrame(payloads[len(payloads)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Replayed {
		t.Fatal("trailer not marked replayed")
	}
	if tr.Rows != len(rows) || tr.ElapsedNs != 42 {
		t.Fatalf("trailer fields mangled: %+v", tr)
	}
	// Non-trailer frames pass through byte-identical.
	prefixLen := len(stream) - len(EncodeTrailerFrame(Trailer{Rows: len(rows), ElapsedNs: 42}))
	if !bytes.Equal(marked[:prefixLen], stream[:prefixLen]) {
		t.Fatal("data frames were rewritten")
	}
	// The original stream is untouched (records are shared, not copied).
	origTyps, origPayloads := drainFrames(t, stream)
	origTr, err := DecodeTrailerFrame(origPayloads[len(origTyps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if origTr.Replayed {
		t.Fatal("MarkReplayed mutated its input")
	}

	// An error response has no trailer: returned unchanged.
	errStream := EncodeErrorFrame(Envelope{Code: CodeInternal, Message: "boom"})
	if got := MarkReplayed(errStream); !bytes.Equal(got, errStream) {
		t.Fatal("error stream should pass through unchanged")
	}
	// Garbage passes through rather than panicking.
	junk := []byte{1, 2, 3}
	if got := MarkReplayed(junk); !bytes.Equal(got, junk) {
		t.Fatal("unparseable stream should pass through unchanged")
	}
}
