package wire_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fudj/internal/serve"
	"fudj/internal/storage"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// drain reads frames (no payload over 64 KiB) until Next fails and
// returns how many it accepted and the error that ended the stream.
func drain(stream []byte) (frames int, err error) {
	fr := wire.NewFrameReader(bytes.NewReader(stream), 64<<10)
	for {
		if _, _, err := fr.Next(); err != nil {
			return frames, err
		}
		frames++
	}
}

// TestFrameStreamTruncationAndFlips walks a three-frame stream (an
// empty payload among them): cut at every offset, the reader reports
// io.EOF exactly at frame boundaries and io.ErrUnexpectedEOF anywhere
// else; with any single bit flipped — tag, length, CRC or payload — it
// never reads the stream to a clean end.
func TestFrameStreamTruncationAndFlips(t *testing.T) {
	var stream []byte
	boundary := map[int]int{0: 0} // offset -> frames before it
	for i, payload := range [][]byte{[]byte("schema"), nil, bytes.Repeat([]byte{0xA5}, 300)} {
		stream = wire.AppendFrame(stream, byte(i+1), payload)
		boundary[len(stream)] = i + 1
	}

	for cut := 0; cut <= len(stream); cut++ {
		frames, err := drain(stream[:cut])
		if want, ok := boundary[cut]; ok {
			if err != io.EOF || frames != want {
				t.Fatalf("cut at boundary %d: %d frames, err %v; want %d frames, io.EOF", cut, frames, err, want)
			}
		} else if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut inside a frame at %d: err %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	for i := range stream {
		for bit := 0; bit < 8; bit++ {
			damaged := bytes.Clone(stream)
			damaged[i] ^= 1 << bit
			frames, err := drain(damaged)
			var corrupt *wire.CorruptFrameError
			if !errors.As(err, &corrupt) && err != io.ErrUnexpectedEOF {
				t.Fatalf("byte %d bit %d flipped: %d frames then err %v — silent success", i, bit, frames, err)
			}
		}
	}
}

func TestFrameOversizeRejectedBeforeRead(t *testing.T) {
	stream := wire.AppendFrame(nil, 7, make([]byte, 100))
	r := &countingReader{r: bytes.NewReader(stream)}
	_, _, err := wire.NewFrameReader(r, 99).Next()
	var corrupt *wire.CorruptFrameError
	if !errors.As(err, &corrupt) || corrupt.Tag != 7 || corrupt.Length != 100 {
		t.Fatalf("length 100 over limit 99: err %v, want *CorruptFrameError{Tag 7, Length 100}", err)
	}
	if r.n != wire.FrameHeaderSize {
		t.Fatalf("reader consumed %d bytes of an oversized frame, want only the %d-byte header", r.n, wire.FrameHeaderSize)
	}
	if _, _, err := wire.NewFrameReader(bytes.NewReader(stream), 100).Next(); err != nil {
		t.Fatalf("length 100 at limit 100: %v", err)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// frameSeeds returns one real stream per surface that frames bytes: a
// served response, a spill run, and a checkpoint and a dataset file
// body (after its magic).
func frameSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	recs := make([]types.Record, 40)
	for i := range recs {
		recs[i] = types.Record{types.NewInt64(int64(i)), types.NewString("seed")}
	}
	schema := types.NewSchema(types.Field{Name: "id", Kind: types.KindInt64}, types.Field{Name: "s", Kind: types.KindString})
	response := serve.EncodeSchemaFrame(schema)
	response = append(response, serve.EncodeBatchFrames(recs)...)
	response = append(response, serve.EncodeTrailerFrame(serve.Trailer{Rows: len(recs)})...)

	dir := tb.TempDir()
	run, err := storage.NewRunWriter(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer run.Remove()
	if err := run.Append(recs...); err != nil {
		tb.Fatal(err)
	}
	if err := run.Close(); err != nil {
		tb.Fatal(err)
	}
	spill, err := os.ReadFile(run.Path())
	if err != nil {
		tb.Fatal(err)
	}

	tb.Setenv("TMPDIR", dir)
	store, err := storage.NewCheckpointStore()
	if err != nil {
		tb.Fatal(err)
	}
	defer store.Sweep()
	if _, err := store.SaveRecords("seed", recs); err != nil {
		tb.Fatal(err)
	}
	ckpt, err := os.ReadFile(store.Path("seed"))
	if err != nil {
		tb.Fatal(err)
	}
	body := ckpt[bytes.IndexByte(ckpt, '\n')+1:]

	dsPath := filepath.Join(dir, "seed.fudj")
	if err := storage.WriteDataset(dsPath, "seed", schema, recs); err != nil {
		tb.Fatal(err)
	}
	ds, err := os.ReadFile(dsPath)
	if err != nil {
		tb.Fatal(err)
	}
	dataset := ds[len("FUDJDS")+1:] // magic and version byte

	for name, s := range map[string][]byte{"response": response, "spill": spill, "checkpoint": body, "dataset": dataset} {
		if frames, err := drain(s); err != io.EOF || frames == 0 {
			tb.Fatalf("%s seed: %d frames then %v, want a clean multi-frame stream", name, frames, err)
		}
	}
	return [][]byte{response, spill, body, dataset}
}

// FuzzFrameReader feeds arbitrary bytes and an arbitrary limit through
// the one frame parser. It must never panic; a frame claiming more than
// limit is refused with only its header consumed (so nothing past limit
// is ever allocated); and every frame it accepts re-encodes through
// AppendFrame to exactly the bytes it consumed.
func FuzzFrameReader(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed, uint32(len(seed)))
		f.Add(seed[:len(seed)/2], uint32(len(seed)))
		f.Add(seed, uint32(8))
	}
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint32(1<<20))
	f.Fuzz(func(t *testing.T, data []byte, limit uint32) {
		limit %= 1 << 20 // the harness itself must not be asked for 4 GiB
		r := &countingReader{r: bytes.NewReader(data)}
		fr := wire.NewFrameReader(r, int64(limit))
		for off := 0; ; {
			tag, payload, err := fr.Next()
			var corrupt *wire.CorruptFrameError
			switch {
			case err == io.EOF:
				if off != len(data) {
					t.Fatalf("io.EOF at offset %d of %d", off, len(data))
				}
				return
			case err == io.ErrUnexpectedEOF:
				if r.n != len(data) {
					t.Fatalf("io.ErrUnexpectedEOF with %d of %d bytes consumed", r.n, len(data))
				}
				return
			case errors.As(err, &corrupt):
				if corrupt.Length > int64(limit) && r.n != off+wire.FrameHeaderSize {
					t.Fatalf("oversized frame (length %d, limit %d): consumed %d bytes past its header",
						corrupt.Length, limit, r.n-off-wire.FrameHeaderSize)
				}
				return
			case err != nil:
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			if len(payload) > int(limit) {
				t.Fatalf("accepted a %d-byte payload over limit %d", len(payload), limit)
			}
			end := off + wire.FrameHeaderSize + len(payload)
			if !bytes.Equal(wire.AppendFrame(nil, tag, payload), data[off:end]) {
				t.Fatalf("frame at %d does not re-encode to the bytes consumed", off)
			}
			off = end
		}
	})
}
