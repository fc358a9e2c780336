// Record-frame files: the one on-disk stream format under spill runs
// (spill.go), checkpoints (checkpoint.go) and dataset files
// (storage.go). A file is a sequence of wire frames
// (internal/wire/frame.go; DESIGN "Frame layout"), so every frame is
// length-bounded and CRC-checked; a records frame holds one
// types.EncodeBatch payload. The surfaces add only what is theirs: a
// spill run is a bare temp file; checkpoints and dataset files are
// sealed — a magic header, a closing end frame, and an atomic publish
// (saveSealed, readSealed).
package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fudj/internal/types"
	"fudj/internal/wire"
)

// Frame tags of a record-frame file.
const (
	tagRecords byte = 1 // one types.EncodeBatch payload
	tagHeader  byte = 2 // a dataset file's name and schema (dataset files only)
	tagEnd     byte = 3 // uvarint count of the frames before it (sealed files only)
)

// spillFrameTarget is the resident size (the sum of the records'
// MemSize, roughly 18x their encoded size) at which a writer seals the
// pending records into a frame. A reader holds one decoded frame at a
// time, so the target — plus at most one record — bounds its working
// memory, and is deliberately small relative to realistic budgets.
const spillFrameTarget = 64 << 10

// frameWriter appends frames to an open file through a buffer.
type frameWriter struct {
	f            *os.File
	w            *bufio.Writer
	pending      []types.Record
	pendingBytes int64        // sum of pending's MemSize
	enc          wire.Encoder // payload staging reused across frames
	frame        []byte       // header+payload staging reused across frames
	bytes        int64
	frames       uint64
	done         bool // closed or removed: no more frames
}

func newFrameWriter(f *os.File) frameWriter {
	return frameWriter{f: f, w: bufio.NewWriter(f)}
}

// Bytes returns the bytes written so far: sealed frames, plus a sealed
// file's magic header.
func (fw *frameWriter) Bytes() int64 { return fw.bytes }

// appendRecords adds records, sealing a frame each time the pending
// batch reaches spillFrameTarget — while appending, so one large call
// is cut into the same bounded frames as many small ones.
func (fw *frameWriter) appendRecords(recs []types.Record) error {
	if fw.done {
		return fmt.Errorf("storage: append to finished file %s", fw.f.Name())
	}
	for _, r := range recs {
		fw.pending = append(fw.pending, r)
		fw.pendingBytes += r.MemSize()
		if fw.pendingBytes >= spillFrameTarget {
			if err := fw.flushRecords(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushRecords seals the pending records, if any, as one frame.
func (fw *frameWriter) flushRecords() error {
	if len(fw.pending) == 0 {
		return nil
	}
	fw.enc.Reset()
	types.EncodeBatchInto(&fw.enc, fw.pending)
	fw.pending, fw.pendingBytes = fw.pending[:0], 0
	return fw.writeFrame(tagRecords, fw.enc.Bytes())
}

// writeFrame emits one frame.
func (fw *frameWriter) writeFrame(tag byte, payload []byte) error {
	fw.frame = wire.AppendFrame(fw.frame[:0], tag, payload)
	if _, err := fw.w.Write(fw.frame); err != nil {
		return fmt.Errorf("storage: write frame to %s: %w", fw.f.Name(), err)
	}
	fw.bytes += int64(len(fw.frame))
	fw.frames++
	return nil
}

// flush seals the pending records and drains the buffer to the file.
func (fw *frameWriter) flush() error {
	if err := fw.flushRecords(); err != nil {
		return err
	}
	if err := fw.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush %s: %w", fw.f.Name(), err)
	}
	return nil
}

// saveSealed publishes recs at dst as a sealed file — magic, header as
// one frame when non-nil, the records frames, and the end frame
// counting the frames before it — and returns its size. The file is
// built in a temp file beside dst (so the rename never crosses
// filesystems) and renamed into place after an fsync, so it exists at
// dst completely or not at all; a failed save removes its temp file.
func saveSealed(dst, magic string, header []byte, recs []types.Record) (n int64, err error) {
	f, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("storage: create temp for %s: %w", dst, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	fw := newFrameWriter(f)
	if _, err := fw.w.WriteString(magic); err != nil {
		return 0, fmt.Errorf("storage: write %s: %w", f.Name(), err)
	}
	fw.bytes = int64(len(magic))
	if header != nil {
		if err := fw.writeFrame(tagHeader, header); err != nil {
			return 0, err
		}
	}
	if err := fw.appendRecords(recs); err != nil {
		return 0, err
	}
	if err := fw.flushRecords(); err != nil {
		return 0, err
	}
	var end wire.Encoder
	end.Uvarint(fw.frames)
	if err := fw.writeFrame(tagEnd, end.Bytes()); err != nil {
		return 0, err
	}
	if err := fw.flush(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("storage: sync %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("storage: close %s: %w", f.Name(), err)
	}
	if err := os.Rename(f.Name(), dst); err != nil {
		return 0, fmt.Errorf("storage: publish %s: %w", dst, err)
	}
	return fw.bytes, nil
}

// frameReader streams a record-frame file back: frames.Next yields one
// CRC-verified frame, a records payload decodes through scratch.
type frameReader struct {
	f       *os.File
	br      *bufio.Reader
	frames  *wire.FrameReader
	scratch *types.Batch // column-tag buffer reused across frames
	read    uint64       // frames nextSealed has returned
}

// openFrameFile opens path for streaming. No frame can be larger than
// the file that holds it, so the file size is the reader's limit.
func openFrameFile(path string) (*frameReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	br := bufio.NewReader(f)
	return &frameReader{f: f, br: br, frames: wire.NewFrameReader(br, fi.Size()), scratch: types.NewBatch(0)}, nil
}

// Close closes the underlying file.
func (r *frameReader) Close() error { return r.f.Close() }

// readSealed opens the sealed file at path and returns its first
// len(magic) bytes — fewer if the file is shorter — and a reader
// positioned at its first frame. The caller checks the magic.
func readSealed(path string, magicLen int) (*frameReader, []byte, error) {
	r, err := openFrameFile(path)
	if err != nil {
		return nil, nil, err
	}
	head := make([]byte, magicLen)
	n, _ := io.ReadFull(r.br, head) // a short read fails the caller's magic check
	return r, head[:n], nil
}

// nextSealed returns the next frame of a sealed file, or io.EOF at a
// valid end frame. A file that ends before its end frame, or whose end
// frame miscounts the frames before it, is an error: a reader never
// takes a prefix for the whole file.
func (r *frameReader) nextSealed() (byte, []byte, error) {
	tag, payload, err := r.frames.Next()
	switch {
	case err == io.EOF:
		return 0, nil, errors.New("truncated before end frame")
	case err != nil:
		return 0, nil, err
	case tag == tagEnd:
		if n, err := wire.NewDecoder(payload).Uvarint(); err != nil || n != r.read {
			return 0, nil, fmt.Errorf("end frame claims %d frames, read %d", n, r.read)
		}
		return 0, nil, io.EOF
	}
	r.read++
	return tag, payload, nil
}

// sealedRecords reads the records frames of a sealed file up to its
// end frame.
func (r *frameReader) sealedRecords() ([]types.Record, error) {
	var out []types.Record
	for {
		tag, payload, err := r.nextSealed()
		if err == io.EOF {
			return out, nil
		}
		if err == nil && tag != tagRecords {
			err = fmt.Errorf("frame tag %d, want %d", tag, tagRecords)
		}
		if err != nil {
			return nil, err
		}
		recs, err := types.DecodeBatch(payload, r.scratch)
		if err != nil {
			return nil, fmt.Errorf("frame decode: %w", err)
		}
		out = append(out, recs...)
	}
}
