// Record-frame files: the one on-disk stream format under spill runs
// (spill.go) and checkpoints (checkpoint.go). A file is a sequence of
// wire frames (internal/wire/frame.go; DESIGN "Frame layout"), so every
// frame is length-bounded and CRC-checked; a records frame holds one
// types.EncodeBatch payload. The surfaces add only what is theirs:
// file lifecycle, and for checkpoints a magic header and the closing
// end frame.
package storage

import (
	"bufio"
	"fmt"
	"os"

	"fudj/internal/types"
	"fudj/internal/wire"
)

// Frame tags of a record-frame file.
const (
	tagRecords byte = 1 // one types.EncodeBatch payload
	tagEnd     byte = 3 // uvarint count of the frames before it (checkpoints only)
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
	done         bool // closed, published or discarded: no more frames
}

func newFrameWriter(f *os.File) frameWriter {
	return frameWriter{f: f, w: bufio.NewWriter(f)}
}

// Bytes returns the bytes written so far: sealed frames, plus a
// checkpoint's magic header.
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

// frameReader streams a record-frame file back: frames.Next yields one
// CRC-verified frame, a records payload decodes through scratch.
type frameReader struct {
	f       *os.File
	br      *bufio.Reader
	frames  *wire.FrameReader
	scratch *types.Batch // column-tag buffer reused across frames
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
