// Spill runs: temporary on-disk record streams backing the engine's
// memory-bounded COMBINE. A run is a record-frame file (framefile.go)
// holding only records frames, so a reader can stream a run back frame
// by frame with memory bounded by the frame size rather than the run
// size — the property hybrid-hash processing depends on when a spilled
// bucket is larger than the memory budget.
package storage

import (
	"fmt"
	"io"
	"os"

	"fudj/internal/types"
)

// RunWriter appends records to one spill run on disk, in frames of
// roughly spillFrameTarget resident bytes; Close flushes the final
// frame.
type RunWriter struct {
	frameWriter
}

// NewRunWriter creates a fresh run file in dir (which must exist).
func NewRunWriter(dir string) (*RunWriter, error) {
	f, err := os.CreateTemp(dir, "spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill run: %w", err)
	}
	return &RunWriter{frameWriter: newFrameWriter(f)}, nil
}

// Path returns the run file's path.
func (rw *RunWriter) Path() string { return rw.f.Name() }

// Append adds records to the run.
func (rw *RunWriter) Append(recs ...types.Record) error {
	return rw.appendRecords(recs)
}

// Close flushes the final frame and closes the file. The run remains
// on disk for reading; Remove deletes it.
func (rw *RunWriter) Close() error {
	if rw.done {
		return nil
	}
	rw.done = true
	if err := rw.flush(); err != nil {
		return err
	}
	return rw.f.Close()
}

// Remove closes the writer (if needed) and deletes the run file.
func (rw *RunWriter) Remove() error {
	if !rw.done {
		rw.done = true
		rw.f.Close()
	}
	return os.Remove(rw.Path())
}

// RunReader streams a spill run back frame by frame.
type RunReader struct {
	*frameReader
}

// OpenRun opens a run file written by RunWriter for streaming.
func OpenRun(path string) (*RunReader, error) {
	fr, err := openFrameFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open spill run: %w", err)
	}
	return &RunReader{fr}, nil
}

// Next returns the next frame's records, or io.EOF after the last
// frame. Memory use is bounded by the largest single frame.
func (rr *RunReader) Next() ([]types.Record, error) {
	tag, payload, err := rr.frames.Next()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err == nil && tag != tagRecords {
		err = fmt.Errorf("unexpected frame tag %d", tag)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: spill frame: %w", err)
	}
	recs, err := types.DecodeBatch(payload, rr.scratch)
	if err != nil {
		return nil, fmt.Errorf("storage: spill frame decode: %w", err)
	}
	return recs, nil
}
