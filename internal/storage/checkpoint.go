// Crash-consistent checkpoints: durable snapshots of mid-query state
// (the broadcast partitioning plan as a one-record batch, each
// partition's post-shuffle bucket inputs) written at phase barriers so a failure replays only
// the work downstream of the last barrier instead of the whole query.
//
// A checkpoint is a record-frame file (framefile.go; DESIGN "Frame
// layout") with what a file read back *after* a simulated failure
// needs to detect its own damage:
//
//	magic "FCKP2\n"
//	frame*   records (one types.EncodeBatch payload)
//	end      payload = uvarint count of the frames before it
//
// The end frame makes truncation detectable — a reader that hits EOF
// before a valid end frame reports corruption rather than silently
// returning a prefix — and the per-frame CRC catches bit rot and torn
// page writes.
//
// Crash consistency on the write side: a checkpoint is built in a
// temp file and published with os.Rename after an fsync, so a
// checkpoint either exists completely or not at all; a crash mid-write
// leaves only a temp file the store's Sweep removes.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fudj/internal/types"
	"fudj/internal/wire"
)

// checkpointMagic heads every checkpoint file.
const checkpointMagic = "FCKP2\n"

// checkpointExt marks published (complete, renamed) checkpoint files.
const checkpointExt = ".ckpt"

// CorruptError reports a checkpoint that failed an integrity check on
// reopen: truncated (no end frame), bit-flipped (CRC mismatch), or
// structurally invalid. It is how the recovery manager distinguishes
// "heal by recompute" from genuine I/O failure.
type CorruptError struct {
	Path   string
	Reason string
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// CheckpointStore owns one query's checkpoint directory. Keys are flat
// names (e.g. "s0-shuffle-left-p3"); a key maps to one file. The zero
// value is unusable — build stores with NewCheckpointStore.
type CheckpointStore struct {
	dir string
}

// NewCheckpointStore creates a fresh checkpoint directory for one
// query execution. Sweep removes it and everything inside.
func NewCheckpointStore() (*CheckpointStore, error) {
	dir, err := os.MkdirTemp("", "fudj-ckpt-*")
	if err != nil {
		return nil, fmt.Errorf("storage: create checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.dir }

// Path returns the published path for a checkpoint key.
func (s *CheckpointStore) Path(key string) string {
	return filepath.Join(s.dir, key+checkpointExt)
}

// Sweep removes the checkpoint directory and everything in it —
// published checkpoints and any temp files a failure left behind.
func (s *CheckpointStore) Sweep() error {
	if s == nil || s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// Remove deletes one published checkpoint (a corrupt one being healed,
// or one superseded by a rerun).
func (s *CheckpointStore) Remove(key string) error {
	err := os.Remove(s.Path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// SaveRecords checkpoints a record batch under key, returning the
// bytes written. The previous checkpoint under the same key, if any,
// is atomically replaced.
func (s *CheckpointStore) SaveRecords(key string, recs []types.Record) (int64, error) {
	w, err := s.NewCheckpointWriter(key)
	if err != nil {
		return 0, err
	}
	if err := w.Append(recs...); err != nil {
		w.Abort()
		return 0, err
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return 0, err
	}
	return w.Bytes(), nil
}

// LoadRecords reads back a record checkpoint. It returns
// os.ErrNotExist when no checkpoint was published under key and a
// *CorruptError when the file fails an integrity check.
func (s *CheckpointStore) LoadRecords(key string) ([]types.Record, error) {
	r, err := OpenCheckpoint(s.Path(key))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []types.Record
	for {
		recs, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, err
		}
		out = append(out, recs...)
	}
}

// CheckpointWriter builds one checkpoint in a temp file; Close
// publishes it atomically under its key, Abort discards it. Exactly
// one of the two must be called on every path.
type CheckpointWriter struct {
	frameWriter
	dst string // path the checkpoint is published under at Close
}

// NewCheckpointWriter starts a checkpoint for key. The temp file lives
// in the store's directory so the final rename never crosses
// filesystems.
func (s *CheckpointStore) NewCheckpointWriter(key string) (*CheckpointWriter, error) {
	f, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("storage: create checkpoint temp: %w", err)
	}
	w := &CheckpointWriter{frameWriter: newFrameWriter(f), dst: s.Path(key)}
	if _, err := w.w.WriteString(checkpointMagic); err != nil {
		w.Abort()
		return nil, fmt.Errorf("storage: write checkpoint magic: %w", err)
	}
	w.bytes += int64(len(checkpointMagic))
	return w, nil
}

// Append adds records to the checkpoint, in frames of roughly
// spillFrameTarget resident bytes.
func (cw *CheckpointWriter) Append(recs ...types.Record) error {
	return cw.appendRecords(recs)
}

// Close seals the final frame, writes the end frame, syncs, and
// atomically publishes the checkpoint under its key.
func (cw *CheckpointWriter) Close() error {
	if cw.done {
		return nil
	}
	if err := cw.flushRecords(); err != nil {
		return err
	}
	cw.done = true
	var end wire.Encoder
	end.Uvarint(cw.frames)
	if err := cw.writeFrame(tagEnd, end.Bytes()); err != nil {
		return err
	}
	if err := cw.flush(); err != nil {
		return err
	}
	if err := cw.f.Sync(); err != nil {
		cw.f.Close()
		return fmt.Errorf("storage: sync checkpoint: %w", err)
	}
	if err := cw.f.Close(); err != nil {
		return fmt.Errorf("storage: close checkpoint: %w", err)
	}
	if err := os.Rename(cw.f.Name(), cw.dst); err != nil {
		return fmt.Errorf("storage: publish checkpoint: %w", err)
	}
	return nil
}

// Abort discards an unfinished checkpoint, removing its temp file. A
// published (Closed) checkpoint is left alone.
func (cw *CheckpointWriter) Abort() {
	if cw.done {
		return
	}
	cw.done = true
	cw.f.Close()
	os.Remove(cw.f.Name())
}

// CheckpointReader streams a published checkpoint back frame by frame,
// verifying integrity as it goes. Next returns io.EOF only
// after a valid end frame; any earlier end of file, bad magic, or
// checksum mismatch is a *CorruptError.
type CheckpointReader struct {
	*frameReader
	read  uint64 // frames read so far
	ended bool   // valid end frame seen
}

// OpenCheckpoint opens a published checkpoint for reading, verifying
// the magic header.
func OpenCheckpoint(path string) (*CheckpointReader, error) {
	fr, err := openFrameFile(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(fr.br, magic); err != nil || string(magic) != checkpointMagic {
		fr.Close()
		return nil, &CorruptError{Path: path, Reason: "bad magic header"}
	}
	return &CheckpointReader{frameReader: fr}, nil
}

// Next returns the next frame decoded as a record batch, or io.EOF
// after a valid end frame.
func (cr *CheckpointReader) Next() ([]types.Record, error) {
	if cr.ended {
		return nil, io.EOF
	}
	tag, payload, err := cr.frames.Next()
	switch {
	case err == io.EOF:
		return nil, &CorruptError{Path: cr.f.Name(), Reason: "truncated before end frame"}
	case err != nil:
		return nil, &CorruptError{Path: cr.f.Name(), Reason: err.Error()}
	case tag == tagEnd:
		if n, err := wire.NewDecoder(payload).Uvarint(); err != nil || n != cr.read {
			return nil, &CorruptError{Path: cr.f.Name(), Reason: fmt.Sprintf("end frame claims %d frames, read %d", n, cr.read)}
		}
		cr.ended = true
		return nil, io.EOF
	case tag != tagRecords:
		return nil, &CorruptError{Path: cr.f.Name(), Reason: fmt.Sprintf("frame tag %d, want %d", tag, tagRecords)}
	}
	cr.read++
	recs, err := types.DecodeBatch(payload, cr.scratch)
	if err != nil {
		return nil, &CorruptError{Path: cr.f.Name(), Reason: fmt.Sprintf("frame decode: %v", err)}
	}
	return recs, nil
}
