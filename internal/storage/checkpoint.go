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
// temp file and published with os.Rename after an fsync (framefile.go's
// saveSealed, shared with dataset files), so a checkpoint either exists
// completely or not at all; a crash mid-write leaves only a temp file
// the store's Sweep removes.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fudj/internal/types"
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
	return saveSealed(s.Path(key), checkpointMagic, nil, recs)
}

// LoadRecords reads back a record checkpoint. It returns
// os.ErrNotExist when no checkpoint was published under key and a
// *CorruptError when the file fails an integrity check.
func (s *CheckpointStore) LoadRecords(key string) ([]types.Record, error) {
	path := s.Path(key)
	r, magic, err := readSealed(path, len(checkpointMagic))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if string(magic) != checkpointMagic {
		return nil, &CorruptError{Path: path, Reason: "bad magic header"}
	}
	recs, err := r.sealedRecords()
	if err != nil {
		return nil, &CorruptError{Path: path, Reason: err.Error()}
	}
	return recs, nil
}
