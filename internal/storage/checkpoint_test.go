package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"fudj/internal/types"
)

func newStore(t *testing.T) *CheckpointStore {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	s, err := NewCheckpointStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Sweep() })
	return s
}

func sameRecords(a, b []types.Record) bool {
	return bytes.Equal(types.EncodeRecords(a), types.EncodeRecords(b))
}

func TestCheckpointRecordsRoundTrip(t *testing.T) {
	s := newStore(t)
	recs := spillBatch(500, 40) // several frames' worth
	n, err := s.SaveRecords("s0-shuffle-left-p3", recs)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("SaveRecords bytes = %d, want > 0", n)
	}
	got, err := s.LoadRecords("s0-shuffle-left-p3")
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, recs) {
		t.Errorf("LoadRecords: %d records differ from the %d saved", len(got), len(recs))
	}
}

func TestCheckpointEmptyRecords(t *testing.T) {
	s := newStore(t)
	if _, err := s.SaveRecords("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadRecords("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("LoadRecords = %d records, want 0", len(got))
	}
}

func TestCheckpointMissing(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadRecords("never-written"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("LoadRecords(missing) = %v, want os.ErrNotExist", err)
	}
}

func TestCheckpointReplace(t *testing.T) {
	s := newStore(t)
	if _, err := s.SaveRecords("k", spillBatch(10, 8)); err != nil {
		t.Fatal(err)
	}
	second := spillBatch(3, 8)
	if _, err := s.SaveRecords("k", second); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadRecords("k")
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, second) {
		t.Errorf("replaced checkpoint returned %d records, want %d", len(got), len(second))
	}
}

// TestCheckpointAbortLeavesNothing: a save that fails after writing its
// frames (here the publish: a directory holds the key's path) removes
// its temp file and publishes nothing.
func TestCheckpointAbortLeavesNothing(t *testing.T) {
	s := newStore(t)
	if err := os.Mkdir(s.Path("aborted"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveRecords("aborted", spillBatch(10, 8)); err == nil {
		t.Fatal("a save onto a directory should error")
	}
	if err := os.Remove(s.Path("aborted")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadRecords("aborted"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("LoadRecords(aborted) = %v, want os.ErrNotExist", err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("checkpoint dir holds %d entries after a failed save, want 0", len(entries))
	}
}

// planRecords is a checkpoint of the shape the plan barrier saves: one
// record, one string column holding an encoded plan's binary bytes.
func planRecords() []types.Record {
	return []types.Record{{types.NewString("\x00\x01gob\xff\xfeplan\x7f\x80")}}
}

// TestCheckpointReopenAfterTruncation cuts a valid checkpoint at every
// possible byte length and asserts a reopen either reports corruption
// or (at the full length) returns exactly the saved records — never a
// silent prefix and never wrong records. The plan row's last cut drops
// only the end frame.
func TestCheckpointReopenAfterTruncation(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []types.Record
	}{
		{"records", spillBatch(40, 16)},
		{"plan", planRecords()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t)
			if _, err := s.SaveRecords("trunc", tc.recs); err != nil {
				t.Fatal(err)
			}
			path := s.Path("trunc")
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(full); cut++ {
				if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				got, err := s.LoadRecords("trunc")
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("truncated to %d/%d bytes: err = %v (records %d), want *CorruptError",
						cut, len(full), err, len(got))
				}
			}
			if err := os.WriteFile(path, full, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := s.LoadRecords("trunc")
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecords(got, tc.recs) {
				t.Error("restored full checkpoint no longer round-trips")
			}
		})
	}
}

// TestCheckpointReopenAfterBitflip flips every byte of a valid
// checkpoint in turn (a torn page write, bit rot) and asserts a reopen
// either reports corruption or round-trips the original records — a
// flip may never yield different records.
func TestCheckpointReopenAfterBitflip(t *testing.T) {
	s := newStore(t)
	recs := spillBatch(20, 12)
	if _, err := s.SaveRecords("flip", recs); err != nil {
		t.Fatal(err)
	}
	path := s.Path("flip")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		damaged := append([]byte(nil), full...)
		damaged[i] ^= 0x40
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadRecords("flip")
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at byte %d: err = %v, want *CorruptError", i, err)
			}
			continue
		}
		if !sameRecords(got, recs) {
			t.Fatalf("flip at byte %d: reopen returned different records without an error", i)
		}
	}
}

// FuzzCheckpointReopen feeds arbitrary bytes through the reader the
// recovery manager uses on reopen: it must never panic, and whatever
// it accepts must decode cleanly.
func FuzzCheckpointReopen(f *testing.F) {
	dir := f.TempDir()
	s := &CheckpointStore{dir: dir}
	if _, err := s.SaveRecords("seed", spillBatch(8, 8)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.Path("seed"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.SaveRecords("plan", planRecords()); err != nil {
		f.Fatal(err)
	}
	plan, err := os.ReadFile(s.Path("plan"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(checkpointMagic))
	f.Add(valid[:len(valid)/2])
	f.Add(plan)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := s.Path("fuzz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		recs, err := s.LoadRecords("fuzz")
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("LoadRecords: unexpected error type %T: %v", err, err)
			}
			return
		}
		// Accepted input: records must re-encode without panicking.
		_ = types.EncodeRecords(recs)
	})
}
