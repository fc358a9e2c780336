package storage

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"fudj/internal/types"
)

func spillBatch(n, strLen int) []types.Record {
	recs := make([]types.Record, n)
	for i := range recs {
		recs[i] = types.Record{
			types.NewInt64(int64(i)),
			types.NewString(strings.Repeat("s", strLen)),
		}
	}
	return recs
}

func readAll(t *testing.T, path string) []types.Record {
	t.Helper()
	r, err := OpenRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []types.Record
	for {
		frame, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("Next: %v", err)
		}
		out = append(out, frame...)
	}
	return out
}

func TestSpillRunRoundTrip(t *testing.T) {
	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := spillBatch(500, 40)
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() <= 0 {
		t.Errorf("Bytes() = %d, want > 0", w.Bytes())
	}
	got := readAll(t, w.Path())
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i][0].Int64() != recs[i][0].Int64() || got[i][1].String() != recs[i][1].String() {
			t.Fatalf("record %d mismatch: %v", i, got[i])
		}
	}
}

func TestSpillRunMultipleFrames(t *testing.T) {
	// Big strings force several 64KB frames; the reader must see every
	// record exactly once, in append order, without loading the whole
	// run at once.
	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := spillBatch(300, 2000) // ~600KB of payload -> ~10 frames
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRun(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frames, total := 0, 0
	for {
		frame, err := r.Next()
		if err != nil {
			break
		}
		frames++
		for _, rec := range frame {
			if rec[0].Int64() != int64(total) {
				t.Fatalf("record %d out of order: %v", total, rec[0])
			}
			total++
		}
	}
	if total != 300 {
		t.Fatalf("read %d records, want 300", total)
	}
	if frames < 2 {
		t.Errorf("read %d frames, want several (frame splitting broken)", frames)
	}
}

func TestSpillRunEmpty(t *testing.T) {
	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, w.Path()); len(got) != 0 {
		t.Errorf("read %d records from empty run", len(got))
	}
}

func TestSpillRunRemove(t *testing.T) {
	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(spillBatch(3, 8)...); err != nil {
		t.Fatal(err)
	}
	path := w.Path()
	w.Remove()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("run file still exists after Remove: %v", err)
	}
	// Remove is idempotent.
	w.Remove()
}

func TestSpillRunCorruptFrameHeader(t *testing.T) {
	// A corrupted frame header claiming more bytes than the whole run
	// file must error out of Next before the payload is allocated
	// (the file size is the wire.FrameReader's limit).
	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range spillBatch(10, 50) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Overwrite the first frame's header: tag 0xff, length 2^32-1.
	f, err := os.OpenFile(w.Path(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenRun(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err == nil {
		t.Fatal("corrupt frame header decoded successfully")
	} else if errors.Is(err, io.EOF) {
		t.Fatalf("corrupt frame header read as EOF: %v", err)
	}
}

// TestSpillRunPayloadFlipDetected: every frame of a run is CRC-checked,
// so a damaged payload byte is an error, not different records.
func TestSpillRunPayloadFlipDetected(t *testing.T) {
	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(spillBatch(10, 50)...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		damaged := append([]byte(nil), full...)
		damaged[i] ^= 0x40
		if err := os.WriteFile(w.Path(), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenRun(w.Path())
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, err = r.Next()
		}
		r.Close()
		if errors.Is(err, io.EOF) {
			t.Fatalf("flip at byte %d of %d: run read to a clean end", i, len(full))
		}
	}
}

// TestFrameCutWhileAppending: one bulk Append — how the engine evicts a
// bucket and checkpoints a partition — is cut into frames of at most
// spillFrameTarget resident bytes plus one record, through both
// surfaces, so a reader's memory is bounded by the frame and not by
// the call that wrote it.
func TestFrameCutWhileAppending(t *testing.T) {
	recs := spillBatch(6000, 40)
	if total := types.RecordsMemSize(recs); total < 10*spillFrameTarget {
		t.Fatalf("input is %d resident bytes, want at least 10 frame targets", total)
	}
	bound := int64(spillFrameTarget) + recs[0].MemSize()

	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := OpenRun(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	s := newStore(t)
	if _, err := s.SaveRecords("bulk", recs); err != nil {
		t.Fatal(err)
	}
	ckpt, _, err := readSealed(s.Path("bulk"), len(checkpointMagic))
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	ckptNext := func() ([]types.Record, error) {
		_, payload, err := ckpt.nextSealed()
		if err != nil {
			return nil, err
		}
		return types.DecodeBatch(payload, nil)
	}

	for name, next := range map[string]func() ([]types.Record, error){"run": run.Next, "checkpoint": ckptNext} {
		frames, total := 0, 0
		for {
			frame, err := next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			frames++
			if sz := types.RecordsMemSize(frame); sz > bound {
				t.Errorf("%s frame %d holds %d resident bytes, bound %d", name, frames, sz, bound)
			}
			for _, rec := range frame {
				if rec[0].Int64() != int64(total) {
					t.Fatalf("%s record %d out of order: %v", name, total, rec[0])
				}
				total++
			}
		}
		if total != len(recs) {
			t.Errorf("%s returned %d records, want %d", name, total, len(recs))
		}
		if frames < 10 {
			t.Errorf("%s: one Append of 10+ frame targets wrote %d frame(s)", name, frames)
		}
	}
}
