package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// tinyConfig runs every experiment at a scale where the whole suite
// completes in seconds and most rows still return results, so the
// runner's agreement check compares non-zero counts.
func tinyConfig() Config {
	return Config{Scale: 0.1, Nodes: 2, Cores: 1, Seed: 7, Budget: 30 * time.Second}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(e.ID, cfg, &buf); err != nil {
				t.Fatalf("%s: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

// TestFigureRunner checks the runner's two gates on ablation_dedup's
// table, whose arms (avoidance and pbsm.SpatialJoinNoDedup on the
// polygon self-join) return different counts by design.
func TestFigureRunner(t *testing.T) {
	cfg := tinyConfig()
	dedup := ablationDedup(cfg)[0]

	t.Run("disagreement names arm and point", func(t *testing.T) {
		f := dedup
		f.points, f.cols, f.countsDiffer = []int{64}, nil, false
		var buf bytes.Buffer
		err := f.run(cfg, &buf)
		if err == nil || !strings.Contains(err.Error(), "no dedup") || !strings.Contains(err.Error(), "grid n 64") {
			t.Fatalf("want an error naming arm %q and point %q, got %v", "no dedup", "grid n 64", err)
		}
	})

	t.Run("declared differing counts pass", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dedup.run(cfg, &buf); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("budget marks later cells DNF", func(t *testing.T) {
		c := cfg
		c.Budget = time.Nanosecond
		var buf bytes.Buffer
		if err := dedup.run(c, &buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		rows := lines[2:] // below the header and its rule
		if len(rows) != len(dedup.points) {
			t.Fatalf("%d rows, want %d:\n%s", len(rows), len(dedup.points), buf.String())
		}
		if first := strings.Fields(rows[0]); slices.Contains(first, "DNF") {
			t.Errorf("first row already DNF: %q", rows[0])
		}
		for _, row := range rows[1:] {
			for _, cell := range strings.Fields(row)[1:] {
				if cell != "DNF" {
					t.Errorf("cell %q in later row %q, want DNF", cell, row)
				}
			}
		}
	})
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", tinyConfig(), &buf); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestExperimentIDsCoverPaper(t *testing.T) {
	want := []string{"table1", "table2", "fig1", "fig9", "fig10", "fig11", "fig12a", "fig12b", "fig12c"}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestCountLOC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	src := `// a comment
package x

/* block
comment */
func F() int { // trailing comment counts as code
	return 1
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := CountLOC(path)
	if err != nil {
		t.Fatal(err)
	}
	// package x, func F..., return 1, closing brace.
	if n != 4 {
		t.Errorf("CountLOC = %d, want 4", n)
	}
	if _, err := CountLOC(filepath.Join(dir, "missing.go")); err == nil {
		t.Error("missing file should error")
	}
}

func TestTableIILOCOrdering(t *testing.T) {
	rows, err := TableIILOC()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FUDJ <= 0 || r.Builtin <= 0 {
			t.Errorf("%s: zero LOC (%d / %d)", r.Join, r.FUDJ, r.Builtin)
		}
		// The paper's productivity claim: the FUDJ implementation is
		// smaller than the built-in operator.
		if r.FUDJ >= r.Builtin {
			t.Errorf("%s: FUDJ %d loc >= built-in %d loc", r.Join, r.FUDJ, r.Builtin)
		}
	}
}

func TestPrintTable(t *testing.T) {
	var buf bytes.Buffer
	printTable(&buf, []string{"a", "bbbb"}, [][]string{{"xx", "y"}})
	out := buf.String()
	if !strings.Contains(out, "a ") || !strings.Contains(out, "xx") {
		t.Errorf("printTable output:\n%s", out)
	}

	// Columns align by character, so a µs cell pads like an ms cell.
	buf.Reset()
	printTable(&buf, []string{"wall", "n"}, [][]string{{"250µs", "1"}, {"1.5ms", "2"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if utf8.RuneCountInString(lines[2]) != utf8.RuneCountInString(lines[3]) {
		t.Errorf("columns misaligned:\n%s", buf.String())
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:        "2.00s",
		15 * time.Millisecond:  "15.0ms",
		250 * time.Microsecond: "250µs",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}
