// Package shell implements the interactive SQL shell behind
// cmd/fudjsh: statement splitting, the read-eval-print loop, result
// rendering, and the demo environment setup.
package shell

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"context"
	"fudj"

	"fudj/internal/trace"
)

// Config controls the demo environment the shell opens with.
type Config struct {
	Nodes    int
	Cores    int
	Records  int  // per demo dataset
	LoadDemo bool // load datasets + create the three joins
}

// DefaultConfig returns the interactive defaults.
func DefaultConfig() Config {
	return Config{Nodes: 4, Cores: 2, Records: 2000, LoadDemo: true}
}

// Setup opens a database per the config: libraries installed, demo
// datasets loaded, joins created, and built-in operators registered.
func Setup(cfg Config) (*fudj.DB, error) {
	db, err := fudj.Open(fudj.WithCluster(cfg.Nodes, cfg.Cores))
	if err != nil {
		return nil, err
	}
	for _, lib := range []*fudj.Library{
		fudj.SpatialLibrary(), fudj.TextSimilarityLibrary(), fudj.IntervalLibrary(),
	} {
		if err := db.InstallLibrary(lib); err != nil {
			return nil, err
		}
	}
	if !cfg.LoadDemo {
		return db, nil
	}
	for name, ds := range map[string]*fudj.GeneratedDataset{
		"parks":        fudj.GenParks(1, cfg.Records),
		"wildfires":    fudj.GenWildfires(2, 2*cfg.Records),
		"nyctaxi":      fudj.GenNYCTaxi(3, 2*cfg.Records),
		"amazonreview": fudj.GenAmazonReview(4, 2*cfg.Records),
	} {
		if err := fudj.LoadGenerated(db, name, ds); err != nil {
			return nil, err
		}
	}
	ddl := []string{
		`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`,
		`CREATE JOIN text_similarity_join(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins`,
		`CREATE JOIN overlapping_interval(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoin" AT intervaljoins`,
	}
	for _, stmt := range ddl {
		if _, err := db.Execute(stmt); err != nil {
			return nil, err
		}
	}
	db.RegisterBuiltinJoin("spatial_join", fudj.BuiltinSpatialPBSM)
	db.RegisterBuiltinJoin("text_similarity_join", fudj.BuiltinTextSimilarity)
	db.RegisterBuiltinJoin("overlapping_interval", fudj.BuiltinIntervalOIP)
	return db, nil
}

// SplitStatements splits input on ';' outside of quoted strings.
func SplitStatements(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			cur.WriteByte(c)
			if c == inQuote {
				inQuote = 0
			}
		case c == '\'' || c == '"':
			inQuote = c
			cur.WriteByte(c)
		case c == ';':
			if t := strings.TrimSpace(cur.String()); t != "" {
				out = append(out, t)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if t := strings.TrimSpace(cur.String()); t != "" {
		out = append(out, t)
	}
	return out
}

// MaxDisplayRows caps result rendering.
const MaxDisplayRows = 50

// PrintResult renders one query result to w.
func PrintResult(w io.Writer, res *fudj.Result) {
	if res.Schema != nil {
		names := make([]string, res.Schema.Len())
		for i, f := range res.Schema.Fields {
			names[i] = f.Name
		}
		fmt.Fprintln(w, strings.Join(names, " | "))
	}
	for i, row := range res.Rows {
		if i == MaxDisplayRows {
			fmt.Fprintf(w, "... (%d more rows)\n", len(res.Rows)-MaxDisplayRows)
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		fmt.Fprintln(w, strings.Join(cells, " | "))
	}
	if res.Elapsed > 0 {
		fmt.Fprintf(w, "(%d rows, %v, %d bytes shuffled, %d candidates -> %d verified)\n",
			len(res.Rows), res.Elapsed.Round(1000), res.Cluster.BytesShuffled,
			res.Join.Candidates, res.Join.Verified)
	}
}

// printTiming renders the per-phase breakdown behind \timing on.
func printTiming(w io.Writer, res *fudj.Result) {
	if res.Join.SummarizeTime+res.Join.PartitionTime+res.Join.CombineTime == 0 {
		return
	}
	fmt.Fprintf(w, "timing: SUMMARIZE %v  PARTITION %v  COMBINE %v\n",
		res.Join.SummarizeTime.Round(1000),
		res.Join.PartitionTime.Round(1000),
		res.Join.CombineTime.Round(1000))
}

// printTrace prints an outcome's rendered span lines.
func printTrace(w io.Writer, lines []string) {
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
}

// ExecuteAll runs each ';'-separated statement on the executor,
// printing results to w. Cancel ctx (or the canceler) to abort the
// in-flight statement; c may be nil.
func ExecuteAll(ctx context.Context, ex Executor, w io.Writer, input string, traced bool, c *Canceler) error {
	for _, stmt := range SplitStatements(input) {
		out, err := run(ctx, ex, c, stmt, traced)
		if err != nil {
			return err
		}
		PrintResult(w, out.Res)
		printTrace(w, out.TraceLines)
	}
	return nil
}

// ExecuteAllChrome is ExecuteAll plus a Chrome trace-event JSON dump of
// the last statement's span tree to path, loadable in Perfetto or
// chrome://tracing. In-process only: span trees do not cross the wire.
func ExecuteAllChrome(ctx context.Context, db *fudj.DB, w io.Writer, input, path string, c *Canceler) error {
	ex := NewLocal(db)
	var last *fudj.Result
	for _, stmt := range SplitStatements(input) {
		out, err := run(ctx, ex, c, stmt, true)
		if err != nil {
			return err
		}
		PrintResult(w, out.Res)
		printTrace(w, out.TraceLines)
		last = out.Res
	}
	if last == nil || last.Trace == nil {
		return fmt.Errorf("no trace collected")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, last.Trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveLoad handles the \save and \load backslash commands.
func saveLoad(db *fudj.DB, cmd string) error {
	parts := strings.Fields(cmd)
	if len(parts) != 3 {
		return fmt.Errorf("usage: %s <dataset> <file>", parts[0])
	}
	name, path := parts[1], parts[2]
	switch parts[0] {
	case `\save`:
		return fudj.SaveDataset(db, name, path)
	case `\load`:
		return fudj.LoadDataset(db, name, path)
	}
	return fmt.Errorf("unknown command %q", parts[0])
}

// listNames prints a backslash listing or its error.
func listNames(out io.Writer, names []string, err error) {
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	for _, name := range names {
		fmt.Fprintln(out, " ", name)
	}
}

// Repl runs the interactive loop: statements end with ';', backslash
// commands inspect the catalog, \q quits. The canceler (may be nil)
// lets a signal handler cancel the in-flight statement. The returned
// error is the last statement failure, nil if the session ended
// cleanly — script mode uses it for the exit code.
func Repl(ex Executor, in io.Reader, out io.Writer, c *Canceler) error {
	fmt.Fprintln(out, "fudjsh — FUDJ engine shell. Statements end with ';'. \\q quits.")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	var traceOn, timingOn bool
	var lastErr error
	onOff := func(cmd, arg string) (bool, bool) {
		switch arg {
		case "on":
			return true, true
		case "off":
			return false, true
		}
		fmt.Fprintf(out, "usage: %s on|off\n", cmd)
		return false, false
	}
	for {
		if pending.Len() == 0 {
			fmt.Fprint(out, "fudj> ")
		} else {
			fmt.Fprint(out, "   -> ")
		}
		if !sc.Scan() {
			fmt.Fprintln(out)
			return lastErr
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`, `\quit`, "exit", "quit":
			return lastErr
		case `\joins`:
			names, err := ex.Joins()
			listNames(out, names, err)
			continue
		case `\datasets`:
			names, err := ex.Datasets()
			listNames(out, names, err)
			continue
		case `\metrics`:
			if r, ok := ex.(*Remote); ok {
				snap, err := r.Metrics(context.Background())
				if err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprintf(out, "instance=%s sessions=%d live=%d draining=%v queries=%d executed=%d replayed=%d refused=%d\n",
						snap.Instance, snap.Sessions, snap.Live, snap.Draining, snap.Server.Queries,
						snap.Server.Executed, snap.Server.Replayed, snap.Server.Refused)
					fmt.Fprintf(out, "replay: records=%d bytes=%d/%d hits=%d evictions=%d\n",
						snap.Replay.Records, snap.Replay.Bytes, snap.Replay.BytesBudget,
						snap.Replay.Hits, snap.Replay.Evictions)
				}
			} else {
				fmt.Fprintln(out, "\\metrics requires -connect")
			}
			continue
		case `\help`:
			fmt.Fprintln(out, `  statements end with ';'
  \datasets            list datasets
  \joins               list installed joins
  \save <name> <file>  save a dataset to a binary file (local only)
  \load <name> <file>  load a dataset from a binary file (local only)
  \metrics             show server metrics (-connect only)
  \trace on|off        print the execution span tree after each query
  \timing on|off       print the per-phase time breakdown
  \q                   quit
  EXPLAIN SELECT ... shows the optimizer plan
  EXPLAIN ANALYZE SELECT ... executes and shows measured per-operator spans
  Ctrl-C cancels the in-flight query; a second Ctrl-C exits`)
			continue
		}
		if strings.HasPrefix(trimmed, `\trace`) || strings.HasPrefix(trimmed, `\timing`) {
			parts := strings.Fields(trimmed)
			arg := ""
			if len(parts) == 2 {
				arg = parts[1]
			}
			if v, ok := onOff(parts[0], arg); ok {
				if parts[0] == `\trace` {
					traceOn = v
				} else {
					timingOn = v
				}
				fmt.Fprintf(out, "%s %s\n", strings.TrimPrefix(parts[0], `\`), arg)
			}
			continue
		}
		if strings.HasPrefix(trimmed, `\save `) || strings.HasPrefix(trimmed, `\load `) {
			db := ex.DB()
			if db == nil {
				fmt.Fprintln(out, "error: \\save and \\load need a local database (not available over -connect)")
				continue
			}
			if err := saveLoad(db, trimmed); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "ok")
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if strings.Contains(line, ";") {
			input := pending.String()
			pending.Reset()
			for _, stmt := range SplitStatements(input) {
				res, err := run(context.Background(), ex, c, stmt, traceOn)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					lastErr = err
					break
				}
				lastErr = nil
				PrintResult(out, res.Res)
				if timingOn {
					printTiming(out, res.Res)
				}
				if traceOn {
					printTrace(out, res.TraceLines)
				}
			}
		}
	}
}
