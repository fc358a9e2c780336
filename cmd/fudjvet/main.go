// Command fudjvet is the FUDJ multichecker: it runs the
// internal/analysis suite (maporder, seedrand, udfcatch, boundedalloc,
// ctxplumb, metricslock, spillclose, errwrap, sidesym, hotatomic) over
// the repository and reports every invariant violation, counting
// //fudjvet:ignore suppressions so the escape hatch stays visible.
//
// It loads the packages itself (go list -export) and analyzes them in
// one process, in dependency order with one shared fact store, so
// interprocedural facts resolve at their dependents' call sites:
//
//	fudjvet [-json] [-budget file] ./...
//
//	-json          emit findings and suppressions as a JSON array on
//	               stdout instead of vet-style text on stderr
//	-budget file   suppression ratchet: fail if the live
//	               //fudjvet:ignore count for any rule exceeds the
//	               per-rule budget listed in file
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"fudj/internal/analysis"
	"fudj/internal/analysis/framework"
)

func main() {
	args := os.Args[1:]
	jsonOut := false
	budgetFile := ""
	var patterns []string
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-json":
			jsonOut = true
		case args[i] == "-budget":
			if i+1 >= len(args) {
				fatal(fmt.Errorf("-budget requires a file argument"))
			}
			i++
			budgetFile = args[i]
		case strings.HasPrefix(args[i], "-budget="):
			budgetFile = strings.TrimPrefix(args[i], "-budget=")
		default:
			patterns = append(patterns, args[i])
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := framework.LoadPackages(".", patterns)
	if err != nil {
		fatal(err)
	}
	facts := framework.NewFactStore()
	var diags []framework.Diagnostic
	var suppressed []framework.Suppression
	for _, pkg := range pkgs {
		res, err := framework.RunAnalyzers(pkg, analysis.All(), facts)
		if err != nil {
			fatal(err)
		}
		diags = append(diags, res.Diagnostics...)
		suppressed = append(suppressed, res.Suppressed...)
	}

	budgetErrs := checkBudget(budgetFile, suppressed)

	if jsonOut {
		out, err := marshalJSON(diags, suppressed)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		os.Stdout.Write([]byte("\n"))
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		reportSuppressions(suppressed)
	}
	for _, e := range budgetErrs {
		fmt.Fprintln(os.Stderr, "fudjvet:", e)
	}
	if len(diags) > 0 || len(budgetErrs) > 0 {
		if !jsonOut && len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "fudjvet: %d finding(s)\n", len(diags))
		}
		os.Exit(2)
	}
}

// jsonFinding is one -json output record: a live finding or a
// suppressed one (suppressed=true, reason populated).
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col,omitempty"`
	Rule       string `json:"rule"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// marshalJSON renders diagnostics and suppressions as one sorted JSON
// array, findings first within each file/line.
func marshalJSON(diags []framework.Diagnostic, sup []framework.Suppression) ([]byte, error) {
	records := make([]jsonFinding, 0, len(diags)+len(sup))
	for _, d := range diags {
		records = append(records, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
	}
	for _, s := range sup {
		records = append(records, jsonFinding{
			File: s.Pos.Filename, Line: s.Pos.Line, Col: s.Pos.Column,
			Rule: s.Rule, Message: s.Message, Suppressed: true, Reason: s.Reason,
		})
	}
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Suppressed != b.Suppressed {
			return !a.Suppressed
		}
		return a.Rule < b.Rule
	})
	return json.MarshalIndent(records, "", "\t")
}

// parseBudget reads a suppression budget file: one "rule count" pair
// per line, '#' comments and blank lines ignored.
func parseBudget(data []byte) (map[string]int, error) {
	budget := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("budget line %d: want \"rule count\", got %q", i+1, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("budget line %d: bad count %q", i+1, fields[1])
		}
		budget[fields[0]] = n
	}
	return budget, nil
}

// checkBudget enforces the suppression ratchet: the live
// //fudjvet:ignore count per rule must not exceed the checked-in
// budget, and rules absent from the budget get zero. Shrinking the
// budget is the only way it changes — a new suppression forces either
// a fix or a reviewed budget bump.
func checkBudget(file string, sup []framework.Suppression) []error {
	if file == "" {
		return nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return []error{fmt.Errorf("suppression budget: %w", err)}
	}
	budget, err := parseBudget(data)
	if err != nil {
		return []error{fmt.Errorf("suppression budget: %w", err)}
	}
	live := make(map[string]int)
	for _, s := range sup {
		live[s.Rule]++
	}
	var rules []string
	for r := range live {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	var errs []error
	for _, r := range rules {
		if live[r] > budget[r] {
			errs = append(errs, fmt.Errorf(
				"suppression budget exceeded for %s: %d live //fudjvet:ignore directives, budget %d (%s); fix the findings or shrink elsewhere before raising the budget",
				r, live[r], budget[r], file))
		}
	}
	return errs
}

// reportSuppressions keeps the escape hatch honest: every silenced
// finding is counted and listed with its reason.
func reportSuppressions(sup []framework.Suppression) {
	if len(sup) == 0 {
		return
	}
	byRule := make(map[string]int)
	for _, s := range sup {
		byRule[s.Rule]++
	}
	var parts []string
	for _, a := range analysis.All() {
		if n := byRule[a.Name]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", a.Name, n))
		}
	}
	fmt.Fprintf(os.Stderr, "fudjvet: %d finding(s) suppressed by //fudjvet:ignore (%s)\n",
		len(sup), strings.Join(parts, ", "))
	for _, s := range sup {
		fmt.Fprintf(os.Stderr, "fudjvet: suppressed %s at %s:%d: %s\n", s.Rule, s.Pos.Filename, s.Pos.Line, s.Reason)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fudjvet:", err)
	os.Exit(1)
}
