package sqlparse

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"runtime"
	"strconv"
	"testing"
)

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Parsing may allocate a fixed overhead plus a bounded multiple of its
// input: one input byte can become a token and an expression node
// holding a 32-byte literal value.
const (
	allocPerByte  = 512
	allocOverhead = 2 << 20
)

// FuzzParse feeds the parser arbitrary statements, as fudjd does with
// every client's SQL. Parse may reject them but must never panic, and
// never allocate more than the input's size bounds; an accepted
// statement must print as SQL that parses back to the same printed text.
// The seeds are every string literal of parser_test.go, so each
// statement a unit test parses starts the corpus.
func FuzzParse(f *testing.F) {
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "parser_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(s)
		}
		return true
	})

	f.Fuzz(func(t *testing.T, sql string) {
		var (
			stmt Statement
			err  error
		)
		allocs := allocated(func() { stmt, err = Parse(sql) })
		if limit := uint64(allocOverhead + allocPerByte*len(sql)); allocs > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(sql), allocs, limit)
		}
		if err != nil {
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", sql, printed, err)
		}
		if s := again.String(); s != printed {
			t.Fatalf("%q prints as %q, which prints as %q", sql, printed, s)
		}
	})
}
