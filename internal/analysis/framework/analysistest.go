package framework

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// RunTest is the analysistest-style fixture driver: it loads each
// package directory under <testdata>/src, runs the analyzer, and
// compares the findings against `// want` expectations embedded in the
// fixture sources. The packages are independent; none imports another.
//
// Expectation syntax, on the line a finding is expected at:
//
//	code() // want `regexp matching the message`
//
// Multiple expectations on one line are separated by additional
// backquoted regexps. Lines without a want comment must produce no
// finding.
func RunTest(t *testing.T, testdata string, a *Analyzer, pkgs ...string) {
	t.Helper()
	for _, name := range pkgs {
		pkg, err := loadFixture(filepath.Join(testdata, "src", name))
		if err != nil {
			t.Fatalf("load fixture %s: %v", name, err)
		}
		diags, err := RunAnalyzers(pkg, []*Analyzer{a})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, name, err)
		}
		checkExpectations(t, pkg, diags)
	}
}

var wantRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// checkExpectations compares findings against // want comments.
func checkExpectations(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := make(map[string][]*expectation) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				text := c.Text
				if idx := strings.Index(text, "// want "); idx >= 0 {
					for _, m := range wantRe.FindAllStringSubmatch(text[idx:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
						}
						wants[key] = append(wants[key], &expectation{re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding at %s: %s: %s", key, d.Rule, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("no finding at %s matching %q", key, w.re)
			}
		}
	}
}
