// Package framework is a self-contained, stdlib-only re-implementation
// of the subset of golang.org/x/tools/go/analysis that the fudjvet
// analyzers need: an Analyzer/Pass/Diagnostic vocabulary, a loader that
// type-checks packages against gc export data, and an analysistest-style
// fixture driver.
//
// The build environment intentionally carries no third-party modules,
// so the real x/tools framework is unavailable; this package keeps the
// same shape (an analyzer is a name, a doc string, and a Run function
// over a type-checked package) so the analyzers would port to the real
// framework nearly verbatim if the dependency ever lands.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the rule; diagnostics are tagged with it.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and
	// why the engine needs it.
	Doc string
	// Packages restricts the rule to these package paths, each covering
	// its subtree; empty applies it to every package. Tests copy an
	// analyzer and point this at fixture packages.
	Packages []string
	// Run inspects one type-checked package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// appliesTo reports whether the rule covers the package at path.
func (a *Analyzer) appliesTo(path string) bool {
	for _, p := range a.Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return len(a.Packages) == 0
}

// Pass carries one analyzer's view of one type-checked package,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// NonTestFiles returns the pass's files excluding _test.go files. The
// fudjvet analyzers check production invariants, so they skip test code.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// Diagnostic is one finding, positioned and tagged with its rule.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in the file:line:col style go vet uses.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// RunAnalyzers executes each analyzer over pkg and returns the findings
// sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if !a.appliesTo(pkg.Types.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return posLess(diags[i].Pos, diags[j].Pos) })
	return diags, nil
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
