// Package framework is a self-contained, stdlib-only re-implementation
// of the subset of golang.org/x/tools/go/analysis that the fudjvet
// analyzers need: an Analyzer/Pass/Diagnostic vocabulary, a loader that
// type-checks packages against gc export data, an analysistest-style
// fixture driver, and the `//fudjvet:ignore` escape-hatch machinery.
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
	// Name identifies the rule; it is what //fudjvet:ignore directives
	// name and what diagnostics are tagged with.
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

	// Facts is the interprocedural store shared across the packages of
	// one run: analyzers read facts exported by the packages this one
	// imports and record facts about this package's own functions for
	// the packages analyzed after it. Never nil.
	Facts *FactStore

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

// IsTestFile reports whether pos lies in a _test.go file. The fudjvet
// analyzers check production invariants, so they skip test code.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// NonTestFiles returns the pass's files excluding _test.go files.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !p.IsTestFile(f.Pos()) {
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

// Suppression records one diagnostic silenced by a //fudjvet:ignore
// directive, so the multichecker can count and report what the escape
// hatch is hiding.
type Suppression struct {
	Rule    string
	Pos     token.Position
	Message string // the silenced finding's text
	Reason  string // the directive's "-- reason"
}

// Result is the outcome of running a set of analyzers over one package.
type Result struct {
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed are findings silenced by ignore directives.
	Suppressed []Suppression
}

// RunAnalyzers executes each analyzer over pkg and applies the ignore
// directives found in the package's files. Directive hygiene problems
// (missing reason) surface as ordinary diagnostics under the pseudo-rule
// "fudjvet".
//
// facts carries interprocedural function summaries across packages:
// pass nil for a fresh single-package run, or one shared store while
// analyzing a module in dependency order so facts exported by
// dependencies resolve at their dependents' call sites.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, facts *FactStore) (Result, error) {
	if facts == nil {
		facts = NewFactStore()
	}
	var raw []Diagnostic
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
			Facts:     facts,
		}
		pass.report = func(d Diagnostic) { raw = append(raw, d) }
		if err := a.Run(pass); err != nil {
			return Result{}, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	dirs, dirDiags := parseIgnoreDirectives(pkg.Fset, pkg.Files)
	res := Result{}
	for _, d := range raw {
		if reason, ok := dirs.match(d); ok {
			res.Suppressed = append(res.Suppressed, Suppression{Rule: d.Rule, Pos: d.Pos, Message: d.Message, Reason: reason})
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	res.Diagnostics = append(res.Diagnostics, dirDiags...)
	sort.Slice(res.Diagnostics, func(i, j int) bool { return posLess(res.Diagnostics[i].Pos, res.Diagnostics[j].Pos) })
	sort.Slice(res.Suppressed, func(i, j int) bool { return posLess(res.Suppressed[i].Pos, res.Suppressed[j].Pos) })
	return res, nil
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
