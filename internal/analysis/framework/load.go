package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ExportLookup resolves an import path to its gc export data, the way
// the go command hands export files to vet tools.
type ExportLookup func(path string) (io.ReadCloser, error)

// TypeCheck parses the given files and type-checks them against export
// data supplied by lookup. It is the shared core of the driver's
// package loader and the fixture loader.
func TypeCheck(path string, filenames []string, lookup ExportLookup) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typeCheckFiles(path, fset, files, lookup)
}

func typeCheckFiles(path string, fset *token.FileSet, files []*ast.File, lookup ExportLookup) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", importer.Lookup(lookup))}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// listedPackage is the subset of `go list -json` output the loaders
// consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
	Incomplete bool
}

// goList runs `go list -export -deps -json` for the given patterns and
// returns the decoded package stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Imports,Standard,Incomplete",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("go list %v: decode: %w", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportIndex maps import paths to export data files.
type exportIndex map[string]string

func (idx exportIndex) lookup(path string) (io.ReadCloser, error) {
	file, ok := idx[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// LoadPackages loads and type-checks the non-standard-library packages
// matching patterns (e.g. "./..."), resolving imports through the build
// cache's export data. Only production files are loaded; the go tool
// already excludes testdata directories.
//
// Packages are returned in dependency order (imports before importers),
// so a caller analyzing them front to back with one shared FactStore
// sees every dependency's facts at its dependents' call sites. Ties are
// broken by import path for stable output.
func LoadPackages(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	idx := make(exportIndex)
	var targets []listedPackage
	for _, p := range listed {
		if p.Export != "" {
			idx[p.ImportPath] = p.Export
		}
		if !p.Standard {
			targets = append(targets, p)
		}
	}
	// `go list -deps` lists dependencies of the matched patterns too;
	// keep only packages the patterns name. The go tool prints matched
	// packages last, but the reliable filter is: a non-standard package
	// whose Dir sits under dir.
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var picked []listedPackage
	seen := make(map[string]bool)
	for _, p := range targets {
		if seen[p.ImportPath] || p.Incomplete || len(p.GoFiles) == 0 {
			continue
		}
		rel, err := filepath.Rel(absDir, p.Dir)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			continue
		}
		seen[p.ImportPath] = true
		picked = append(picked, p)
	}
	var out []*Package
	for _, p := range topoOrder(picked) {
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := TypeCheck(p.ImportPath, files, idx.lookup)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// topoOrder sorts pkgs so every package follows the packages it imports
// (restricted to the given set). The import graph is acyclic — the go
// tool enforces that — so the traversal terminates.
func topoOrder(pkgs []listedPackage) []listedPackage {
	byPath := make(map[string]listedPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	sort.Strings(paths)
	var out []listedPackage
	done := make(map[string]bool, len(pkgs))
	var visit func(path string)
	visit = func(path string) {
		p, ok := byPath[path]
		if !ok || done[path] {
			return
		}
		done[path] = true
		imps := append([]string(nil), p.Imports...)
		sort.Strings(imps)
		for _, imp := range imps {
			visit(imp)
		}
		out = append(out, p)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}

// LoadFixtureDirs parses and type-checks several fixture directories
// under root (testdata/src) as one multi-package fixture, in the order
// given. A later fixture may import an earlier one by its directory
// name (`import "a"`), which is how cross-package fact propagation is
// tested; dependency fixtures therefore come first. Standard-library
// imports resolve through the go tool's export data as usual.
func LoadFixtureDirs(root string, names ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	srcPkgs := make(map[string]*types.Package)
	var out []*Package
	for _, name := range names {
		dir := filepath.Join(root, name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		importSet := make(map[string]bool)
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			for _, imp := range f.Imports {
				p := imp.Path.Value[1 : len(imp.Path.Value)-1]
				if srcPkgs[p] == nil {
					importSet[p] = true
				}
			}
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		idx := make(exportIndex)
		if len(importSet) > 0 {
			var paths []string
			for p := range importSet {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			listed, err := goList(dir, paths)
			if err != nil {
				return nil, err
			}
			for _, p := range listed {
				if p.Export != "" {
					idx[p.ImportPath] = p.Export
				}
			}
		}
		pkg, err := typeCheckFixture(name, fset, files, srcPkgs, idx.lookup)
		if err != nil {
			return nil, err
		}
		srcPkgs[name] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// fixtureImporter resolves sibling fixture packages from source before
// falling back to gc export data for everything else.
type fixtureImporter struct {
	src map[string]*types.Package
	gc  types.Importer
}

func (im fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.src[path]; ok {
		return p, nil
	}
	return im.gc.Import(path)
}

func typeCheckFixture(path string, fset *token.FileSet, files []*ast.File, src map[string]*types.Package, lookup ExportLookup) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: fixtureImporter{
		src: src,
		gc:  importer.ForCompiler(fset, "gc", importer.Lookup(lookup)),
	}}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}
