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

// parseFiles parses the named files, with comments, into one file set.
func parseFiles(filenames []string) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// typeCheck type-checks files against the export data idx names. It is
// the shared core of the driver's package loader and the fixture loader.
func typeCheck(path string, fset *token.FileSet, files []*ast.File, idx exportIndex) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", importer.Lookup(idx.lookup))}
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
	Standard   bool
	Incomplete bool
}

// goList runs `go list -export -deps -json` for the given patterns and
// returns the decoded package stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Incomplete",
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

// exportIndex maps import paths to export data files, the way the go
// command hands export files to vet tools.
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
// already excludes testdata directories. Packages are returned in
// import-path order, for stable output.
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
	sort.Slice(picked, func(i, j int) bool { return picked[i].ImportPath < picked[j].ImportPath })
	var out []*Package
	for _, p := range picked {
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		fset, parsed, err := parseFiles(files)
		if err != nil {
			return nil, err
		}
		pkg, err := typeCheck(p.ImportPath, fset, parsed, idx)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// loadFixture parses and type-checks the fixture package in dir, a
// directory under testdata/src whose name is the package's import path.
// Its imports resolve through the go tool's export data.
func loadFixture(dir string) (*Package, error) {
	filenames, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	fset, files, err := parseFiles(filenames)
	if err != nil {
		return nil, err
	}
	var imports []string
	for _, f := range files {
		for _, imp := range f.Imports {
			imports = append(imports, strings.Trim(imp.Path.Value, `"`))
		}
	}
	idx := make(exportIndex)
	if len(imports) > 0 {
		listed, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				idx[p.ImportPath] = p.Export
			}
		}
	}
	return typeCheck(filepath.Base(dir), fset, files, idx)
}
