// Command fudjvet is the FUDJ multichecker: it runs the
// internal/analysis suite over the repository and reports every
// invariant violation.
//
// It loads the packages itself (go list -export) and analyzes them in
// one process, one package at a time in import-path order:
//
//	fudjvet [packages]   (default ./...)
//
// It exits 2 if there is any finding, 1 if loading or an analyzer
// fails.
package main

import (
	"fmt"
	"os"

	"fudj/internal/analysis"
	"fudj/internal/analysis/framework"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.LoadPackages(".", patterns)
	if err != nil {
		fatal(err)
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := framework.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		findings += len(diags)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "fudjvet: %d finding(s)\n", findings)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fudjvet:", err)
	os.Exit(1)
}
