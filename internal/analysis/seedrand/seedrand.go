// Package seedrand forbids unseedable nondeterminism sources — wall
// clock reads (time.Now, and the time.Since / time.Until shorthands
// that call it) and the global math/rand generator — in the execution
// packages.
//
// Invariant: fault injection, retry, and speculative re-execution must
// replay bit-for-bit from a seed (internal/cluster's FaultInjector
// derives every decision from Seed and the fault site). A time.Now()
// or global rand call in cluster, engine, or wire code threads
// irreproducible state into execution decisions, so a chaos failure
// could never be replayed. Deliberately wall-clock things (busy-time
// metrics, phase timers, Result.Elapsed) read the injected trace.Clock,
// which tests replace with a deterministic one.
package seedrand

import (
	"go/ast"
	"go/types"

	"fudj/internal/analysis/framework"
)

// Analyzer is the seedrand rule, restricted to the execution substrate
// whose behavior must replay from a seed.
var Analyzer = &framework.Analyzer{
	Name: "seedrand",
	Doc: "forbids time.Now, time.Since, time.Until and the global math/rand generator in execution packages; " +
		"replayable behavior must derive from a seed",
	Packages: []string{
		"fudj/internal/cluster",
		"fudj/internal/engine",
		"fudj/internal/sched",
		"fudj/internal/serve",
		"fudj/internal/wire",
	},
	Run: run,
}

// randConstructors are the math/rand selectors that build independent,
// explicitly seeded generators; they are the sanctioned alternative,
// not a finding.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
	// Types and constants referenced via the package are fine too.
	"Rand": true, "Source": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.NonTestFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.ObjectOf(pkgIdent).(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if name := sel.Sel.Name; name == "Now" || name == "Since" || name == "Until" {
					pass.Reportf(sel.Pos(),
						"time.%s in %s: execution decisions must replay from a seed; "+
							"read the injected trace.Clock instead", name, pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"global math/rand.%s in %s: shared-source randomness is not replayable; "+
							"use a seeded rand.New(rand.NewSource(seed)) or derive from FaultConfig.Seed",
						sel.Sel.Name, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
