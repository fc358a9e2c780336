// Package analysis aggregates the fudjvet analyzer suite: the
// repo-specific invariants (determinism, bounded allocation, error
// wrapping, uncontended hot loops) that the compiler cannot check and
// no test observes. UDF panic isolation is not among them: the root
// package's TestUDFPanicMatrix checks it at run time. cmd/fudjvet runs
// the suite as one multichecker; each analyzer package carries its own
// fixture-driven tests.
package analysis

import (
	"fudj/internal/analysis/boundedalloc"
	"fudj/internal/analysis/errwrap"
	"fudj/internal/analysis/framework"
	"fudj/internal/analysis/hotatomic"
	"fudj/internal/analysis/seedrand"
)

// All returns the full fudjvet suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		seedrand.Analyzer,
		boundedalloc.Analyzer,
		errwrap.Analyzer,
		hotatomic.Analyzer,
	}
}
