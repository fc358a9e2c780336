// Package analysis aggregates the fudjvet analyzer suite: the
// repo-specific invariants (determinism, isolation, bounded
// allocation, cancellation) that the compiler cannot check but the
// engine's correctness argument depends on. cmd/fudjvet runs them as
// one multichecker; each analyzer package carries its own
// fixture-driven tests.
package analysis

import (
	"fudj/internal/analysis/boundedalloc"
	"fudj/internal/analysis/ctxplumb"
	"fudj/internal/analysis/errwrap"
	"fudj/internal/analysis/framework"
	"fudj/internal/analysis/hotatomic"
	"fudj/internal/analysis/maporder"
	"fudj/internal/analysis/metricslock"
	"fudj/internal/analysis/seedrand"
	"fudj/internal/analysis/sidesym"
	"fudj/internal/analysis/spillclose"
	"fudj/internal/analysis/udfcatch"
)

// All returns the full fudjvet suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		maporder.Analyzer,
		seedrand.Analyzer,
		udfcatch.Analyzer,
		boundedalloc.Analyzer,
		ctxplumb.Analyzer,
		sidesym.Analyzer,
		metricslock.Analyzer,
		spillclose.Analyzer,
		errwrap.Analyzer,
		hotatomic.Analyzer,
	}
}
