// Package analysis aggregates the fudjvet analyzer suite: the
// repo-specific invariants (determinism, error wrapping, uncontended
// hot loops) that the compiler cannot check and no test observes. UDF
// panic isolation and bounded decoding are not among them: the root
// package's TestUDFPanicMatrix and the decoder fuzz targets check them
// at run time. cmd/fudjvet runs the suite as one multichecker; each
// analyzer package carries its own fixture-driven tests.
package analysis

import (
	"fudj/internal/analysis/errwrap"
	"fudj/internal/analysis/framework"
	"fudj/internal/analysis/hotatomic"
	"fudj/internal/analysis/seedrand"
)

// All returns the full fudjvet suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		seedrand.Analyzer,
		errwrap.Analyzer,
		hotatomic.Analyzer,
	}
}
