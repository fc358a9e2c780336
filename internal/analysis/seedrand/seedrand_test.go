package seedrand_test

import (
	"testing"

	"fudj/internal/analysis/framework"
	"fudj/internal/analysis/seedrand"
)

func TestSeedRand(t *testing.T) {
	// Restrict the rule to fixture package "a"; package "b" holds the
	// same constructs and must stay silent.
	a := *seedrand.Analyzer
	a.Packages = []string{"a"}
	framework.RunTest(t, "testdata", &a, "a", "b")
}
