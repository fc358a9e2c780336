package hotatomic_test

import (
	"testing"

	"fudj/internal/analysis/framework"
	"fudj/internal/analysis/hotatomic"
)

func TestHotAtomic(t *testing.T) {
	// Restrict the rule to fixture package "a"; package "b" holds the
	// flagged shape and must stay silent.
	a := *hotatomic.Analyzer
	a.Packages = []string{"a"}
	framework.RunTest(t, "testdata", &a, "a", "b")
}
