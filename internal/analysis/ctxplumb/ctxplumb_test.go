package ctxplumb_test

import (
	"testing"

	"fudj/internal/analysis/ctxplumb"
	"fudj/internal/analysis/framework"
)

func TestCtxPlumb(t *testing.T) {
	a := *ctxplumb.Analyzer
	a.Packages = []string{"a"}
	framework.RunTest(t, "testdata", &a, "a")
}
