package lockorder

import (
	"testing"

	"mdes/internal/analysis"
	"mdes/internal/analysis/analyzertest"
)

func TestLockorder(t *testing.T) {
	saved := analysis.LockPackages
	analysis.LockPackages = append(append([]string{}, analysis.LockPackages...), "serve", "clean")
	defer func() { analysis.LockPackages = saved }()

	analyzertest.Run(t, "testdata/src", Analyzer, "serve", "clean")
}
