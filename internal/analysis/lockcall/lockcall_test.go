package lockcall

import (
	"testing"

	"mdes/internal/analysis"
	"mdes/internal/analysis/analyzertest"
)

func TestLockcall(t *testing.T) {
	saved := analysis.LockPackages
	analysis.LockPackages = append(append([]string{}, analysis.LockPackages...), "serve", "cluster")
	defer func() { analysis.LockPackages = saved }()

	analyzertest.Run(t, "testdata/src", Analyzer, "serve", "cluster", "elsewhere")
}
