package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestGoroutineFree(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.GoroutineFree,
		"repro/internal/sim/gofreebad", // positives + allowlisted negative
		"repro/internal/sim",           // iter.Pull: coro.go exempt, its neighbour not
		"repro/internal/run/gofreeok",  // out of scope: the worker pool may use real concurrency
	)
}
