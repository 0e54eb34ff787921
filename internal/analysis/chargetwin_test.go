package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestChargeTwin(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.ChargeTwin,
		// The fixture path ends in the scoped segments.
		"chargetwin/internal/apps/scalekern", // kernel twins (xBody ↔ xTask.Step)
	)
}
