package tracecomplete_test

import (
	"testing"

	"github.com/epsilondb/epsilondb/internal/analysis/analysistest"
	"github.com/epsilondb/epsilondb/internal/analysis/tracecomplete"
)

func TestTraceComplete(t *testing.T) {
	analysistest.Run(t, "testdata", tracecomplete.Analyzer, "tso")
}
