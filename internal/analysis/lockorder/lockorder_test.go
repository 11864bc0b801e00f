package lockorder_test

import (
	"testing"

	"github.com/epsilondb/epsilondb/internal/analysis/analysistest"
	"github.com/epsilondb/epsilondb/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "storage", "wal", "tso")
}
