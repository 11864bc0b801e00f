package lockorder_test

import (
	"testing"

	"github.com/epsilondb/epsilondb/internal/analysis/analysistest"
	"github.com/epsilondb/epsilondb/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "storage", "wal", "tso")
}

// TestLockorderExitsAndFsync checks rule 4 (every exit releases what the
// function acquired) and rule 5 (only the committer's call chain fsyncs).
// The walfsync golden declares package wal, which is what rule 5 keys on.
func TestLockorderExitsAndFsync(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "a", "walfsync")
}
