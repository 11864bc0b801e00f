package metrics

import (
	"sync"
	"testing"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Begin()
	c.Commit()
	c.Abort(AbortLateRead, 5)
	c.ReadExecuted(true)
	c.WriteExecuted(false)
	c.Waited()
	c.DirtySourceAborted()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil collector snapshot = %+v", s)
	}
}

func TestCountersAndDerivedMetrics(t *testing.T) {
	c := &Collector{}
	c.Begin()
	c.Begin()
	c.Commit()
	c.Abort(AbortLateRead, 3)
	c.Abort(AbortImportLimit, 2)
	c.ReadExecuted(true)
	c.ReadExecuted(false)
	c.ReadExecuted(false)
	c.WriteExecuted(true)
	c.Waited()
	c.DirtySourceAborted()

	s := c.Snapshot()
	if s.Begins != 2 || s.Commits != 1 {
		t.Errorf("begins=%d commits=%d", s.Begins, s.Commits)
	}
	if s.Aborts() != 2 {
		t.Errorf("Aborts() = %d, want 2", s.Aborts())
	}
	if s.WastedOps != 5 {
		t.Errorf("WastedOps = %d, want 5", s.WastedOps)
	}
	if s.TotalOps() != 4 {
		t.Errorf("TotalOps = %d, want 4", s.TotalOps())
	}
	if s.InconsistentOps() != 2 {
		t.Errorf("InconsistentOps = %d, want 2", s.InconsistentOps())
	}
	if s.OpsPerCommit() != 4 {
		t.Errorf("OpsPerCommit = %f, want 4", s.OpsPerCommit())
	}
	if s.Waits != 1 || s.DirtySourceAborted != 1 {
		t.Errorf("waits=%d dirty=%d", s.Waits, s.DirtySourceAborted)
	}
}

func TestAllAbortReasonsRouted(t *testing.T) {
	c := &Collector{}
	reasons := []AbortReason{
		AbortLateRead, AbortLateWrite, AbortImportLimit, AbortExportLimit,
		AbortWaitTimeout, AbortMissingObject, AbortExplicit, AbortOther,
	}
	for _, r := range reasons {
		c.Abort(r, 0)
		if r.String() == "" {
			t.Errorf("empty string for reason %d", r)
		}
	}
	c.Abort(AbortReason(200), 0) // unknown → other
	s := c.Snapshot()
	if s.Aborts() != int64(len(reasons)+1) {
		t.Errorf("Aborts() = %d, want %d", s.Aborts(), len(reasons)+1)
	}
	if s.AbortOther != 2 {
		t.Errorf("AbortOther = %d, want 2", s.AbortOther)
	}
	if AbortReason(200).String() != "other" {
		t.Error("unknown reason string")
	}
}

func TestOpsPerCommitZeroCommits(t *testing.T) {
	c := &Collector{}
	c.ReadExecuted(false)
	if got := c.Snapshot().OpsPerCommit(); got != 0 {
		t.Errorf("OpsPerCommit with zero commits = %f", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	c := &Collector{}
	c.Commit()
	c.ReadExecuted(true)
	before := c.Snapshot()
	c.Commit()
	c.Commit()
	c.Abort(AbortLateWrite, 1)
	c.WriteExecuted(true)
	delta := c.Snapshot().Sub(before)
	if delta.Commits != 2 {
		t.Errorf("delta commits = %d, want 2", delta.Commits)
	}
	if delta.Aborts() != 1 || delta.WastedOps != 1 {
		t.Errorf("delta aborts=%d wasted=%d", delta.Aborts(), delta.WastedOps)
	}
	if delta.ReadsExecuted != 0 || delta.WritesExecuted != 1 {
		t.Errorf("delta reads=%d writes=%d", delta.ReadsExecuted, delta.WritesExecuted)
	}
	if delta.InconsistentOps() != 1 {
		t.Errorf("delta inconsistent = %d", delta.InconsistentOps())
	}
}

func TestCollectorConcurrentUpdates(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Commit()
				c.ReadExecuted(j%2 == 0)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Commits != 8000 || s.ReadsExecuted != 8000 || s.InconsistentReads != 4000 {
		t.Errorf("concurrent counters wrong: %+v", s)
	}
}
