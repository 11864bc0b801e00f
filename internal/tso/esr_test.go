package tso

import (
	"math"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// --- ESR case 1: query read views committed data newer than the query ---

func TestCase1LateQueryReadWithinBounds(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	q := mustBegin(t, e, core.Query, 10, 60) // TIL = 60
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 150); err != nil { // 100 → 150, d = 50
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	v, err := e.Read(q, 1)
	if err != nil {
		t.Fatalf("case-1 read within bounds aborted: %v", err)
	}
	if v != 150 {
		t.Errorf("case-1 read = %d, want present value 150", v)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
}

func TestCase1LateQueryReadExceedingTILAborts(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	q := mustBegin(t, e, core.Query, 10, 49) // d will be 50 > 49
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	_, err := e.Read(q, 1)
	ae := wantAbort(t, err, metrics.AbortImportLimit)
	var le *core.LimitError
	if !asLimitError(ae, &le) {
		t.Fatalf("cause is not a LimitError: %v", ae)
	}
	if le.Level != core.LevelTransaction || le.Distance != 50 {
		t.Errorf("violation = %+v", le)
	}
}

func TestCase1AccumulatesAcrossReads(t *testing.T) {
	// Two late reads of d=50 each: TIL 100 admits both, TIL 99 only one.
	run := func(til core.Distance) (int, error) {
		e := newTestEngine(t, 2, Options{})
		q := mustBegin(t, e, core.Query, 10, til)
		u := mustBegin(t, e, core.Update, 20, 0)
		if err := e.Write(u, 1, 150); err != nil {
			return 0, err
		}
		if err := e.Write(u, 2, 250); err != nil {
			return 0, err
		}
		if err := e.Commit(u); err != nil {
			return 0, err
		}
		reads := 0
		if _, err := e.Read(q, 1); err != nil {
			return reads, err
		}
		reads++
		if _, err := e.Read(q, 2); err != nil {
			return reads, err
		}
		reads++
		return reads, e.Commit(q)
	}
	if n, err := run(100); err != nil || n != 2 {
		t.Errorf("TIL 100: reads=%d err=%v, want 2,nil", n, err)
	}
	n, err := run(99)
	if n != 1 {
		t.Errorf("TIL 99: reads=%d, want 1", n)
	}
	wantAbort(t, err, metrics.AbortImportLimit)
}

func TestCase1OILCheckedBeforeTIL(t *testing.T) {
	st := storage.NewStore(storage.Config{DefaultOIL: 30, DefaultOEL: core.NoLimit})
	if _, err := st.Create(1, 100); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, Options{})
	q := mustBegin(t, e, core.Query, 10, core.NoLimit) // huge TIL, small OIL
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	_, err := e.Read(q, 1)
	ae := wantAbort(t, err, metrics.AbortImportLimit)
	var le *core.LimitError
	if !asLimitError(ae, &le) || le.Level != core.LevelObject {
		t.Errorf("want object-level violation, got %v", ae)
	}
}

// --- ESR case 2: query read views uncommitted data ---

func TestCase2DirtyReadWithinBounds(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	u := mustBegin(t, e, core.Update, 10, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	// Query younger than the pending write reads the dirty value without
	// blocking, charging d = 50.
	q := mustBegin(t, e, core.Query, 20, 60)
	v, err := e.Read(q, 1)
	if err != nil {
		t.Fatalf("case-2 read aborted: %v", err)
	}
	if v != 150 {
		t.Errorf("case-2 read = %d, want dirty 150", v)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
}

func TestCase2QueryOlderThanPendingWriteWithinBounds(t *testing.T) {
	// The paper reads the present value whenever the bounds allow it,
	// even when the query's timestamp precedes the pending write.
	e := newTestEngine(t, 1, Options{})
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	q := mustBegin(t, e, core.Query, 10, 60)
	v, err := e.Read(q, 1)
	if err != nil || v != 150 {
		t.Fatalf("read = %d,%v, want dirty 150", v, err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
}

func TestCase2BoundsRefusedOlderQueryFallsBackToCommitted(t *testing.T) {
	// d = 50 exceeds TIL 10, but the query is older than the pending
	// write, so it reads the committed value consistently instead of
	// blocking or aborting.
	e := newTestEngine(t, 1, Options{})
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	q := mustBegin(t, e, core.Query, 10, 10)
	v, err := e.Read(q, 1)
	if err != nil || v != 100 {
		t.Fatalf("read = %d,%v, want committed 100", v, err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
}

func TestCase2BoundsRefusedYoungerQueryWaits(t *testing.T) {
	// d = 50 exceeds TIL 10 and the query is younger than the pending
	// write: it must wait for the writer, then read consistently.
	e := newTestEngine(t, 1, Options{})
	u := mustBegin(t, e, core.Update, 10, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	q := mustBegin(t, e, core.Query, 20, 10)
	done := make(chan core.Value, 1)
	go func() {
		v, err := e.Read(q, 1)
		if err != nil {
			done <- -1
			return
		}
		done <- v
	}()
	select {
	case v := <-done:
		t.Fatalf("query returned %d without waiting", v)
	case <-time.After(30 * time.Millisecond):
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		// After the commit the query (ts 20) is younger than the write
		// (ts 10): a consistent read of 150.
		if v != 150 {
			t.Fatalf("read after wait = %d, want 150", v)
		}
	case <-time.After(time.Second):
		t.Fatal("query read never woke")
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
}

// --- ESR case 3: update write older than a query read ---

func TestCase3LateWriteWithinBounds(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	q := mustBegin(t, e, core.Query, 20, core.NoLimit)
	if v, err := e.Read(q, 1); err != nil || v != 100 {
		t.Fatalf("query read = %d,%v", v, err)
	}
	// The update's timestamp precedes the query's read: case 3. It
	// exports |130 − 100| = 30 to the uncommitted query.
	u := mustBegin(t, e, core.Update, 10, 30) // TEL = 30
	if err := e.Write(u, 1, 130); err != nil {
		t.Fatalf("case-3 write within bounds aborted: %v", err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
}

func TestCase3LateWriteExceedingTELAborts(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	q := mustBegin(t, e, core.Query, 20, core.NoLimit)
	if _, err := e.Read(q, 1); err != nil {
		t.Fatal(err)
	}
	u := mustBegin(t, e, core.Update, 10, 29) // d = 30 > TEL 29
	err := e.Write(u, 1, 130)
	ae := wantAbort(t, err, metrics.AbortExportLimit)
	var le *core.LimitError
	if !asLimitError(ae, &le) || le.Import {
		t.Errorf("want export LimitError, got %v", ae)
	}
}

func TestCase3OELEnforced(t *testing.T) {
	st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: 10})
	if _, err := st.Create(1, 100); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, Options{})
	q := mustBegin(t, e, core.Query, 20, core.NoLimit)
	if _, err := e.Read(q, 1); err != nil {
		t.Fatal(err)
	}
	u := mustBegin(t, e, core.Update, 10, core.NoLimit) // huge TEL, small OEL
	err := e.Write(u, 1, 130)
	ae := wantAbort(t, err, metrics.AbortExportLimit)
	var le *core.LimitError
	if !asLimitError(ae, &le) || le.Level != core.LevelObject {
		t.Errorf("want object-level export violation, got %v", ae)
	}
}

func TestCase3ExportIsMaxOverReaders(t *testing.T) {
	// §5.2: d is the maximum over the concurrent query readers, not the
	// sum. Two readers with proper values 100; write of 130 exports 30,
	// so TEL 30 admits it even with two readers.
	e := newTestEngine(t, 1, Options{})
	q1 := mustBegin(t, e, core.Query, 20, core.NoLimit)
	q2 := mustBegin(t, e, core.Query, 30, core.NoLimit)
	if _, err := e.Read(q1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q2, 1); err != nil {
		t.Fatal(err)
	}
	u := mustBegin(t, e, core.Update, 10, 30)
	if err := e.Write(u, 1, 130); err != nil {
		t.Fatalf("max-based export rejected: %v", err)
	}
	for _, txn := range []core.TxnID{u, q1, q2} {
		if err := e.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCase3CommittedReaderExportsNothing(t *testing.T) {
	// Once the query commits its reader entry is withdrawn; a late write
	// under ESR then exports d = 0 and proceeds (the paper tracks only
	// uncommitted query ETs, §5.2).
	e := newTestEngine(t, 1, Options{})
	q := mustBegin(t, e, core.Query, 20, core.NoLimit)
	if _, err := e.Read(q, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
	u := mustBegin(t, e, core.Update, 10, 1) // tiny TEL still admits d=0
	if err := e.Write(u, 1, 130); err != nil {
		t.Fatalf("write after reader committed: %v", err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
}

func TestCase3NeverRelaxesZeroEpsilonQueryRead(t *testing.T) {
	// A zero-epsilon query imports nothing, so an older write landing
	// under its read is a hard conflict, as under an update read: the
	// write aborts whether the query is still running or has committed,
	// however much the writer itself may export.
	for _, commitFirst := range []bool{false, true} {
		e := newTestEngine(t, 1, Options{})
		q := mustBegin(t, e, core.Query, 20, 0)
		if _, err := e.Read(q, 1); err != nil {
			t.Fatal(err)
		}
		if commitFirst {
			if err := e.Commit(q); err != nil {
				t.Fatal(err)
			}
		}
		u := mustBegin(t, e, core.Update, 10, core.NoLimit)
		wantAbort(t, e.Write(u, 1, 130), metrics.AbortLateWrite)
		if !commitFirst {
			if err := e.Commit(q); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// --- Figure 5 composite: proper value via write history ---

func TestFigure5ProperValueAcrossManyUpdates(t *testing.T) {
	// Q1 begins; U2, U3, U4 write x and commit; Q1 then reads x. The
	// proper value is the one before Q1 began (written by "U1" — the
	// initial load); the present value is U4's. d = |N4 − P1|.
	e := newTestEngine(t, 1, Options{})
	q := mustBegin(t, e, core.Query, 10, core.NoLimit)
	vals := []core.Value{110, 125, 140}
	for i, v := range vals {
		u := mustBegin(t, e, core.Update, int64(20+10*i), 0)
		if err := e.Write(u, 1, v); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(u); err != nil {
			t.Fatal(err)
		}
	}
	v, err := e.Read(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 140 {
		t.Errorf("present value = %d, want 140", v)
	}
	st, err := e.lookup(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.acc.Total(); got != 40 {
		t.Errorf("imported inconsistency = %d, want |140−100| = 40", got)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
}

// --- Hierarchical bounds through the engine ---

func TestHierarchicalGroupLimitEnforcedByEngine(t *testing.T) {
	schema := core.NewSchema()
	company := schema.MustAddGroup("company", core.RootGroup)
	personal := schema.MustAddGroup("personal", core.RootGroup)
	st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
	for i, grp := range []core.GroupID{company, company, personal} {
		id := core.ObjectID(i + 1)
		if _, err := st.Create(id, 100); err != nil {
			t.Fatal(err)
		}
		if err := schema.Assign(id, grp); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(st, Options{Schema: schema})

	// Updates push every object from 100 to 150 (d = 50 per object).
	u := mustBegin(t, e, core.Update, 20, 0)
	for i := 1; i <= 3; i++ {
		if err := e.Write(u, core.ObjectID(i), 150); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}

	// TIL 200 would admit all three, but LIMIT company 80 only admits
	// one company object (50), not two (100).
	spec := core.BoundSpec{Transaction: 200}.WithGroup("company", 80)
	q, err := e.Begin(core.Query, tsgen.Make(10, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q, 1); err != nil {
		t.Fatalf("first company read: %v", err)
	}
	_, err = e.Read(q, 2)
	ae := wantAbort(t, err, metrics.AbortImportLimit)
	var le *core.LimitError
	if !asLimitError(ae, &le) || le.Level != core.LevelGroup || le.Node != "company" {
		t.Errorf("want company group violation, got %v", ae)
	}
}

// --- Metrics ---

func TestMetricsCountersTrackOutcomes(t *testing.T) {
	col := &metrics.Collector{}
	e := newTestEngine(t, 2, Options{Collector: col})

	q := mustBegin(t, e, core.Query, 10, 60)
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q, 1); err != nil { // case 1, inconsistent
		t.Fatal(err)
	}
	if _, err := e.Read(q, 2); err != nil { // consistent
		t.Fatal(err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}

	q2 := mustBegin(t, e, core.Query, 15, 0) // SR query, will abort late
	if _, err := e.Read(q2, 1); err == nil {
		t.Fatal("expected late-read abort")
	}

	s := col.Snapshot()
	if s.Begins != 3 || s.Commits != 2 {
		t.Errorf("begins=%d commits=%d, want 3,2", s.Begins, s.Commits)
	}
	if s.Aborts() != 1 || s.AbortLateRead != 1 {
		t.Errorf("aborts=%d lateRead=%d, want 1,1", s.Aborts(), s.AbortLateRead)
	}
	if s.ReadsExecuted != 2 || s.WritesExecuted != 1 {
		t.Errorf("reads=%d writes=%d, want 2,1", s.ReadsExecuted, s.WritesExecuted)
	}
	if s.InconsistentReads != 1 || s.InconsistentWrites != 0 {
		t.Errorf("inconsistent reads=%d writes=%d, want 1,0", s.InconsistentReads, s.InconsistentWrites)
	}
	if s.TotalOps() != 3 {
		t.Errorf("TotalOps = %d, want 3", s.TotalOps())
	}
}

func TestMetricsWastedOpsOnAbort(t *testing.T) {
	col := &metrics.Collector{}
	e := newTestEngine(t, 3, Options{Collector: col})
	q := mustBegin(t, e, core.Query, 10, 0)
	if _, err := e.Read(q, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q, 2); err != nil {
		t.Fatal(err)
	}
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q, 3); err == nil { // late → abort after 2 good ops
		t.Fatal("expected abort")
	}
	s := col.Snapshot()
	if s.WastedOps != 2 {
		t.Errorf("WastedOps = %d, want 2", s.WastedOps)
	}
}

func TestDirtySourceAbortedCounter(t *testing.T) {
	col := &metrics.Collector{}
	e := newTestEngine(t, 1, Options{Collector: col})
	u := mustBegin(t, e, core.Update, 10, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	q := mustBegin(t, e, core.Query, 20, core.NoLimit)
	if v, err := e.Read(q, 1); err != nil || v != 150 {
		t.Fatalf("dirty read = %d,%v", v, err)
	}
	if err := e.Abort(u); err != nil { // the §5.1 corner: writer aborts
		t.Fatal(err)
	}
	if got := col.Snapshot().DirtySourceAborted; got != 1 {
		t.Errorf("DirtySourceAborted = %d, want 1", got)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
}

// asLimitError unwraps an AbortError's cause into a LimitError.
func asLimitError(ae *AbortError, le **core.LimitError) bool {
	l, ok := ae.Err.(*core.LimitError)
	if !ok {
		return false
	}
	*le = l
	return true
}

// A distance wider than MaxInt64 saturates at NoLimit: a NoLimit query
// admits it and a finite TIL refuses it as a limit violation, instead of
// both seeing a wrapped, negative distance.
func TestExtremeDistanceSaturatesAtNoLimit(t *testing.T) {
	setup := func(til core.Distance) (*Engine, core.TxnID) {
		e := newTestEngine(t, 1, Options{})
		q := mustBegin(t, e, core.Query, 10, til)
		u := mustBegin(t, e, core.Update, 20, 0)
		if err := e.Write(u, 1, math.MinInt64); err != nil { // over 100
			t.Fatal(err)
		}
		if err := e.Commit(u); err != nil {
			t.Fatal(err)
		}
		return e, q
	}

	e, q := setup(core.NoLimit)
	v, err := e.Read(q, 1)
	if err != nil {
		t.Fatalf("NoLimit query refused a case-1 read: %v", err)
	}
	if v != math.MinInt64 {
		t.Errorf("read = %d, want %d", v, int64(math.MinInt64))
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}

	e, q = setup(1000)
	_, err = e.Read(q, 1)
	ae := wantAbort(t, err, metrics.AbortImportLimit)
	var le *core.LimitError
	if !asLimitError(ae, &le) || le.Distance != core.NoLimit {
		t.Errorf("finite TIL refused the read for the wrong reason: %v", ae)
	}

	// Case 3: MinInt64 over a reader's proper MaxInt64 is an export of
	// NoLimit, not the wrapped difference 1, so TEL = 10 refuses it.
	st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
	if _, err := st.Create(1, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	e = NewEngine(st, Options{})
	q = mustBegin(t, e, core.Query, 30, core.NoLimit)
	if _, err := e.Read(q, 1); err != nil {
		t.Fatal(err)
	}
	u := mustBegin(t, e, core.Update, 20, 10)
	err = e.Write(u, 1, math.MinInt64)
	ae = wantAbort(t, err, metrics.AbortExportLimit)
	if !asLimitError(ae, &le) || le.Distance != core.NoLimit {
		t.Errorf("TEL refused the write for the wrong reason: %v", ae)
	}
}
