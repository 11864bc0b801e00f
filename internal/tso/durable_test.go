package tso

import (
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/wal"
)

// durableEngine builds an engine over a write-ahead log on a MemFS whose
// group-commit window is an hour, so nothing is fsynced unless the test
// calls Sync (or a create waits for its record).
func durableEngine(t *testing.T, n int) (*Engine, *wal.Log, *metrics.Collector) {
	t.Helper()
	col := &metrics.Collector{}
	store, l, _, err := wal.Recover(wal.NewMemFS(), storage.Config{}, wal.Options{SyncInterval: time.Hour, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i := 1; i <= n; i++ {
		if _, err := store.CreateWithLimits(core.ObjectID(i), core.Value(100*i), core.NoLimit, core.NoLimit); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(store, Options{Collector: col, Durability: l}), l, col
}

// commitAsync commits txn on its own goroutine; the channel yields the
// result once the commit is acknowledged.
func commitAsync(e *Engine, txn core.TxnID) <-chan error {
	done := make(chan error, 1)
	go func() { done <- e.Commit(txn) }()
	return done
}

// returnsWithin reports whether done yields within d, failing the test
// on a commit error.
func returnsWithin(t *testing.T, done <-chan error, d time.Duration) bool {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
		return true
	case <-time.After(d):
		return false
	}
}

// durableTransfer commits a transfer of 10 from object 1 to object 2 at
// ts and makes it durable.
func durableTransfer(t *testing.T, e *Engine, l *wal.Log, ts int64) {
	t.Helper()
	u := mustBegin(t, e, core.Update, ts, 0)
	for obj, delta := range map[core.ObjectID]core.Value{1: -10, 2: 10} {
		if _, err := e.WriteDelta(u, obj, delta); err != nil {
			t.Fatal(err)
		}
	}
	head := l.Head()
	done := commitAsync(e, u)
	for deadline := time.Now().Add(5 * time.Second); l.Head() == head; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("transfer never logged")
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if !returnsWithin(t, done, 5*time.Second) {
		t.Fatal("transfer commit never acknowledged")
	}
}

// fsyncs counts the log's fsyncs so far.
func fsyncs(col *metrics.Collector) int64 { return col.LatencySnapshot()[metrics.LatFsync].Count }

func TestDurableQueryOverDurableVersionsNeedsNoFsync(t *testing.T) {
	e, l, col := durableEngine(t, 3)
	durableTransfer(t, e, l, 10)
	before, head := fsyncs(col), l.Head()

	q := mustBegin(t, e, core.Query, 20, 0)
	var sum core.Value
	for obj := core.ObjectID(1); obj <= 3; obj++ {
		v, err := e.Read(q, obj)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if !returnsWithin(t, commitAsync(e, q), 5*time.Second) {
		t.Fatal("a query over durable versions waited for a flush")
	}
	if sum != 600 {
		t.Fatalf("query summed %d, want 600", sum)
	}
	if got := fsyncs(col) - before; got != 0 {
		t.Fatalf("the query cost %d fsyncs, want 0", got)
	}
	if got := l.Head(); got != head {
		t.Fatalf("the query appended records: head %d -> %d", head, got)
	}
	if s := col.Snapshot(); s.ReadOnlyCommits != 1 || s.ReadOnlyWaits != 0 {
		t.Fatalf("read-only counters = %d/%d, want 1/0", s.ReadOnlyCommits, s.ReadOnlyWaits)
	}
}

func TestDurableQueryOverUnsyncedVersionWaitsForSync(t *testing.T) {
	e, l, col := durableEngine(t, 2)
	u := mustBegin(t, e, core.Update, 10, 0)
	if _, err := e.WriteDelta(u, 1, 5); err != nil {
		t.Fatal(err)
	}
	update := commitAsync(e, u)
	// The update publishes before its record is synced; wait until the
	// new version is visible, so the query below reads it.
	o, err := e.Store().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		o.Lock()
		_, dirty := o.Dirty()
		o.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("update never published")
		}
		time.Sleep(time.Millisecond)
	}

	q := mustBegin(t, e, core.Query, 20, 0)
	if v, err := e.Read(q, 1); err != nil || v != 105 {
		t.Fatalf("query read %d, %v; want the unsynced 105", v, err)
	}
	query := commitAsync(e, q)
	if returnsWithin(t, query, 50*time.Millisecond) {
		t.Fatal("the query was acknowledged before the version it read was durable")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, done := range []<-chan error{update, query} {
		if !returnsWithin(t, done, 5*time.Second) {
			t.Fatal("commit not acknowledged after Sync")
		}
	}
	if s := col.Snapshot(); s.ReadOnlyCommits != 1 || s.ReadOnlyWaits != 1 {
		t.Fatalf("read-only counters = %d/%d, want 1/1", s.ReadOnlyCommits, s.ReadOnlyWaits)
	}
}

func TestDurableQueryWithImportIsLogged(t *testing.T) {
	e, l, col := durableEngine(t, 2)
	// The query begins before a transfer commits, then reads the newer
	// committed value: ESR case 1, charged against its TIL.
	q := mustBegin(t, e, core.Query, 5, 1000)
	durableTransfer(t, e, l, 10)
	head := l.Head()
	if v, err := e.Read(q, 1); err != nil || v != 90 {
		t.Fatalf("late query read %d, %v; want 90", v, err)
	}
	query := commitAsync(e, q)
	if returnsWithin(t, query, 50*time.Millisecond) {
		t.Fatal("a query that imported inconsistency was acknowledged before its record was durable")
	}
	if got := l.Head(); got != head+1 {
		t.Fatalf("head %d -> %d, want one record for the importing query", head, got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if !returnsWithin(t, query, 5*time.Second) {
		t.Fatal("query commit not acknowledged after Sync")
	}
	if s := col.Snapshot(); s.ReadOnlyCommits != 0 {
		t.Fatalf("an importing query counted as read-only (%d)", s.ReadOnlyCommits)
	}
}
