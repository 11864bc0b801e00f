package tso

import (
	"sync"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/wal"
)

// gateFS wraps a log filesystem so a test can hold the committer inside
// a segment fsync: while held, the batch in flight stays unsynced and
// every ack waiting on it stays unresolved.
type gateFS struct {
	wal.FS
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
}

func (g *gateFS) Create(name string) (wal.File, error) {
	f, err := g.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

// hold makes the next fsyncs block until the returned release runs;
// entered receives once one of them has begun.
func (g *gateFS) hold() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate, g.entered = make(chan struct{}), make(chan struct{}, 1)
	gate := g.gate
	return g.entered, func() {
		g.mu.Lock()
		g.gate = nil
		g.mu.Unlock()
		close(gate)
	}
}

type gateFile struct {
	wal.File
	fs *gateFS
}

func (f gateFile) Sync() error {
	f.fs.mu.Lock()
	gate, entered := f.fs.gate, f.fs.entered
	f.fs.mu.Unlock()
	if gate != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	return f.File.Sync()
}

// durableEngine builds an engine over a write-ahead log on a gated
// MemFS, so a test can hold a batch in its fsync.
func durableEngine(t *testing.T, n int) (*Engine, *wal.Log, *gateFS, *metrics.Collector) {
	t.Helper()
	col := &metrics.Collector{}
	fs := &gateFS{FS: wal.NewMemFS()}
	store, l, _, err := wal.Recover(fs, storage.Config{}, wal.Options{Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i := 1; i <= n; i++ {
		if _, err := store.CreateWithLimits(core.ObjectID(i), core.Value(100*i), core.NoLimit, core.NoLimit); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(store, Options{Collector: col, Durability: l}), l, fs, col
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
// ts; the commit returns once its record is durable.
func durableTransfer(t *testing.T, e *Engine, ts int64) {
	t.Helper()
	u := mustBegin(t, e, core.Update, ts, 0)
	for obj, delta := range map[core.ObjectID]core.Value{1: -10, 2: 10} {
		if _, err := e.WriteDelta(u, obj, delta); err != nil {
			t.Fatal(err)
		}
	}
	if !returnsWithin(t, commitAsync(e, u), 5*time.Second) {
		t.Fatal("transfer commit never acknowledged")
	}
}

// fsyncs counts the log's fsyncs so far.
func fsyncs(col *metrics.Collector) int64 { return col.LatencySnapshot()[metrics.LatFsync].Count }

func TestDurableQueryOverDurableVersionsNeedsNoFsync(t *testing.T) {
	e, l, _, col := durableEngine(t, 3)
	durableTransfer(t, e, 10)
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
	e, _, fs, col := durableEngine(t, 2)
	u := mustBegin(t, e, core.Update, 10, 0)
	if _, err := e.WriteDelta(u, 1, 5); err != nil {
		t.Fatal(err)
	}
	entered, release := fs.hold()
	update := commitAsync(e, u)
	// The update publishes before its record is synced: once the record
	// is in its held fsync, the query below reads the new version.
	<-entered

	q := mustBegin(t, e, core.Query, 20, 0)
	if v, err := e.Read(q, 1); err != nil || v != 105 {
		t.Fatalf("query read %d, %v; want the unsynced 105", v, err)
	}
	query := commitAsync(e, q)
	if returnsWithin(t, query, 50*time.Millisecond) {
		t.Fatal("the query was acknowledged before the version it read was durable")
	}
	release()
	for _, done := range []<-chan error{update, query} {
		if !returnsWithin(t, done, 5*time.Second) {
			t.Fatal("commit not acknowledged after the fsync completed")
		}
	}
	if s := col.Snapshot(); s.ReadOnlyCommits != 1 || s.ReadOnlyWaits != 1 {
		t.Fatalf("read-only counters = %d/%d, want 1/1", s.ReadOnlyCommits, s.ReadOnlyWaits)
	}
}

func TestDurableQueryWithImportIsLogged(t *testing.T) {
	e, l, fs, col := durableEngine(t, 2)
	// The query begins before a transfer commits, then reads the newer
	// committed value: ESR case 1, charged against its TIL.
	q := mustBegin(t, e, core.Query, 5, 1000)
	durableTransfer(t, e, 10)
	head := l.Head()
	if v, err := e.Read(q, 1); err != nil || v != 90 {
		t.Fatalf("late query read %d, %v; want 90", v, err)
	}
	entered, release := fs.hold()
	query := commitAsync(e, q)
	<-entered // the query's record is in its fsync
	if returnsWithin(t, query, 50*time.Millisecond) {
		t.Fatal("a query that imported inconsistency was acknowledged before its record was durable")
	}
	if got := l.Head(); got != head+1 {
		t.Fatalf("head %d -> %d, want one record for the importing query", head, got)
	}
	release()
	if !returnsWithin(t, query, 5*time.Second) {
		t.Fatal("query commit not acknowledged after the fsync completed")
	}
	if s := col.Snapshot(); s.ReadOnlyCommits != 0 {
		t.Fatalf("an importing query counted as read-only (%d)", s.ReadOnlyCommits)
	}
}
