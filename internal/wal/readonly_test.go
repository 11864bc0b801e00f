package wal

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// gateFS wraps MemFS so a test can hold the committer inside a segment
// fsync (a batch in flight) or make the fsync fail (a poisoned log).
type gateFS struct {
	*MemFS
	mu      sync.Mutex
	gate    chan struct{} // non-nil: Sync reports on entered, then waits here
	entered chan struct{}
	fail    error
}

func newGateFS() *gateFS { return &gateFS{MemFS: NewMemFS()} }

// hold makes the next fsyncs block until the returned release runs;
// entered receives once one of them has begun. A hold taken before an
// earlier one is released gates the fsyncs that start after that
// release, so a test can let one batch through and catch the next.
func (g *gateFS) hold() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate, g.entered = make(chan struct{}), make(chan struct{}, 1)
	gate := g.gate
	return g.entered, func() {
		g.mu.Lock()
		if g.gate == gate {
			g.gate = nil
		}
		g.mu.Unlock()
		close(gate)
	}
}

func (g *gateFS) failSyncs(err error) {
	g.mu.Lock()
	g.fail = err
	g.mu.Unlock()
}

func (g *gateFS) Create(name string) (File, error) {
	f, err := g.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	f.fs.mu.Lock()
	gate, entered, fail := f.fs.gate, f.fs.entered, f.fs.fail
	f.fs.mu.Unlock()
	if gate != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	if fail != nil {
		return fail
	}
	return f.File.Sync()
}

// holdInflight writes one record and returns once the committer is
// inside its fsync, held there until release runs. Everything appended
// before release joins the pending batch, flushed right after it.
func holdInflight(t *testing.T, fs *gateFS, store *storage.Store, l *Log, txn core.TxnID, obj core.ObjectID, v core.Value) (storage.Ack, func()) {
	t.Helper()
	entered, release := fs.hold()
	a := logWrite(t, store, l, txn, obj, v, tsgen.Timestamp(txn), 0, 0)
	<-entered
	return a, release
}

// killHeld kills l while its committer is held inside an fsync: the kill
// takes effect first, then the held fsync is released so the committer
// can observe it.
func killHeld(t *testing.T, l *Log, release func()) {
	t.Helper()
	killed := make(chan struct{})
	go func() {
		l.Kill()
		close(killed)
	}()
	for l.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	release()
	<-killed
}

// readOnly is a commit record with no writes and no inconsistency.
func readOnly(txn core.TxnID, h storage.ReadHorizon) *storage.TxnCommit {
	return &storage.TxnCommit{Txn: txn, Kind: core.Query, TS: tsgen.Timestamp(txn), ReadHorizon: h}
}

// known is a read horizon that covers versions up to lsn.
func known(lsn uint64) storage.ReadHorizon { return storage.ReadHorizon{LSN: lsn, Known: true} }

// resolved reports whether the ack resolves within d.
func resolved(a storage.Ack, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		_ = a.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// segmentBytes sums the sizes of every segment file.
func segmentBytes(t *testing.T, fs *MemFS) int {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".seg") {
			n += fs.Size(name)
		}
	}
	return n
}

// TestReadOnlyCommitAppendsNothing checks that a read-only record frames
// nothing and consumes no LSN, so the next record takes the next LSN.
func TestReadOnlyCommitAppendsNothing(t *testing.T) {
	fs := NewMemFS()
	col := &metrics.Collector{}
	store, l := openTest(t, fs, Options{Collector: col})
	defer l.Close()
	mustCreate(t, store, 1, 10)
	head, size := l.Head(), segmentBytes(t, fs)

	for _, h := range []storage.ReadHorizon{known(head), {}} {
		rec := readOnly(7, h)
		a, err := l.LogCommit(rec, nil)
		if err != nil {
			t.Fatalf("LogCommit(%+v): %v", h, err)
		}
		if a != nil {
			t.Fatalf("horizon %+v is durable, yet the commit got an ack to wait on", h)
		}
		if rec.LSN != 0 {
			t.Fatalf("read-only commit was assigned LSN %d", rec.LSN)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Head(); got != head {
		t.Fatalf("head moved %d -> %d with no record appended", head, got)
	}
	if got := segmentBytes(t, fs); got != size {
		t.Fatalf("segments grew %d -> %d bytes with no record appended", size, got)
	}
	rec := &storage.TxnCommit{Txn: 8, Kind: core.Update, TS: 8,
		Writes: []storage.CommittedWrite{{Object: 1, Value: 11, TS: 8}}}
	a, err := l.LogCommit(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != head+1 {
		t.Fatalf("next record got LSN %d, want %d", rec.LSN, head+1)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := col.Snapshot(); s.ReadOnlyCommits != 2 || s.ReadOnlyWaits != 0 {
		t.Fatalf("read-only counters = %d/%d, want 2/0", s.ReadOnlyCommits, s.ReadOnlyWaits)
	}
}

// TestReadOnlyDurableHorizonSkipsMutex checks the fast path: with the
// horizon durable, LogCommit returns a nil ack without the log mutex —
// a snapshot capture holds that mutex for as long as it takes.
func TestReadOnlyDurableHorizonSkipsMutex(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{})
	defer l.Close()
	mustCreate(t, store, 1, 10)
	a := logWrite(t, store, l, 1, 1, 11, 1, 0, 0)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	lsn := l.Head()

	l.mu.Lock()
	type result struct {
		ack storage.Ack
		err error
	}
	done := make(chan result, 1)
	go func() {
		ack, err := l.LogCommit(readOnly(2, known(lsn)), nil)
		done <- result{ack, err}
	}()
	select {
	case r := <-done:
		l.mu.Unlock()
		if r.err != nil || r.ack != nil {
			t.Fatalf("LogCommit = %v, %v; want nil, nil", r.ack, r.err)
		}
	case <-time.After(5 * time.Second):
		l.mu.Unlock()
		t.Fatal("read-only commit over a durable horizon blocked on the log mutex")
	}
}

// TestReadOnlyJoinsInflightBatch checks that a horizon covered by the
// batch being fsynced is released by that batch's flush, while a horizon
// past it waits for the next one.
func TestReadOnlyJoinsInflightBatch(t *testing.T) {
	fs := newGateFS()
	col := &metrics.Collector{}
	store, l := openTest(t, fs, Options{Collector: col})
	defer l.Close()
	mustCreate(t, store, 1, 10)
	mustCreate(t, store, 2, 20)

	w1, release := holdInflight(t, fs, store, l, 1, 1, 11)
	inflight, err := l.LogCommit(readOnly(10, known(l.Head())), nil)
	if err != nil || inflight == nil {
		t.Fatalf("read-only commit over the in-flight batch = %v, %v; want an ack", inflight, err)
	}
	w2 := logWrite(t, store, l, 2, 2, 21, 2, 0, 0)
	later, err := l.LogCommit(readOnly(11, known(l.Head())), nil)
	if err != nil || later == nil {
		t.Fatalf("read-only commit over the pending batch = %v, %v; want an ack", later, err)
	}
	// Let the in-flight batch through and catch the pending one in its
	// own fsync.
	entered, releaseNext := fs.hold()
	release()
	<-entered
	for _, a := range []storage.Ack{w1, inflight} {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if resolved(later, 50*time.Millisecond) {
		t.Fatal("an ack on the pending batch resolved before that batch was flushed")
	}
	releaseNext()
	for _, a := range []storage.Ack{w2, later} {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if s := col.Snapshot(); s.ReadOnlyCommits != 2 || s.ReadOnlyWaits != 2 {
		t.Fatalf("read-only counters = %d/%d, want 2/2", s.ReadOnlyCommits, s.ReadOnlyWaits)
	}
}

// TestReadOnlyUnknownHorizonIsBarrier checks the zero horizon: it waits
// for everything appended before it, and for nothing when that is
// already durable.
func TestReadOnlyUnknownHorizonIsBarrier(t *testing.T) {
	fs := newGateFS()
	store, l := openTest(t, fs, Options{})
	mustCreate(t, store, 1, 10)
	mustCreate(t, store, 2, 20)
	_, release := holdInflight(t, fs, store, l, 1, 1, 11)
	// Appended behind the in-flight batch: only the next flush covers it.
	logWrite(t, store, l, 2, 2, 21, 2, 0, 0)

	a, err := l.LogCommit(readOnly(3, storage.ReadHorizon{}), nil)
	if err != nil || a == nil {
		t.Fatalf("unknown horizon over an unsynced record = %v, %v; want an ack", a, err)
	}
	if resolved(a, 50*time.Millisecond) {
		t.Fatal("unknown horizon resolved before the record it may have read was flushed")
	}
	release()
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	// Acknowledged: both records must survive a crash that drops every
	// unsynced byte.
	l.Kill()
	fs.Crash(nil)
	_, info, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 2 {
		t.Fatalf("replayed %d commits after the barrier, want 2", info.Commits)
	}

	fs2 := NewMemFS()
	_, l2 := openTest(t, fs2, Options{})
	defer l2.Close()
	if a, err := l2.LogCommit(readOnly(3, storage.ReadHorizon{}), nil); a != nil || err != nil {
		t.Fatalf("unknown horizon with nothing unsynced = %v, %v; want nil, nil", a, err)
	}
}

// TestReadOnlyErrorsUnchanged checks that closed, killed and poisoned
// logs fail read-only commits the same way they fail records, durable
// horizon or not, and that an ack waiting on a batch gets its error.
func TestReadOnlyErrorsUnchanged(t *testing.T) {
	horizons := []storage.ReadHorizon{known(0), {}}
	t.Run("closed", func(t *testing.T) {
		_, l := openTest(t, NewMemFS(), Options{})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for _, h := range horizons {
			if _, err := l.LogCommit(readOnly(1, h), nil); err != ErrLogClosed {
				t.Fatalf("horizon %+v after Close: %v, want ErrLogClosed", h, err)
			}
		}
	})
	t.Run("killed", func(t *testing.T) {
		fs := newGateFS()
		store, l := openTest(t, fs, Options{})
		mustCreate(t, store, 1, 10)
		_, release := holdInflight(t, fs, store, l, 1, 1, 11)
		logWrite(t, store, l, 2, 1, 12, 2, 0, 0)
		a, err := l.LogCommit(readOnly(3, known(l.Head())), nil)
		if err != nil || a == nil {
			t.Fatalf("LogCommit = %v, %v; want an ack", a, err)
		}
		killHeld(t, l, release)
		if err := a.Wait(); err != ErrLogKilled {
			t.Fatalf("pending read-only ack after Kill = %v, want ErrLogKilled", err)
		}
		_, wantErr := l.LogCommit(&storage.TxnCommit{Txn: 4, Writes: []storage.CommittedWrite{{Object: 1}}}, nil)
		if wantErr == nil {
			t.Fatal("a record was accepted after Kill")
		}
		for _, h := range horizons {
			if _, err := l.LogCommit(readOnly(5, h), nil); err != wantErr {
				t.Fatalf("horizon %+v after Kill: %v, want %v as for a record", h, err, wantErr)
			}
		}
	})
	t.Run("poisoned", func(t *testing.T) {
		fs := newGateFS()
		store, l := openTest(t, fs, Options{})
		defer l.Close()
		mustCreate(t, store, 1, 10)
		boom := errors.New("disk on fire")
		fs.failSyncs(boom)
		w, release := holdInflight(t, fs, store, l, 1, 1, 11)
		a, err := l.LogCommit(readOnly(2, known(l.Head())), nil)
		if err != nil || a == nil {
			t.Fatalf("LogCommit = %v, %v; want an ack", a, err)
		}
		release()
		if err := l.Sync(); err != boom {
			t.Fatalf("Sync = %v, want the fsync failure", err)
		}
		for _, ack := range []storage.Ack{w, a} {
			if err := ack.Wait(); err != boom {
				t.Fatalf("ack after a failed fsync = %v, want %v", err, boom)
			}
		}
		for _, h := range horizons {
			if _, err := l.LogCommit(readOnly(3, h), nil); err != boom {
				t.Fatalf("horizon %+v on a poisoned log: %v, want %v", h, err, boom)
			}
		}
	})
}

// TestSnapshotEveryCountsRecords checks that only appended records count
// toward SnapshotEvery: Sync barriers and read-only commits add nothing
// to replay, so they must not trigger a snapshot.
func TestSnapshotEveryCountsRecords(t *testing.T) {
	const every = 4
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1, SnapshotEvery: every})
	defer l.Close()
	mustCreate(t, store, 1, 10) // one record
	snapshots := func() int {
		names, _ := fs.List()
		n := 0
		for _, name := range names {
			if strings.HasSuffix(name, ".snap") {
				n++
			}
		}
		return n
	}
	for i := 0; i < 4*every; i++ {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		a, err := l.LogCommit(readOnly(core.TxnID(i+1), storage.ReadHorizon{}), nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != nil {
			if err := a.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil { // one more committer pass to act on the count
		t.Fatal(err)
	}
	if n := snapshots(); n != 0 {
		t.Fatalf("%d Sync calls and read-only commits triggered %d snapshots", 4*every, n)
	}
	for i := 0; i < every-1; i++ { // with the create, every records in all
		a := logWrite(t, store, l, core.TxnID(100+i), 1, core.Value(i), tsgen.Timestamp(i+1), 0, 0)
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for snapshots() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d records did not trigger a snapshot", every)
		}
		time.Sleep(time.Millisecond)
	}
}
