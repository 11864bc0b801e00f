package wal

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

const testHistoryDepth = 4

// openTest builds a store wired to a fresh log over fs.
func openTest(t *testing.T, fs FS, opts Options) (*storage.Store, *Log) {
	t.Helper()
	store := storage.NewStore(storage.Config{HistoryDepth: testHistoryDepth})
	l, err := Open(fs, store, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	store.SetDurability(l)
	return store, l
}

// logWrite appends one single-write commit record without waiting for
// durability; the publish callback applies it to the store.
func logWrite(t *testing.T, store *storage.Store, l *Log, txn core.TxnID, obj core.ObjectID, v core.Value, ts tsgen.Timestamp, imported, exported core.Distance) storage.Ack {
	t.Helper()
	rec := &storage.TxnCommit{
		Txn: txn, Kind: core.Update, TS: ts,
		Imported: imported, Exported: exported,
		Writes: []storage.CommittedWrite{{Object: obj, Value: v, TS: ts}},
	}
	a, err := l.LogCommit(rec, func() {
		for _, w := range rec.Writes {
			if err := store.ApplyCommitted(w.Object, w.Value, w.TS); err != nil {
				t.Errorf("ApplyCommitted(%d): %v", w.Object, err)
			}
		}
		store.AddCommittedInconsistency(rec.Imported, rec.Exported)
	})
	if err != nil {
		t.Fatalf("LogCommit: %v", err)
	}
	return a
}

func mustCreate(t *testing.T, store *storage.Store, id core.ObjectID, v core.Value) {
	t.Helper()
	if _, err := store.CreateWithLimits(id, v, core.NoLimit, core.NoLimit); err != nil {
		t.Fatalf("CreateWithLimits(%d): %v", id, err)
	}
}

func sameState(t *testing.T, want, got *storage.StoreState, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: states differ\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

// TestGroupCommitSingleFsync checks the core group-commit property: N
// commits appended while one fsync is held are released by exactly one
// following fsync, observed via the batch-size histogram.
func TestGroupCommitSingleFsync(t *testing.T) {
	fs := newGateFS()
	col := &metrics.Collector{}
	store, l := openTest(t, fs, Options{Collector: col})
	mustCreate(t, store, 1, 100)
	before := col.WALBatchSnapshot()

	first, release := holdInflight(t, fs, store, l, 1, 1, 100)
	const n = 32
	acks := []storage.Ack{first}
	for i := 2; i <= n+1; i++ {
		acks = append(acks, logWrite(t, store, l, core.TxnID(i), 1, core.Value(100+i), tsgen.Timestamp(i), 0, 1))
	}
	release()
	for i, a := range acks {
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	batches := col.WALBatchSnapshot().Sub(before)
	if batches.Count != 2 || batches.Sum != n+1 {
		t.Fatalf("%d flushes covered %d records, want 2 flushes (the held one, then all %d behind it) covering %d",
			batches.Count, batches.Sum, n, n+1)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLoneCommitNeedsNoTimer checks that group commit is self-clocked: a
// lone commit on an idle log is flushed at once, with no Sync barrier,
// even when the interval option names an hour.
func TestLoneCommitNeedsNoTimer(t *testing.T) {
	store, l := openTest(t, NewMemFS(), Options{SyncInterval: time.Hour})
	defer l.Close()
	mustCreate(t, store, 1, 10)
	a := logWrite(t, store, l, 1, 1, 11, 1, 0, 0)
	if !resolved(a, 5*time.Second) {
		t.Fatal("a lone commit on an idle log waited for a timer")
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPerAppendFsync checks the negative-interval baseline: every commit
// is its own flush.
func TestPerAppendFsync(t *testing.T) {
	fs := NewMemFS()
	col := &metrics.Collector{}
	store, l := openTest(t, fs, Options{SyncInterval: -1, Collector: col})
	mustCreate(t, store, 1, 100)
	before := col.WALBatchSnapshot()

	const n = 8
	for i := 0; i < n; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(200+i), tsgen.Timestamp(i+1), 0, 0)
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	batches := col.WALBatchSnapshot().Sub(before)
	if batches.Count != n {
		t.Fatalf("expected %d single-record flushes, got %d", n, batches.Count)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestConcurrentCommitsReplay hammers the log from many goroutines and
// checks replay reproduces the final store exactly.
func TestConcurrentCommitsReplay(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{})
	const objects = 8
	for id := core.ObjectID(1); id <= objects; id++ {
		mustCreate(t, store, id, core.Value(1000*int64(id)))
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	nextTS := tsgen.Timestamp(0)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Object timestamps must be monotone per object for the
				// history to be well-formed; serialize issuance.
				mu.Lock()
				nextTS++
				ts := nextTS
				mu.Unlock()
				obj := core.ObjectID(uint64(ts)%objects + 1)
				rec := &storage.TxnCommit{
					Txn: core.TxnID(ts), Kind: core.Update, TS: ts,
					Exported: 2,
					Writes:   []storage.CommittedWrite{{Object: obj, Value: core.Value(ts), TS: ts}},
				}
				a, err := l.LogCommit(rec, func() {
					mu.Lock()
					defer mu.Unlock()
					_ = store.ApplyCommitted(obj, core.Value(ts), ts)
					store.AddCommittedInconsistency(0, 2)
				})
				if err != nil {
					t.Errorf("LogCommit: %v", err)
					return
				}
				if err := a.Wait(); err != nil {
					t.Errorf("ack: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	replayed, info, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if info.Commits != 200 || info.Creates != objects {
		t.Fatalf("replayed %d commits / %d creates, want 200 / %d", info.Commits, info.Creates, objects)
	}
	sameState(t, store.CaptureState(), replayed.CaptureState(), "after concurrent commits")
}

// TestSegmentRoll forces tiny segments and checks the log spreads over
// several files and still replays.
func TestSegmentRoll(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1, SegmentBytes: 128})
	mustCreate(t, store, 1, 10)
	for i := 0; i < 20; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(i), tsgen.Timestamp(i+1), 0, 0)
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := fs.List()
	segs := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected multiple segments, got %d (%v)", segs, names)
	}
	replayed, _, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	sameState(t, store.CaptureState(), replayed.CaptureState(), "after segment rolls")
}

// TestSnapshotTruncates checks Snapshot writes a durable snapshot,
// removes covered segments, and the directory still replays exactly —
// including records appended after the snapshot.
func TestSnapshotTruncates(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1})
	mustCreate(t, store, 1, 10)
	mustCreate(t, store, 2, 20)
	for i := 0; i < 5; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(100+i), tsgen.Timestamp(i+1), 3, 0)
		if err := a.Wait(); err != nil {
			t.Fatalf("pre-snapshot ack %d: %v", i, err)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	names, _ := fs.List()
	var segs, snaps int
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			segs++
		}
		if strings.HasSuffix(n, ".snap") {
			snaps++
		}
	}
	if segs != 1 || snaps != 1 {
		t.Fatalf("after snapshot want 1 segment + 1 snapshot, got %d + %d (%v)", segs, snaps, names)
	}
	// Post-snapshot tail.
	for i := 5; i < 9; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), 2, core.Value(200+i), tsgen.Timestamp(i+1), 0, 4)
		if err := a.Wait(); err != nil {
			t.Fatalf("post-snapshot ack %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	replayed, info, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if info.SnapshotLSN == 0 {
		t.Fatalf("replay did not use the snapshot: %+v", info)
	}
	if info.Commits != 4 {
		t.Fatalf("replayed %d tail commits, want 4", info.Commits)
	}
	sameState(t, store.CaptureState(), replayed.CaptureState(), "snapshot + tail")
}

// TestAutoSnapshot checks SnapshotEvery triggers truncation on its own.
func TestAutoSnapshot(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1, SnapshotEvery: 4})
	mustCreate(t, store, 1, 10)
	for i := 0; i < 16; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(i), tsgen.Timestamp(i+1), 0, 0)
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		names, _ := fs.List()
		snaps := 0
		for _, n := range names {
			if strings.HasSuffix(n, ".snap") {
				snaps++
			}
		}
		if snaps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic snapshot appeared: %v", names)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	replayed, _, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	sameState(t, store.CaptureState(), replayed.CaptureState(), "auto snapshot")
}

// TestLimitsRecordReplays checks a SetAllLimits sweep routed through the
// store's durability hook is replayed.
func TestLimitsRecordReplays(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1})
	mustCreate(t, store, 1, 10)
	mustCreate(t, store, 2, 20)
	store.SetAllLimits(500, 700)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	replayed, _, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	sameState(t, store.CaptureState(), replayed.CaptureState(), "limits sweep")
	o, err := replayed.Get(1)
	if err != nil {
		t.Fatalf("Get(1): %v", err)
	}
	o.Lock()
	oil, oel := o.OIL(), o.OEL()
	o.Unlock()
	if oil != 500 || oel != 700 {
		t.Fatalf("replayed limits = %d/%d, want 500/700", oil, oel)
	}
}

// TestClosedLogRejectsAppends checks the post-Close error surface.
func TestClosedLogRejectsAppends(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1})
	mustCreate(t, store, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err := l.LogCommit(&storage.TxnCommit{Txn: 1, Kind: core.Update}, nil)
	if err != ErrLogClosed {
		t.Fatalf("LogCommit after Close = %v, want ErrLogClosed", err)
	}
	if _, err := store.CreateWithLimits(9, 1, core.NoLimit, core.NoLimit); err == nil {
		t.Fatal("CreateWithLimits after Close should fail")
	}
	if err := l.Sync(); err != ErrLogClosed {
		t.Fatalf("Sync after Close = %v, want ErrLogClosed", err)
	}
}

// TestKillFailsPendingAcks checks Kill resolves pending acks with
// ErrLogKilled without flushing them. The batch already in its fsync
// when the kill lands completes: only what queued behind it is lost.
func TestKillFailsPendingAcks(t *testing.T) {
	fs := newGateFS()
	store, l := openTest(t, fs, Options{})
	mustCreate(t, store, 1, 10)
	held, release := holdInflight(t, fs, store, l, 1, 1, 10)
	a := logWrite(t, store, l, 2, 1, 99, 2, 0, 0)
	killHeld(t, l, release)
	if err := held.Wait(); err != nil {
		t.Fatalf("in-flight ack after Kill = %v, want nil", err)
	}
	if err := a.Wait(); err != ErrLogKilled {
		t.Fatalf("pending ack after Kill = %v, want ErrLogKilled", err)
	}
	// The unflushed write must not be in the durable image.
	fs.Crash(nil)
	replayed, info, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if info.Commits != 1 {
		t.Fatalf("replayed %d commits, want only the in-flight one", info.Commits)
	}
	o, err := replayed.Get(1)
	if err != nil {
		t.Fatalf("Get(1): %v", err)
	}
	o.Lock()
	v := o.CommittedValue()
	o.Unlock()
	if v != 10 {
		t.Fatalf("replayed value %d, want pre-kill 10", v)
	}
}
