package wal

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// followerStore builds the empty store a follower applies the feed into.
func followerStore() *storage.Store {
	return storage.NewStore(storage.Config{HistoryDepth: testHistoryDepth})
}

// drainTo pulls the tail until every record up to target is applied,
// asserting strict LSN order with no gaps past from and no duplicates.
func drainTo(t *testing.T, tail *Tail, follower *storage.Store, from, target uint64) uint64 {
	t.Helper()
	last := from
	for last < target {
		frames, _, err := tail.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := DecodeFrames(frames, func(rec Record) error {
			if rec.LSN != last+1 {
				t.Fatalf("feed order: got lsn %d after %d", rec.LSN, last)
			}
			last = rec.LSN
			return ApplyRecord(follower, rec)
		}); err != nil {
			t.Fatalf("DecodeFrames: %v", err)
		}
	}
	return last
}

// TestTailFollowsLive subscribes from zero on a fresh log and checks the
// follower reconstructs the primary exactly from the streamed frames.
func TestTailFollowsLive(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{})
	defer l.Close()

	tail, image, err := l.SubscribeFrom(0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	if image != nil {
		t.Fatalf("fresh log returned a bootstrap image")
	}
	defer tail.Close()

	mustCreate(t, store, 1, 100)
	mustCreate(t, store, 2, 200)
	var last storage.Ack
	for i := 0; i < 40; i++ {
		last = logWrite(t, store, l, core.TxnID(i+1), core.ObjectID(1+i%2), core.Value(100+i), tsgen.Timestamp(i+1), core.Distance(i%3), 0)
	}
	if err := last.Wait(); err != nil {
		t.Fatalf("ack: %v", err)
	}

	follower := followerStore()
	drainTo(t, tail, follower, 0, l.Head())
	sameState(t, store.CaptureState(), follower.CaptureState(), "follower after live drain")
}

// TestSnapshotPinsSegmentsForTail is the truncation-race regression: a
// snapshot taken while a subscriber is still catching up must not remove
// the segments the reader holds — they are doomed instead and vanish
// only when the reader finishes them.
func TestSnapshotPinsSegmentsForTail(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{})
	defer l.Close()

	mustCreate(t, store, 1, 100)
	var last storage.Ack
	for i := 0; i < 25; i++ {
		last = logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(100+i), tsgen.Timestamp(i+1), 0, 0)
	}
	if err := last.Wait(); err != nil {
		t.Fatalf("ack: %v", err)
	}

	// Subscribe at the resume position (not bootstrap): pins the current
	// segments but reads nothing yet — a reader "mid-segment".
	tail, image, err := l.SubscribeFrom(0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	if image != nil {
		t.Fatalf("unexpected bootstrap image before any snapshot")
	}
	pinned := append([]string(nil), tail.pinned...)
	if len(pinned) == 0 {
		t.Fatalf("subscriber pinned no segments")
	}

	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// The covered segments must survive the truncation while pinned.
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	have := strings.Join(names, " ")
	for _, name := range pinned {
		if !strings.Contains(have, name) {
			t.Fatalf("snapshot removed pinned segment %s (dir: %s)", name, have)
		}
	}

	// The reader drains without ENOENT or short reads and reconstructs
	// the primary.
	follower := followerStore()
	drainTo(t, tail, follower, 0, l.Head())
	sameState(t, store.CaptureState(), follower.CaptureState(), "follower across snapshot truncation")

	// Finished segments were unpinned and the doomed files removed.
	names, err = fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	have = strings.Join(names, " ")
	for _, name := range pinned {
		if strings.Contains(have, name) {
			t.Fatalf("doomed segment %s still present after drain (dir: %s)", name, have)
		}
	}
}

// TestTailBootstrapAfterTruncation subscribes below the snapshot LSN and
// checks the bootstrap image plus the live stream reconstruct the store.
func TestTailBootstrapAfterTruncation(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{})
	defer l.Close()

	mustCreate(t, store, 1, 100)
	for i := 0; i < 10; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(100+i), tsgen.Timestamp(i+1), 1, 0)
		if err := a.Wait(); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	tail, image, err := l.SubscribeFrom(0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	defer tail.Close()
	if image == nil {
		t.Fatalf("expected a bootstrap image below the snapshot LSN")
	}
	st, lsn, err := DecodeSnapshotImage(image)
	if err != nil {
		t.Fatalf("DecodeSnapshotImage: %v", err)
	}
	if lsn != l.Head() {
		t.Fatalf("bootstrap image covers lsn %d, head is %d", lsn, l.Head())
	}
	follower := followerStore()
	for _, os := range st.Objects {
		if err := follower.RestoreObject(os); err != nil {
			t.Fatalf("RestoreObject: %v", err)
		}
	}
	follower.RestoreCommittedInconsistency(st.Imported, st.Exported)
	sameState(t, store.CaptureState(), follower.CaptureState(), "follower after bootstrap")

	// Post-bootstrap traffic streams live.
	var last storage.Ack
	for i := 10; i < 20; i++ {
		last = logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(100+i), tsgen.Timestamp(i+1), 0, 1)
	}
	if err := last.Wait(); err != nil {
		t.Fatalf("ack: %v", err)
	}
	drainTo(t, tail, follower, lsn, l.Head())
	sameState(t, store.CaptureState(), follower.CaptureState(), "follower after live resume")
}

// TestTailResumeFromLSN checks a reconnect-style subscription: only
// records past afterLSN are delivered.
func TestTailResumeFromLSN(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{})
	defer l.Close()

	mustCreate(t, store, 1, 100)
	for i := 0; i < 12; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), 1, core.Value(100+i), tsgen.Timestamp(i+1), 0, 0)
		if err := a.Wait(); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	resume := uint64(5)
	tail, image, err := l.SubscribeFrom(resume)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	defer tail.Close()
	if image != nil {
		t.Fatalf("resume within retained log returned a bootstrap image")
	}
	first := uint64(0)
	frames, _, err := tail.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if err := DecodeFrames(frames, func(rec Record) error {
		if first == 0 {
			first = rec.LSN
		}
		return nil
	}); err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	if first != resume+1 {
		t.Fatalf("resume delivered first lsn %d, want %d", first, resume+1)
	}

	if _, _, err := l.SubscribeFrom(l.Head() + 10); err == nil {
		t.Fatalf("subscribe beyond head succeeded")
	}
}

// TestTailCloseUnblocksNext checks consumer Close and log Close both
// resolve a blocked Next with a typed error.
func TestTailCloseUnblocksNext(t *testing.T) {
	fs := NewMemFS()
	_, l := openTest(t, fs, Options{})

	tail, _, err := l.SubscribeFrom(0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := tail.Next()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tail.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrTailClosed) {
			t.Fatalf("Next after Close: %v, want ErrTailClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Next did not unblock on Close")
	}

	tail2, _, err := l.SubscribeFrom(0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	go func() {
		_, _, err := tail2.Next()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrLogClosed) {
			t.Fatalf("Next after log Close: %v, want ErrLogClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Next did not unblock on log Close")
	}
}

// TestTailConcurrentSnapshots races a writer, periodic snapshots and a
// draining subscriber; the follower must still reconstruct the primary
// exactly (run with -race).
func TestTailConcurrentSnapshots(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SegmentBytes: 2 << 10})
	defer l.Close()

	mustCreate(t, store, 1, 0)
	mustCreate(t, store, 2, 0)

	tail, image, err := l.SubscribeFrom(0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	if image != nil {
		t.Fatalf("unexpected bootstrap image")
	}

	const writes = 400
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			a := logWrite(t, store, l, core.TxnID(i+1), core.ObjectID(1+i%2), core.Value(i), tsgen.Timestamp(i+1), 0, 0)
			if i%50 == 49 {
				if err := a.Wait(); err != nil {
					t.Errorf("ack: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := l.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	follower := followerStore()
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	drainTo(t, tail, follower, 0, l.Head())
	tail.Close()
	sameState(t, store.CaptureState(), follower.CaptureState(), "follower under concurrent snapshots")
}
