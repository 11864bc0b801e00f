package wal

import (
	"math/rand"
	"testing"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// buildLinearLog writes a known sequence — creates then single-write
// commits — into one segment with per-append fsync, and returns the
// MemFS plus the expected store state after each record (index k =
// state once the first k records applied).
func buildLinearLog(t *testing.T, creates, commits int) (*MemFS, []*storage.StoreState) {
	t.Helper()
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1, SegmentBytes: 1 << 30})
	expect := []*storage.StoreState{store.CaptureState()}
	for i := 0; i < creates; i++ {
		mustCreate(t, store, core.ObjectID(i+1), core.Value(1000+i))
		expect = append(expect, store.CaptureState())
	}
	for i := 0; i < commits; i++ {
		obj := core.ObjectID(i%creates + 1)
		ts := tsgen.Timestamp(i + 1)
		a := logWrite(t, store, l, core.TxnID(i+1), obj, core.Value(2000+i), ts, core.Distance(i%3), core.Distance(i%2))
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		expect = append(expect, store.CaptureState())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return fs, expect
}

// segmentBoundaries walks the single segment's frames and returns the
// byte offset after the magic and after each complete record.
func segmentBoundaries(t *testing.T, fs *MemFS) (string, []int) {
	t.Helper()
	names, _ := fs.List()
	var seg string
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".seg" {
			if seg != "" {
				t.Fatalf("expected one segment, found %q and %q", seg, n)
			}
			seg = n
		}
	}
	if seg == "" {
		t.Fatal("no segment found")
	}
	data, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", seg, err)
	}
	bounds := []int{len(segMagic)}
	off := len(segMagic)
	for {
		_, next, ok, torn := nextFrame(data, off)
		if torn {
			t.Fatalf("unexpected torn frame at %d", off)
		}
		if !ok {
			break
		}
		off = next
		bounds = append(bounds, off)
	}
	return seg, bounds
}

// TestReplayAtEveryBoundary crashes the log at every record boundary
// and at a byte inside every record, and checks replay reproduces
// exactly the prefix state: IDs, values, history, accumulated
// inconsistency. Mid-record cuts must be reported as a torn tail and
// replay as the preceding boundary.
func TestReplayAtEveryBoundary(t *testing.T) {
	const creates, commits = 3, 12
	fs, expect := buildLinearLog(t, creates, commits)
	seg, bounds := segmentBoundaries(t, fs)
	if len(bounds) != creates+commits+1 {
		t.Fatalf("found %d boundaries, want %d", len(bounds), creates+commits+1)
	}
	full, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	restore := func(n int) *MemFS {
		cut := NewMemFS()
		f, _ := cut.Create(seg)
		f.Write(full[:n])
		f.Sync()
		return cut
	}

	for k, bound := range bounds {
		// Clean cut exactly at a boundary: k records survive, no torn tail.
		cut := restore(bound)
		replayed, info, err := Replay(cut, storage.Config{HistoryDepth: testHistoryDepth})
		if err != nil {
			t.Fatalf("boundary %d: Replay: %v", k, err)
		}
		if info.TornTail {
			t.Fatalf("boundary %d: clean cut reported torn", k)
		}
		if info.Records != k {
			t.Fatalf("boundary %d: replayed %d records", k, info.Records)
		}
		sameState(t, expect[k], replayed.CaptureState(), "boundary cut")

		// Torn cut one byte past the boundary (inside the next record's
		// header): still k records, reported torn.
		if bound+1 <= len(full) && k < len(bounds)-1 {
			cut = restore(bound + 1)
			replayed, info, err = Replay(cut, storage.Config{HistoryDepth: testHistoryDepth})
			if err != nil {
				t.Fatalf("torn %d: Replay: %v", k, err)
			}
			if !info.TornTail {
				t.Fatalf("torn %d: cut at %d not reported torn", k, bound+1)
			}
			if info.Records != k {
				t.Fatalf("torn %d: replayed %d records, want %d", k, info.Records, k)
			}
			sameState(t, expect[k], replayed.CaptureState(), "torn cut")
		}
	}

	// Mid-record cuts through every byte of one representative record:
	// corrupting any byte of the payload or frame must not change the
	// decoded prefix.
	lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
	for n := lo + 1; n < hi; n++ {
		cut := restore(n)
		replayed, info, err := Replay(cut, storage.Config{HistoryDepth: testHistoryDepth})
		if err != nil {
			t.Fatalf("cut %d: Replay: %v", n, err)
		}
		if !info.TornTail || info.Records != len(bounds)-2 {
			t.Fatalf("cut %d: torn=%v records=%d", n, info.TornTail, info.Records)
		}
		sameState(t, expect[len(bounds)-2], replayed.CaptureState(), "mid-record cut")
	}
}

// TestReplayTwiceIdempotent replays the same directory twice and
// requires byte-identical states — replay has no hidden mutation of the
// log itself.
func TestReplayTwiceIdempotent(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1})
	for i := 0; i < 4; i++ {
		mustCreate(t, store, core.ObjectID(i+1), core.Value(10*int64(i)))
	}
	for i := 0; i < 10; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), core.ObjectID(i%4+1), core.Value(i), tsgen.Timestamp(i+1), 1, 1)
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 10; i < 15; i++ {
		a := logWrite(t, store, l, core.TxnID(i+1), core.ObjectID(i%4+1), core.Value(i), tsgen.Timestamp(i+1), 0, 2)
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	first, infoA, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("first Replay: %v", err)
	}
	second, infoB, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("second Replay: %v", err)
	}
	if infoA.Records != infoB.Records || infoA.SnapshotLSN != infoB.SnapshotLSN {
		t.Fatalf("replay infos differ: %+v vs %+v", infoA, infoB)
	}
	sameState(t, first.CaptureState(), second.CaptureState(), "replay twice")
	sameState(t, store.CaptureState(), first.CaptureState(), "replay vs live")
}

// TestRecoverContinuesLog reopens via Recover, appends more, and checks
// LSNs continue without collision (the tail replays on a third open).
func TestRecoverContinuesLog(t *testing.T) {
	fs := NewMemFS()
	store, l := openTest(t, fs, Options{SyncInterval: -1})
	mustCreate(t, store, 1, 5)
	a := logWrite(t, store, l, 1, 1, 50, 1, 0, 0)
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	store2, l2, info, err := Recover(fs, storage.Config{HistoryDepth: testHistoryDepth}, Options{SyncInterval: -1})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.Records != 2 {
		t.Fatalf("recovered %d records, want 2", info.Records)
	}
	sameState(t, store.CaptureState(), store2.CaptureState(), "recovered store")
	a = logWrite(t, store2, l2, 2, 1, 60, 2, 0, 0)
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	store3, info3, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
	if err != nil {
		t.Fatalf("third Replay: %v", err)
	}
	if info3.Records != 3 {
		t.Fatalf("third replay saw %d records, want 3", info3.Records)
	}
	sameState(t, store2.CaptureState(), store3.CaptureState(), "after reopen append")
	if info3.NextLSN <= info.NextLSN {
		t.Fatalf("NextLSN did not advance: %d -> %d", info.NextLSN, info3.NextLSN)
	}
}

// TestRandomCrashRecover is the randomized end-to-end property: run
// commits, crash with a random torn tail, recover, and require the
// recovered state to be a clean prefix of the committed sequence —
// every acked commit present, history depth intact.
func TestRandomCrashRecover(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := NewMemFS()
		store, l := openTest(t, fs, Options{})
		const objects = 4
		for id := core.ObjectID(1); id <= objects; id++ {
			mustCreate(t, store, id, 100)
		}
		// Acked prefix: these are durable and MUST survive any crash.
		acked := 0
		ackedState := store.CaptureState()
		total := 5 + rng.Intn(20)
		for i := 0; i < total; i++ {
			a := logWrite(t, store, l, core.TxnID(i+1), core.ObjectID(i%objects+1),
				core.Value(rng.Int63n(1000)), tsgen.Timestamp(i+1), core.Distance(rng.Int63n(5)), 0)
			if rng.Intn(3) == 0 {
				if err := l.Sync(); err != nil {
					t.Fatalf("seed %d: Sync: %v", seed, err)
				}
				if err := a.Wait(); err != nil {
					t.Fatalf("seed %d: ack: %v", seed, err)
				}
				acked = i + 1
				ackedState = store.CaptureState()
			}
		}
		l.Kill()
		fs.Crash(rng)

		replayed, info, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
		if err != nil {
			t.Fatalf("seed %d: Replay: %v", seed, err)
		}
		if info.Commits < acked {
			t.Fatalf("seed %d: lost acked commits: recovered %d < acked %d", seed, info.Commits, acked)
		}
		// The recovered state must match the in-memory state at whatever
		// prefix survived; rebuild it by replaying the log into a second
		// store and comparing (idempotency), and check the acked prefix by
		// object count and history depth invariants.
		again, _, err := Replay(fs, storage.Config{HistoryDepth: testHistoryDepth})
		if err != nil {
			t.Fatalf("seed %d: second Replay: %v", seed, err)
		}
		sameState(t, replayed.CaptureState(), again.CaptureState(), "crash replay idempotent")
		if got := replayed.Len(); got != objects {
			t.Fatalf("seed %d: recovered %d objects, want %d", seed, got, objects)
		}
		if info.Commits == acked {
			sameState(t, ackedState, replayed.CaptureState(), "acked prefix state")
		}
	}
}
