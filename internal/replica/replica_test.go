package replica

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/esrcheck"
	"github.com/epsilondb/epsilondb/internal/history"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
)

const testHistoryDepth = 8

// primary bundles a durable primary engine with its WAL, plus a manual
// timestamp counter so tests control the timeline exactly.
type primary struct {
	store *storage.Store
	log   *wal.Log
	eng   *tso.Engine
	rec   *history.Recorder
	ticks int64
}

func newPrimary(t *testing.T) *primary {
	t.Helper()
	store := storage.NewStore(storage.Config{HistoryDepth: testHistoryDepth})
	l, err := wal.Open(wal.NewMemFS(), store, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	store.SetDurability(l)
	rec := history.NewRecorder()
	eng := tso.NewEngine(store, tso.Options{Durability: l, Tracer: rec})
	p := &primary{store: store, log: l, eng: eng, rec: rec}
	t.Cleanup(func() { l.Close() })
	return p
}

func (p *primary) ts() tsgen.Timestamp {
	p.ticks++
	return tsgen.Make(p.ticks, 0)
}

func (p *primary) create(t *testing.T, id core.ObjectID, v core.Value) {
	t.Helper()
	if _, err := p.store.CreateWithLimits(id, v, core.NoLimit, core.NoLimit); err != nil {
		t.Fatalf("create %d: %v", id, err)
	}
}

// update commits one single-write update ET on the primary.
func (p *primary) update(t *testing.T, obj core.ObjectID, v core.Value) tsgen.Timestamp {
	t.Helper()
	ts := p.ts()
	txn, err := p.eng.Begin(core.Update, ts, core.UnboundedSpec())
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := p.eng.Write(txn, obj, v); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := p.eng.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return ts
}

// follow subscribes a tail at the follower's frontier and returns a
// drain function that pumps every record up to the primary head into the
// follower (Ingest buffers them while the follower is held).
func (p *primary) follow(t *testing.T, f *Follower) func() {
	t.Helper()
	tail, image, err := p.log.SubscribeFrom(f.AppliedLSN())
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	t.Cleanup(tail.Close)
	if image != nil {
		st, lsn, derr := wal.DecodeSnapshotImage(image)
		if derr != nil {
			t.Fatalf("DecodeSnapshotImage: %v", derr)
		}
		if berr := f.Bootstrap(st, lsn); berr != nil {
			t.Fatalf("Bootstrap: %v", berr)
		}
	}
	return func() {
		for f.frontier() < p.log.Head() {
			frames, head, nerr := tail.Next()
			if nerr != nil {
				t.Fatalf("tail.Next: %v", nerr)
			}
			if ierr := f.Ingest(frames, head); ierr != nil {
				t.Fatalf("Ingest: %v", ierr)
			}
		}
	}
}

// frontier exposes the received LSN frontier for test pumps.
func (f *Follower) frontier() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frontierLocked()
}

func TestEngineServesLaggedReadWithinBounds(t *testing.T) {
	p := newPrimary(t)
	p.create(t, 1, 100)
	p.create(t, 2, 200)

	f := NewFollower(storage.Config{HistoryDepth: testHistoryDepth})
	drain := p.follow(t, f)
	rec := history.NewRecorder()
	eng := NewEngine(f, Options{Collector: &metrics.Collector{}, Tracer: rec})

	p.update(t, 1, 130)
	drain()
	if got := f.Lag(); got != 0 {
		t.Fatalf("lag after drain = %d", got)
	}

	// Freeze the follower, then commit a newer write it receives but
	// cannot apply: the replica now serves 130 while it knows the
	// primary committed 160.
	f.Hold()
	wts := p.update(t, 1, 160)
	drain()

	qts := p.ts()
	txn, err := eng.Begin(core.Query, qts, core.BoundSpec{Transaction: 100})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	v, err := eng.Read(txn, 1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != 130 {
		t.Fatalf("read %d, want the replica-committed 130", v)
	}
	if err := eng.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := eng.ImportedTotal(); got != 30 {
		t.Errorf("imported total = %d, want the lag distance 30", got)
	}
	if got := eng.ReadsServed(); got != 1 {
		t.Errorf("reads served = %d", got)
	}

	var read *tso.Event
	for _, ev := range rec.Events() {
		if ev.Kind == tso.EvRead {
			e := ev
			read = &e
		}
	}
	if read == nil || !read.Replica || read.Inconsistency != 30 {
		t.Fatalf("replica read event = %+v, want Replica=true Inconsistency=30", read)
	}
	if read.Txn < core.TxnID(1<<32) {
		t.Errorf("replica txn id %d not namespaced above 1<<32", read.Txn)
	}

	// Releasing the buffered write catches the follower up; a fresh
	// query now reads 160 with no charge.
	if err := f.Release(-1); err != nil {
		t.Fatalf("Release: %v", err)
	}
	txn2, err := eng.Begin(core.Query, p.ts(), core.BoundSpec{Transaction: 100})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	v2, err := eng.Read(txn2, 1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v2 != 160 {
		t.Fatalf("post-release read %d, want 160 (committed at %v)", v2, wts)
	}
	if err := eng.Commit(txn2); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := eng.ImportedTotal(); got != 30 {
		t.Errorf("caught-up read charged: imported total = %d, want 30", got)
	}
	if eng.Live() != 0 {
		t.Errorf("live attempts leaked: %d", eng.Live())
	}
}

func TestEngineRedirectsUpdatesZeroEpsilonAndWrites(t *testing.T) {
	f := NewFollower(storage.Config{})
	eng := NewEngine(f, Options{})

	wantRedirect := func(err error, what string) {
		t.Helper()
		var re *RedirectError
		if !errors.As(err, &re) || !re.ReplicaRedirect() {
			t.Fatalf("%s: err = %v, want RedirectError", what, err)
		}
	}
	_, err := eng.Begin(core.Update, tsgen.Make(1, 0), core.UnboundedSpec())
	wantRedirect(err, "update Begin")
	_, err = eng.Begin(core.Query, tsgen.Make(2, 0), core.SRSpec())
	wantRedirect(err, "zero-epsilon Begin")

	txn, err := eng.Begin(core.Query, tsgen.Make(3, 0), core.BoundSpec{Transaction: 10})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	wantRedirect(eng.Write(txn, 1, 5), "Write")
	_, err = eng.WriteDelta(txn, 1, 5)
	wantRedirect(err, "WriteDelta")
	if err := eng.Abort(txn); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if eng.Live() != 0 {
		t.Errorf("live attempts leaked: %d", eng.Live())
	}
}

func TestEngineAbortsWhenLagExceedsImportLimit(t *testing.T) {
	p := newPrimary(t)
	p.create(t, 1, 100)

	f := NewFollower(storage.Config{HistoryDepth: testHistoryDepth})
	drain := p.follow(t, f)
	eng := NewEngine(f, Options{Collector: &metrics.Collector{}})

	p.update(t, 1, 100) // baseline commit the follower applies
	drain()
	f.Hold()
	p.update(t, 1, 200) // lag distance 100
	drain()

	txn, err := eng.Begin(core.Query, p.ts(), core.BoundSpec{Transaction: 10})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	_, err = eng.Read(txn, 1)
	var ae *tso.AbortError
	if !errors.As(err, &ae) || ae.Reason != metrics.AbortImportLimit {
		t.Fatalf("Read err = %v, want import-limit abort", err)
	}
	if eng.Live() != 0 {
		t.Errorf("aborted attempt still live")
	}
}

// TestFollowerCountsProperMissAtDepthOne: a follower retaining one
// version per object (K = 1) cannot find the proper version of a query
// older than its last applied write. That inexact lookup is a proper
// miss, counted on the follower's store as the primary counts its own,
// so the Stats probe and /debug/esr report it.
func TestFollowerCountsProperMissAtDepthOne(t *testing.T) {
	p := newPrimary(t)
	p.create(t, 1, 100)

	f := NewFollower(storage.Config{HistoryDepth: 1})
	drain := p.follow(t, f)
	eng := NewEngine(f, Options{Collector: &metrics.Collector{}})

	p.update(t, 1, 130)
	qts := p.ts() // the query orders between the two writes
	p.update(t, 1, 160)
	drain()

	txn, err := eng.Begin(core.Query, qts, core.BoundSpec{Transaction: 100})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	v, err := eng.Read(txn, 1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != 160 {
		t.Fatalf("read %d, want the only retained version 160", v)
	}
	if err := eng.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := eng.Store().ProperMisses(); got != 1 {
		t.Errorf("proper misses = %d, want 1 for the evicted proper version", got)
	}
}

// TestReplicaLagChargeProperty is the lag-charging property test: for
// random schedules of primary updates and follower holds, a query ET's
// accumulated import from replica reads never exceeds its TIL, and the
// merged primary+replica trace passes the offline oracle — which
// re-derives every charge independently and cross-checks the commit
// totals against them.
func TestReplicaLagChargeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const objects = 6

	p := newPrimary(t)
	vals := make([]core.Value, objects)
	for i := 0; i < objects; i++ {
		vals[i] = core.Value(1000 + rng.Intn(9000))
		p.create(t, core.ObjectID(i), vals[i])
	}

	f := NewFollower(storage.Config{HistoryDepth: testHistoryDepth})
	drain := p.follow(t, f)
	rec := history.NewRecorder()
	eng := NewEngine(f, Options{Collector: &metrics.Collector{}, Tracer: rec})
	drain()

	tils := []core.Distance{20, 100, 500, 5000, core.NoLimit}
	commits, aborts, relaxed := 0, 0, 0
	for round := 0; round < 200; round++ {
		// Random lag schedule: hold, partially release, or catch up.
		switch rng.Intn(3) {
		case 0:
			f.Hold()
		case 1:
			if err := f.Release(rng.Intn(3)); err != nil {
				t.Fatalf("Release: %v", err)
			}
		case 2:
			if err := f.Release(-1); err != nil {
				t.Fatalf("Release: %v", err)
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			obj := core.ObjectID(rng.Intn(objects))
			vals[obj] += core.Value(rng.Intn(200) - 100)
			p.update(t, obj, vals[obj])
		}
		drain()

		til := tils[rng.Intn(len(tils))]
		txn, err := eng.Begin(core.Query, p.ts(), core.BoundSpec{Transaction: til})
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		var imported core.Distance
		aborted := false
		for n := 1 + rng.Intn(4); n > 0; n-- {
			obj := core.ObjectID(rng.Intn(objects))
			_, rerr := eng.Read(txn, obj)
			if rerr != nil {
				var ae *tso.AbortError
				if !errors.As(rerr, &ae) || ae.Reason != metrics.AbortImportLimit {
					t.Fatalf("Read err = %v", rerr)
				}
				aborted = true
				break
			}
		}
		if aborted {
			aborts++
			continue
		}
		before := eng.ImportedTotal()
		if err := eng.Commit(txn); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		imported = eng.ImportedTotal() - before
		if imported > til {
			t.Fatalf("round %d: imported %d over TIL %d", round, imported, til)
		}
		if imported > 0 {
			relaxed++
		}
		commits++
	}
	if err := f.Release(-1); err != nil {
		t.Fatalf("final Release: %v", err)
	}
	if relaxed == 0 {
		t.Fatal("property test exercised no lagged reads; lag schedule is broken")
	}
	t.Logf("commits=%d aborts=%d relaxed=%d", commits, aborts, relaxed)

	// The oracle re-derives each replica read's divergence from the
	// merged trace and cross-checks the charges; any overcharge,
	// undercharge past a bound, or TIL overrun refutes certification.
	merged := append(p.rec.Events(), rec.Events()...)
	rep := esrcheck.Check(merged)
	if err := rep.Err(); err != nil {
		t.Fatalf("merged trace refuted: %v\nviolations: %+v", err, rep.Violations)
	}
	if rep.RelaxedReads == 0 {
		t.Error("oracle saw no relaxed reads in a lagging run")
	}
}
