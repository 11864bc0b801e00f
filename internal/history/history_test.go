package history

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/esrcheck"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
)

func ts(n int64) tsgen.Timestamp { return tsgen.Make(n, 0) }

// --- hand-written histories, in the event shape the Recorder captures,
// judged by esrcheck's strict conflict-serializability mode. ---

func commit(txn core.TxnID, at int64) tso.Event {
	return tso.Event{Kind: tso.EvCommit, Txn: txn, TS: ts(at)}
}
func abort(txn core.TxnID, at int64) tso.Event {
	return tso.Event{Kind: tso.EvAbort, Txn: txn, TS: ts(at)}
}
func write(txn core.TxnID, at int64, obj core.ObjectID, v core.Value) tso.Event {
	return tso.Event{Kind: tso.EvWrite, Txn: txn, TS: ts(at), Object: obj, Value: v, Version: ts(at)}
}
func read(txn core.TxnID, at int64, obj core.ObjectID, version int64) tso.Event {
	vts := tsgen.None
	if version >= 0 {
		vts = ts(version)
	}
	return tso.Event{Kind: tso.EvRead, Txn: txn, TS: ts(at), Object: obj, Version: vts}
}

func TestSerialHistoryIsSerializable(t *testing.T) {
	events := []tso.Event{
		write(1, 10, 1, 100), write(1, 10, 2, 200), commit(1, 10),
		read(2, 20, 1, 10), read(2, 20, 2, 10), commit(2, 20),
		write(3, 30, 1, 150), commit(3, 30),
	}
	if err := esrcheck.CheckSerializable(events); err != nil {
		t.Errorf("serial history flagged: %v", err)
	}
}

func TestClassicNonSerializableCycleDetected(t *testing.T) {
	// T1 reads x's initial version then T2 writes x and y; T1 reads y's
	// new version: T1 → T2 (RW on x) and T2 → T1 (WR on y).
	events := []tso.Event{
		read(1, 10, 1, -1),
		write(2, 20, 1, 5), write(2, 20, 2, 6), commit(2, 20),
		read(1, 10, 2, 20),
		commit(1, 10),
	}
	err := esrcheck.CheckSerializable(events)
	if err == nil {
		t.Fatal("cycle not detected")
	}
	if !strings.Contains(err.Error(), "conflict cycle") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestReadOfNeverCommittedVersionFlagged(t *testing.T) {
	events := []tso.Event{
		write(2, 20, 1, 5), abort(2, 20),
		read(1, 30, 1, 20), // read version 20, whose writer aborted
		commit(1, 30),
	}
	err := esrcheck.CheckSerializable(events)
	if err == nil || !strings.Contains(err.Error(), "never committed") {
		t.Fatalf("dirty read of aborted version not flagged: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "1 read(s) ") {
		t.Errorf("want exactly one read of an aborted version counted, got: %v", err)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Trace(tso.Event{Kind: tso.EvRead, Txn: core.TxnID(i)})
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("Len = %d, want 800", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

// --- end-to-end: a recorder attached to the engine captures a history
// the oracle can judge. At zero epsilon it certifies as serializable;
// with bounds it can hold the classic non-SR interleaving. ---

func newTracedEngine(t *testing.T, numObjects int, tracer tso.Tracer) *tso.Engine {
	t.Helper()
	st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
	for i := 1; i <= numObjects; i++ {
		if _, err := st.Create(core.ObjectID(i), core.Value(100*i)); err != nil {
			t.Fatal(err)
		}
	}
	return tso.NewEngine(st, tso.Options{Tracer: tracer})
}

func TestEngineSRRandomWorkloadIsSerializable(t *testing.T) {
	rec := NewRecorder()
	e := newTracedEngine(t, 6, rec)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			gen := tsgen.NewGenerator(w, &tsgen.LogicalClock{})
			for i := 0; i < 40; i++ {
				var p *core.Program
				if rng.Intn(2) == 0 {
					p = core.NewQuery(0,
						core.ObjectID(1+rng.Intn(6)))
					p.Read(core.ObjectID(1 + (int(p.Ops[0].Object)+2)%6))
				} else {
					a := core.ObjectID(1 + rng.Intn(6))
					p = core.NewUpdate(0).Read(a).WriteDelta(core.ObjectID(1+(int(a)+1)%6), core.Value(rng.Intn(20)))
				}
				if p.Validate() != nil {
					continue
				}
				if _, _, err := e.RunRetry(p, gen, 500); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := esrcheck.CheckSerializable(rec.Events()); err != nil {
		t.Errorf("zero-epsilon execution not serializable: %v", err)
	}
}

func TestEngineESRAdmitsNonSerializableHistory(t *testing.T) {
	// The canonical ESR interleaving: Q reads x, then U (older ts) writes
	// x (case 3) and writes y; Q then reads y seeing U's committed value
	// (case 1). Conflicts: Q →RW U (x), U →WR Q (y): a cycle, admitted
	// because both inconsistencies fit the bounds.
	rec := NewRecorder()
	e := newTracedEngine(t, 2, rec)
	q, err := e.Begin(core.Query, ts(20), core.BoundSpec{Transaction: core.NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q, 1); err != nil {
		t.Fatal(err)
	}
	u, err := e.Begin(core.Update, ts(10), core.BoundSpec{Transaction: core.NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(u, 1, 130); err != nil { // case 3 vs Q's read
		t.Fatal(err)
	}
	if err := e.Write(u, 2, 230); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q, 2); err != nil { // case 1: committed newer data
		t.Fatal(err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
	err = esrcheck.CheckSerializable(rec.Events())
	if err == nil {
		t.Fatal("ESR interleaving unexpectedly serializable — the relaxation paths were not exercised")
	}
	if !strings.Contains(err.Error(), "conflict cycle") {
		t.Errorf("unexpected failure mode: %v", err)
	}
}
