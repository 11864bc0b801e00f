// Mutation tests for the oracle itself: record real engine executions,
// certify them, then perturb the recorded history — drop an event,
// inflate a value divergence past the object import limit, repoint a
// witness edge — and require the checker to flag every seeded violation.
// An oracle that cannot catch its own mutations would certify anything.
package esrcheck_test

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/esrcheck"
	"github.com/epsilondb/epsilondb/internal/history"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
)

func ts(n int64) tsgen.Timestamp { return tsgen.Make(n, 0) }

// recordZeroEpsilonRun drives a concurrent zero-epsilon workload on the
// real TO engine and returns its recorded history.
func recordZeroEpsilonRun(t *testing.T) []tso.Event {
	t.Helper()
	rec := history.NewRecorder()
	st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
	for i := 1; i <= 6; i++ {
		if _, err := st.Create(core.ObjectID(i), core.Value(100*i)); err != nil {
			t.Fatal(err)
		}
	}
	e := tso.NewEngine(st, tso.Options{Tracer: rec})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 11))
			gen := tsgen.NewGenerator(w, &tsgen.LogicalClock{})
			for i := 0; i < 40; i++ {
				var p *core.Program
				if rng.Intn(2) == 0 {
					p = core.NewQuery(0, core.ObjectID(1+rng.Intn(6)))
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
	return rec.Events()
}

func TestUnperturbedZeroEpsilonRunCertifiedWithDistanceZero(t *testing.T) {
	events := recordZeroEpsilonRun(t)
	rep := esrcheck.Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("genuine zero-epsilon run refuted: %v", err)
	}
	if rep.RelaxedReads != 0 || rep.DirtyReads != 0 || rep.MaxDistance != 0 {
		t.Errorf("zero-epsilon run not certified at distance 0: %+v", rep)
	}
	if len(rep.Witness) != rep.Txns {
		t.Errorf("witness covers %d of %d committed txns", len(rep.Witness), rep.Txns)
	}
	// The ε=0 special case: the oracle's strict mode must agree the run
	// is conflict serializable.
	if err := esrcheck.CheckSerializable(events); err != nil {
		t.Errorf("strict mode disagrees: %v", err)
	}
}

func TestMutationDroppedWriteEventFlagged(t *testing.T) {
	events := recordZeroEpsilonRun(t)
	// Find a committed read of a real version and drop the write event
	// that produced it: the oracle must notice the version is gone.
	mutIdx := -1
	for _, r := range events {
		if r.Kind != tso.EvRead || r.Version.IsNone() || r.Version == r.TS {
			continue
		}
		for j, w := range events {
			if w.Kind == tso.EvWrite && w.Object == r.Object && w.Version == r.Version && w.Txn != r.Txn {
				mutIdx = j
				break
			}
		}
		if mutIdx >= 0 {
			break
		}
	}
	if mutIdx < 0 {
		t.Fatal("workload produced no cross-transaction read; cannot seed mutation")
	}
	mutated := append(append([]tso.Event(nil), events[:mutIdx]...), events[mutIdx+1:]...)
	rep := esrcheck.Check(mutated)
	if rep.OK() {
		t.Fatal("dropped write event not flagged")
	}
	wantCode(t, rep, "unknown-version")
}

func TestMutationRepointedWitnessEdgeFlagged(t *testing.T) {
	events := recordZeroEpsilonRun(t)
	// Repoint a read at a later version of its object than the one it
	// observed — reversing the read's witness edge (reader-before-writer
	// becomes writer-before-reader). In a zero-epsilon history that is
	// exactly a forbidden relaxation.
	committed := make(map[core.TxnID]bool)
	for _, ev := range events {
		if ev.Kind == tso.EvCommit {
			committed[ev.Txn] = true
		}
	}
	mutated := append([]tso.Event(nil), events...)
	seeded := false
	for i, r := range mutated {
		if r.Kind != tso.EvRead || r.TxnKind != core.Query || !committed[r.Txn] || r.Version == r.TS {
			continue
		}
		for _, w := range mutated {
			if w.Kind == tso.EvWrite && committed[w.Txn] && w.Object == r.Object &&
				w.Txn != r.Txn && w.Version.After(r.Version) && w.Version.After(r.TS) {
				mutated[i].Version = w.Version
				seeded = true
				break
			}
		}
		if seeded {
			break
		}
	}
	if !seeded {
		t.Fatal("workload produced no later version to repoint at")
	}
	rep := esrcheck.Check(mutated)
	if rep.OK() {
		t.Fatal("repointed witness edge not flagged")
	}
	wantCode(t, rep, "zero-epsilon-relaxed")
}

// recordBoundedCaseOneRun produces a real ESR case-1 history: the query
// begins before an update commits newer data, then reads it within the
// object import limit.
func recordBoundedCaseOneRun(t *testing.T) []tso.Event {
	t.Helper()
	rec := history.NewRecorder()
	st := storage.NewStore(storage.Config{DefaultOIL: 50, DefaultOEL: 50})
	if _, err := st.Create(1, 100); err != nil {
		t.Fatal(err)
	}
	e := tso.NewEngine(st, tso.Options{Tracer: rec})
	// An early consistent read pins the initial value in the trace, so
	// the oracle can recompute divergences instead of trusting charges.
	q0, err := e.Begin(core.Query, ts(5), core.BoundSpec{Transaction: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(q0); err != nil {
		t.Fatal(err)
	}
	q, err := e.Begin(core.Query, ts(10), core.BoundSpec{Transaction: core.NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	u, err := e.Begin(core.Update, ts(20), core.BoundSpec{Transaction: core.NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(u, 1, 130); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(q, 1); err != nil { // case 1: late read, d=30 ≤ OIL 50
		t.Fatal(err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

func TestMutationInflatedDivergenceFlagged(t *testing.T) {
	events := recordBoundedCaseOneRun(t)
	rep := esrcheck.Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("bounded case-1 run refuted: %v", err)
	}
	if rep.RelaxedReads != 1 || rep.MaxDistance != 30 {
		t.Fatalf("unexpected baseline report: %+v", rep)
	}
	// Inflate the relaxed read's observed value so the true divergence
	// (200) dwarfs both what was charged and the object import limit.
	mutated := append([]tso.Event(nil), events...)
	seeded := false
	for i, ev := range mutated {
		if ev.Kind == tso.EvRead && ev.Inconsistency > 0 {
			mutated[i].Value = 300
			seeded = true
			break
		}
	}
	if !seeded {
		t.Fatal("no charged read to inflate")
	}
	rep = esrcheck.Check(mutated)
	if rep.OK() {
		t.Fatal("inflated divergence not flagged")
	}
	wantCode(t, rep, "object-import")
}

func wantCode(t *testing.T, rep *esrcheck.Report, code string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Code == code {
			return
		}
	}
	t.Fatalf("no %q violation in %+v", code, rep.Violations)
}
