package tso

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

func TestRunProgramQuerySum(t *testing.T) {
	e := newTestEngine(t, 3, Options{})
	p := core.NewQuery(0, 1, 2, 3)
	res, err := e.RunProgram(p, tsgen.Make(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 600 {
		t.Errorf("Sum = %d, want 600", res.Sum)
	}
	if len(res.Values) != 3 || res.Values[1] != 200 {
		t.Errorf("Values = %v", res.Values)
	}
	if res.Imported != 0 {
		t.Errorf("Imported = %d, want 0", res.Imported)
	}
}

func TestRunProgramUpdateDeltas(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	p := core.NewUpdate(0).Read(1).WriteDelta(2, 25)
	res, err := e.RunProgram(p, tsgen.Make(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[1] != 225 {
		t.Errorf("delta write result = %d, want 225", res.Values[1])
	}
	q, err := e.RunProgram(core.NewQuery(0, 2), tsgen.Make(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if q.Sum != 225 {
		t.Errorf("value after delta = %d, want 225", q.Sum)
	}
}

func TestRunProgramReportsImportedInconsistency(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 180); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	res, err := e.RunProgram(core.NewQuery(100, 1), tsgen.Make(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Imported != 80 {
		t.Errorf("Imported = %d, want 80", res.Imported)
	}
}

func TestRunProgramAbortPropagates(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	u := mustBegin(t, e, core.Update, 20, 0)
	if err := e.Write(u, 1, 180); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	_, err := e.RunProgram(core.NewQuery(0, 1), tsgen.Make(10, 0))
	wantAbort(t, err, metrics.AbortLateRead)
}

func TestRunRetryEventuallyCommits(t *testing.T) {
	col := &metrics.Collector{}
	e := newTestEngine(t, 1, Options{Collector: col})
	gen := tsgen.NewGenerator(0, &tsgen.LogicalClock{})

	// Force one abort: pre-commit a write younger than the first attempt.
	u := mustBegin(t, e, core.Update, 1000, 0)
	if err := e.Write(u, 1, 150); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	res, attempts, err := e.RunRetry(core.NewQuery(0, 1), gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want ≥ 2 (first must be late)", attempts)
	}
	if res.Sum != 150 {
		t.Errorf("Sum = %d, want 150", res.Sum)
	}
	if col.Snapshot().Aborts() != int64(attempts-1) {
		t.Errorf("aborts = %d, attempts = %d", col.Snapshot().Aborts(), attempts)
	}
}

func TestRunRetryMaxAttempts(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	gen := tsgen.NewGenerator(0, &tsgen.LogicalClock{})
	// A query whose read always arrives late: a fresh younger write is
	// committed before every attempt.
	p := core.NewQuery(0, 1)
	blocker := func() {
		u, err := e.Begin(core.Update, gen.Next(), core.SRSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Write(u, 1, 150); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(u); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave manually: attempt with an old timestamp, then block.
	old := gen.Next()
	blocker()
	if _, err := e.RunProgram(p, old); err == nil {
		t.Fatal("stale attempt should abort")
	}
	_, attempts, err := func() (*Result, int, error) {
		// maxAttempts=1 with a guaranteed-late timestamp source.
		stale := tsgen.NewGenerator(1, stalled{})
		return e.RunRetry(p, stale, 1)
	}()
	if err == nil {
		t.Fatal("RunRetry with stale generator should fail")
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
}

type stalled struct{}

func (stalled) Now() int64 { return 1 } // always older than committed writes

// TestConcurrentTransferConservation runs many concurrent update ETs that
// move value between objects (zero-sum deltas) alongside query ETs, at
// several epsilon settings, and checks that the committed total is
// conserved and that every committed query's result deviates from the
// consistent total by at most its TIL plus the concurrent updates'
// export allowance.
func TestConcurrentTransferConservation(t *testing.T) {
	for _, til := range []core.Distance{0, 1_000, core.NoLimit} {
		til := til
		t.Run("til="+distName(til), func(t *testing.T) {
			const numObjects = 8
			st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
			var initial core.Value
			for i := 0; i < numObjects; i++ {
				if _, err := st.Create(core.ObjectID(i), 1000); err != nil {
					t.Fatal(err)
				}
				initial += 1000
			}
			e := NewEngine(st, Options{})

			// The workers share one clock, as synchronized clients do, and
			// differ only by site. Private clocks drift apart: a worker
			// that falls behind keeps drawing timestamps older than what
			// the others already committed and exhausts its retries.
			clock := &tsgen.LogicalClock{}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					gen := tsgen.NewGenerator(w, clock)
					for i := 0; i < 60; i++ {
						if rng.Intn(2) == 0 {
							a := core.ObjectID(rng.Intn(numObjects))
							b := core.ObjectID((int(a) + 1 + rng.Intn(numObjects-1)) % numObjects)
							amt := core.Value(1 + rng.Intn(50))
							p := core.NewUpdate(til).WriteDelta(a, amt).WriteDelta(b, -amt)
							if _, err := retryYielding(e, p, gen, 200); err != nil {
								t.Errorf("update failed: %v", err)
								return
							}
						} else {
							p := core.NewQuery(til)
							for o := 0; o < numObjects; o++ {
								p.Read(core.ObjectID(o))
							}
							res, err := retryYielding(e, p, gen, 200)
							if err != nil {
								t.Errorf("query failed: %v", err)
								return
							}
							if til == 0 {
								// SR: the sum must be exactly consistent.
								if res.Sum != initial {
									t.Errorf("SR query sum = %d, want %d", res.Sum, initial)
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			if got := st.TotalValue(); got != initial {
				t.Errorf("committed total = %d, want %d (conservation violated)", got, initial)
			}
		})
	}
}

// retryYielding is RunRetry with a yield before each resubmission, the
// way a real client gives up the CPU for a network round trip. Without
// it two workers whose transfers cross (a→b against b→a) can duel for
// hundreds of rounds: the one that aborts resubmits at once and re-takes
// its first object before the other, just woken from waiting on that
// object, reaches it, so each round the roles swap.
func retryYielding(e *Engine, p *core.Program, gen *tsgen.Generator, maxAttempts int) (*Result, error) {
	for attempt := 1; ; attempt++ {
		res, err := e.RunProgram(p, gen.Next())
		if _, isAbort := IsAbort(err); !isAbort || attempt == maxAttempts {
			return res, err
		}
		runtime.Gosched()
	}
}

func distName(d core.Distance) string {
	switch d {
	case 0:
		return "zero"
	case core.NoLimit:
		return "unbounded"
	default:
		return "bounded"
	}
}
