package twopl

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
)

func newTestEngine(t *testing.T, n int) (*Engine, *metrics.Collector) {
	t.Helper()
	st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
	for i := 1; i <= n; i++ {
		if _, err := st.Create(core.ObjectID(i), core.Value(100*i)); err != nil {
			t.Fatal(err)
		}
	}
	col := &metrics.Collector{}
	return NewEngine(st, col, nil), col
}

func begin(t *testing.T, e *Engine, ts int64) core.TxnID {
	t.Helper()
	txn, err := e.Begin(core.Update, tsgen.Make(ts, 0), core.SRSpec())
	if err != nil {
		t.Fatal(err)
	}
	return txn
}

func TestBasicReadWriteCommit(t *testing.T) {
	e, col := newTestEngine(t, 2)
	u := begin(t, e, 10)
	v, err := e.Read(u, 1)
	if err != nil || v != 100 {
		t.Fatalf("read = %d,%v", v, err)
	}
	got, err := e.WriteDelta(u, 2, 50)
	if err != nil || got != 250 {
		t.Fatalf("write delta = %d,%v", got, err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	q := begin(t, e, 20)
	if v, err := e.Read(q, 2); err != nil || v != 250 {
		t.Fatalf("after commit = %d,%v", v, err)
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
	if s := col.Snapshot(); s.Commits != 2 || s.Aborts() != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestAbortRestoresValue(t *testing.T) {
	e, _ := newTestEngine(t, 1)
	u := begin(t, e, 10)
	if err := e.Write(u, 1, 999); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(u); err != nil {
		t.Fatal(err)
	}
	q := begin(t, e, 20)
	if v, _ := e.Read(q, 1); v != 100 {
		t.Errorf("value after abort = %d", v)
	}
}

func TestDoubleWriteBySameTxn(t *testing.T) {
	e, _ := newTestEngine(t, 1)
	u := begin(t, e, 10)
	if err := e.Write(u, 1, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteDelta(u, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(u); err != nil {
		t.Fatal(err)
	}
	q := begin(t, e, 20)
	if v, _ := e.Read(q, 1); v != 205 {
		t.Errorf("value = %d, want 205", v)
	}
	if err := e.Commit(q); err != nil { // release the S lock
		t.Fatal(err)
	}
	// Abort path of a double write must restore the original value.
	u2 := begin(t, e, 30)
	if err := e.Write(u2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteDelta(u2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(u2); err != nil {
		t.Fatal(err)
	}
	q2 := begin(t, e, 40)
	if v, _ := e.Read(q2, 1); v != 205 {
		t.Errorf("value after abort = %d, want 205", v)
	}
}

func TestSharedLocksDoNotBlock(t *testing.T) {
	e, _ := newTestEngine(t, 1)
	a := begin(t, e, 10)
	b := begin(t, e, 20)
	if _, err := e.Read(a, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Read(b, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("shared read blocked behind shared read")
	}
	if err := e.Commit(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(b); err != nil {
		t.Fatal(err)
	}
}

func TestWriterBlocksUntilCommit(t *testing.T) {
	e, _ := newTestEngine(t, 1)
	a := begin(t, e, 10)
	if err := e.Write(a, 1, 150); err != nil {
		t.Fatal(err)
	}
	b := begin(t, e, 20)
	got := make(chan core.Value, 1)
	go func() {
		v, err := e.Read(b, 1)
		if err != nil {
			got <- -1
			return
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("read returned %d before writer committed", v)
	case <-time.After(30 * time.Millisecond):
	}
	if err := e.Commit(a); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 150 {
			t.Errorf("read = %d, want 150", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader never woke")
	}
	if err := e.Commit(b); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetectedAndVictimAborted(t *testing.T) {
	e, col := newTestEngine(t, 2)
	a := begin(t, e, 10) // older
	b := begin(t, e, 20) // younger → victim
	if err := e.Write(a, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(b, 2, 2); err != nil {
		t.Fatal(err)
	}
	// a → wants 2 (held by b); b → wants 1 (held by a): deadlock.
	aDone := make(chan error, 1)
	go func() { aDone <- e.Write(a, 2, 3) }()
	time.Sleep(20 * time.Millisecond) // let a block
	err := e.Write(b, 1, 4)
	var ae *AbortError
	if !errors.As(err, &ae) {
		// b may have survived if the detector victimized a instead.
		t.Fatalf("expected deadlock abort for b, got %v", err)
	}
	if ae.Reason != metrics.AbortDeadlock {
		t.Errorf("reason = %v, want deadlock", ae.Reason)
	}
	// a should now proceed and commit.
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("a's blocked write failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a never unblocked after victim abort")
	}
	if err := e.Commit(a); err != nil {
		t.Fatal(err)
	}
	if col.Snapshot().AbortDeadlock == 0 {
		t.Error("deadlock abort not counted")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	e, _ := newTestEngine(t, 1)
	a := begin(t, e, 10)
	if _, err := e.Read(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(a, 1, 500); err != nil {
		t.Fatalf("sole-holder upgrade failed: %v", err)
	}
	if err := e.Commit(a); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeDeadlockBetweenTwoReaders(t *testing.T) {
	// Both transactions hold S and request X: the classic upgrade
	// deadlock; the detector must sacrifice one.
	e, _ := newTestEngine(t, 1)
	a := begin(t, e, 10)
	b := begin(t, e, 20)
	if _, err := e.Read(a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(b, 1); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() { aDone <- e.Write(a, 1, 1) }()
	time.Sleep(20 * time.Millisecond)
	bErr := e.Write(b, 1, 2)
	var aErr error
	select {
	case aErr = <-aDone:
	case <-time.After(time.Second):
		t.Fatal("upgrade deadlock not resolved")
	}
	aborts := 0
	if _, ok := tso.IsAbort(aErr); ok {
		aborts++
	} else if aErr != nil {
		t.Fatalf("a error: %v", aErr)
	}
	if _, ok := tso.IsAbort(bErr); ok {
		aborts++
	} else if bErr != nil {
		t.Fatalf("b error: %v", bErr)
	}
	if aborts != 1 {
		t.Fatalf("want exactly one victim, got %d", aborts)
	}
}

// TestUpgradeBehindQueuedWriterPicksVictim is the lost-deadlock schedule:
// T1 and T4 hold S, T2 queues X behind both, T1 queues its S→X upgrade
// behind T2, and T4 leaves. T2 waits on T1's S lock while T1 waits
// behind T2 in the FIFO queue, so the detector must choose a victim
// instead of leaving both blocked.
func TestUpgradeBehindQueuedWriterPicksVictim(t *testing.T) {
	e, col := newTestEngine(t, 1)
	t1 := begin(t, e, 10)
	t2 := begin(t, e, 20)
	t4 := begin(t, e, 40)
	for _, txn := range []core.TxnID{t1, t4} {
		if _, err := e.Read(txn, 1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	done := map[core.TxnID]chan error{t1: make(chan error, 1), t2: make(chan error, 1)}
	go func() { done[t2] <- e.Write(t2, 1, 2) }()
	waitFor("T2 queueing X", func() bool { return col.Snapshot().Waits == 1 })
	go func() { done[t1] <- e.Write(t1, 1, 1) }()
	waitFor("T1 queueing its upgrade or being refused", func() bool {
		s := col.Snapshot()
		return s.Waits == 2 || s.AbortDeadlock > 0
	})
	if err := e.Commit(t4); err != nil {
		t.Fatal(err)
	}

	victims, survivors := 0, []core.TxnID{}
	for _, txn := range []core.TxnID{t1, t2} {
		select {
		case err := <-done[txn]:
			if ae, ok := tso.IsAbort(err); ok && ae.Reason == metrics.AbortDeadlock {
				victims++
			} else if err != nil {
				t.Fatalf("txn %d: %v", txn, err)
			} else {
				survivors = append(survivors, txn)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("txn %d still blocked: upgrade-behind-waiter deadlock went undetected", txn)
		}
	}
	if victims != 1 || len(survivors) != 1 {
		t.Fatalf("victims = %d, survivors = %v; want exactly one of each", victims, survivors)
	}
	if err := e.Commit(survivors[0]); err != nil {
		t.Fatal(err)
	}
	if n := e.Live(); n != 0 {
		t.Errorf("Live() = %d, want 0", n)
	}
}

func TestUnknownTxnAndMissingObject(t *testing.T) {
	e, _ := newTestEngine(t, 1)
	if _, err := e.Read(core.TxnID(99), 1); !errors.Is(err, tso.ErrUnknownTxn) {
		t.Errorf("unknown txn: %v", err)
	}
	u := begin(t, e, 10)
	_, err := e.Read(u, 42)
	ae, ok := tso.IsAbort(err)
	if !ok || ae.Reason != metrics.AbortMissingObject {
		t.Errorf("missing object: %v", err)
	}
	if err := e.Commit(u); !errors.Is(err, tso.ErrUnknownTxn) {
		t.Errorf("commit after internal abort: %v", err)
	}
	if _, err := e.Begin(core.Kind(7), tsgen.Make(1, 0), core.SRSpec()); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestConcurrentTransfersAreSerializableAndConserve(t *testing.T) {
	e, _ := newTestEngine(t, 5)
	var initial core.Value = 100 + 200 + 300 + 400 + 500
	var wg sync.WaitGroup
	clock := &tsgen.LogicalClock{}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			gen := tsgen.NewGenerator(w, clock)
			for i := 0; i < 40; i++ {
				for attempt := 0; attempt < 100; attempt++ {
					txn, err := e.Begin(core.Update, gen.Next(), core.SRSpec())
					if err != nil {
						t.Error(err)
						return
					}
					a := core.ObjectID(1 + rng.Intn(5))
					b := core.ObjectID(1 + (int(a)+rng.Intn(4))%5)
					amt := core.Value(1 + rng.Intn(20))
					if _, err := e.WriteDelta(txn, a, amt); err != nil {
						continue // aborted; retry
					}
					if _, err := e.WriteDelta(txn, b, -amt); err != nil {
						continue
					}
					if err := e.Commit(txn); err == nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	// Sum via a final transaction.
	q := begin(t, e, 1<<40)
	var total core.Value
	for i := 1; i <= 5; i++ {
		v, err := e.Read(q, core.ObjectID(i))
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if err := e.Commit(q); err != nil {
		t.Fatal(err)
	}
	if total != initial {
		t.Errorf("total = %d, want %d", total, initial)
	}
}
