package storage

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

func TestStoreCreateGet(t *testing.T) {
	s := NewStore(Config{DefaultOIL: 5, DefaultOEL: 7})
	o, err := s.Create(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if o.OIL() != 5 || o.OEL() != 7 {
		t.Errorf("default limits not applied: %d,%d", o.OIL(), o.OEL())
	}
	got, err := s.Get(1)
	if err != nil || got != o {
		t.Errorf("Get = %v,%v", got, err)
	}
	if _, err := s.Get(2); err == nil {
		t.Error("Get of missing object succeeded")
	}
	if _, err := s.Create(1, 0); err == nil {
		t.Error("duplicate Create succeeded")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreIDsSorted(t *testing.T) {
	s := NewStore(Config{})
	for _, id := range []core.ObjectID{5, 1, 3} {
		if _, err := s.Create(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.IDs()
	want := []core.ObjectID{1, 3, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestStorePopulateRanges(t *testing.T) {
	s := NewStore(Config{})
	rng := rand.New(rand.NewSource(42))
	// The paper's setup: 1000 objects valued 1000–9999.
	if err := s.Populate(1000, 1000, 9999, 50, 150, 20, 60, rng); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, id := range s.IDs() {
		o, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v := o.Value(); v < 1000 || v > 9999 {
			t.Fatalf("object %d value %d outside [1000,9999]", id, v)
		}
		if oil := o.OIL(); oil < 50 || oil > 150 {
			t.Fatalf("object %d OIL %d outside [50,150]", id, oil)
		}
		if oel := o.OEL(); oel < 20 || oel > 60 {
			t.Fatalf("object %d OEL %d outside [20,60]", id, oel)
		}
	}
}

func TestStorePopulateValidation(t *testing.T) {
	s := NewStore(Config{})
	if err := s.Populate(0, 0, 10, 0, 0, 0, 0, nil); err == nil {
		t.Error("zero count accepted")
	}
	if err := s.Populate(5, 10, 0, 0, 0, 0, 0, nil); err == nil {
		t.Error("inverted value range accepted")
	}
}

func TestStorePopulateNilRNGIsDeterministic(t *testing.T) {
	s1 := NewStore(Config{})
	s2 := NewStore(Config{})
	if err := s1.Populate(50, 0, 100, 0, 10, 0, 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Populate(50, 0, 100, 0, 10, 0, 10, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range s1.IDs() {
		o1, _ := s1.Get(id)
		o2, _ := s2.Get(id)
		if o1.Value() != o2.Value() {
			t.Fatalf("nil-rng populate not deterministic at object %d", id)
		}
	}
}

func TestStoreSetAllLimits(t *testing.T) {
	s := NewStore(Config{})
	if err := s.Populate(10, 0, 10, 0, 5, 0, 5, nil); err != nil {
		t.Fatal(err)
	}
	s.SetAllLimits(core.NoLimit, 99)
	for _, id := range s.IDs() {
		o, _ := s.Get(id)
		if o.OIL() != core.NoLimit || o.OEL() != 99 {
			t.Fatalf("SetAllLimits missed object %d", id)
		}
	}
}

func TestStoreTotalValueUsesShadowForDirty(t *testing.T) {
	s := NewStore(Config{})
	a, _ := s.Create(1, 100)
	if _, err := s.Create(2, 200); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalValue(); got != 300 {
		t.Fatalf("TotalValue = %d, want 300", got)
	}
	a.Lock()
	if err := a.BeginWrite(9, tsgen.Make(5, 0), 9999); err != nil {
		t.Fatal(err)
	}
	a.Unlock()
	if got := s.TotalValue(); got != 300 {
		t.Errorf("TotalValue with dirty write = %d, want committed 300", got)
	}
	a.Lock()
	a.CommitWrite(9)
	a.Unlock()
	if got := s.TotalValue(); got != 10199 {
		t.Errorf("TotalValue after commit = %d, want 10199", got)
	}
}

func TestStoreProperMissCounter(t *testing.T) {
	s := NewStore(Config{})
	if s.ProperMisses() != 0 {
		t.Error("fresh store has misses")
	}
	s.NotedProperMiss()
	s.NotedProperMiss()
	if s.ProperMisses() != 2 {
		t.Errorf("ProperMisses = %d, want 2", s.ProperMisses())
	}
}

func TestDrawRangeEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := drawRange(5, 5, rng); got != 5 {
		t.Errorf("degenerate range = %d", got)
	}
	if got := drawRange(9, 3, rng); got != 9 {
		t.Errorf("inverted range = %d", got)
	}
	if got := drawRange(core.NoLimit, core.NoLimit, rng); got != core.NoLimit {
		t.Errorf("NoLimit lo = %d", got)
	}
	// Half-NoLimit ranges are rejected by validateRange before drawRange
	// runs; drawRange itself only ever sees validated ranges.
	if err := validateRange("OIL", 5, core.NoLimit); err == nil {
		t.Error("validateRange accepted a half-NoLimit range")
	}
}

// TestHistoryProperLookupProperty: for any sequence of committed writes
// with increasing timestamps and any probe timestamp, FindProper returns
// exactly the value of the last write older than the probe whenever that
// write is still retained.
func TestHistoryProperLookupProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 1 + rng.Intn(6)
		o := NewObject(1, 42, 0, 0, depth)
		type w struct {
			ts    int64
			value core.Value
		}
		writes := []w{{0, 42}} // the seed entry at ts none
		tick := int64(1)
		n := rng.Intn(15)
		for i := 0; i < n; i++ {
			tick += 1 + int64(rng.Intn(5))
			v := core.Value(rng.Intn(10_000))
			if err := o.BeginWrite(core.TxnID(i+1), tsgen.Make(tick, 0), v); err != nil {
				return false
			}
			o.CommitWrite(core.TxnID(i + 1))
			writes = append(writes, w{tick, v})
		}
		for probe := 0; probe < 10; probe++ {
			pt := int64(rng.Intn(int(tick) + 5))
			probeTS := tsgen.Make(pt, 1) // site 1 > site 0 breaks ties upward
			got, exact := o.FindProper(probeTS)
			// Ground truth: last write with ts <= pt (site tiebreak makes
			// equal ticks strictly older than the probe).
			idx := -1
			for i, wr := range writes {
				if wr.ts <= pt {
					idx = i
				}
			}
			retainedFrom := len(writes) - o.HistoryLen()
			if idx >= retainedFrom {
				if !exact || got != writes[idx].value {
					return false
				}
			} else if exact {
				// The needed entry was evicted; exact must be false.
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPopulateRejectsBadRanges is the regression test for the silent
// drawRange collapse: inverted and half-NoLimit OIL/OEL ranges must be
// typed errors, not silently clamped draws.
func TestPopulateRejectsBadRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name         string
		oilLo, oilHi core.Distance
		oelLo, oelHi core.Distance
		wantErr      bool
		wantWhich    string
	}{
		{"both unlimited", core.NoLimit, core.NoLimit, core.NoLimit, core.NoLimit, false, ""},
		{"finite ranges", 10, 20, 5, 5, false, ""},
		{"inverted OIL", 20, 10, 1, 2, true, "OIL"},
		{"inverted OEL", 1, 2, 20, 10, true, "OEL"},
		{"half NoLimit OIL hi", 10, core.NoLimit, 1, 2, true, "OIL"},
		{"half NoLimit OIL lo", core.NoLimit, 10, 1, 2, true, "OIL"},
		{"half NoLimit OEL hi", 1, 2, 10, core.NoLimit, true, "OEL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(Config{})
			err := s.Populate(4, 100, 200, tc.oilLo, tc.oilHi, tc.oelLo, tc.oelHi, rng)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("Populate: unexpected error %v", err)
				}
				if s.Len() != 4 {
					t.Fatalf("populated %d objects, want 4", s.Len())
				}
				return
			}
			var re *RangeError
			if !errors.As(err, &re) {
				t.Fatalf("Populate error %v (%T), want *RangeError", err, err)
			}
			if re.Which != tc.wantWhich {
				t.Fatalf("RangeError.Which = %q, want %q", re.Which, tc.wantWhich)
			}
			if s.Len() != 0 {
				t.Fatalf("failed Populate left %d objects behind", s.Len())
			}
		})
	}
}

// TestTotalValueAndSetAllLimitsSnapshot pins the documented consistency
// contract: both walk a point-in-time snapshot of the object set taken
// under the store lock, then visit objects under their own locks, so
// concurrent creates cannot deadlock or corrupt the walk. The creator
// runs in lockstep with the walks — a fixed burst of creates per walk,
// racing that walk — so the store stays small however the two are
// scheduled.
func TestTotalValueAndSetAllLimitsSnapshot(t *testing.T) {
	const walks, perWalk = 200, 16
	s := NewStore(Config{})
	for i := core.ObjectID(1); i <= 64; i++ {
		if _, err := s.CreateWithLimits(i, core.Value(i), core.NoLimit, core.NoLimit); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	step := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := core.ObjectID(1000)
		for range step {
			for j := 0; j < perWalk; j++ {
				_, _ = s.CreateWithLimits(next, 1, core.NoLimit, core.NoLimit)
				next++
			}
		}
	}()
	for i := 0; i < walks; i++ {
		step <- struct{}{} // the creator's next burst overlaps this walk
		if got := s.TotalValue(); got < 64*65/2 {
			t.Errorf("TotalValue %d lost committed value", got)
			break
		}
		s.SetAllLimits(core.Distance(i), core.Distance(i))
	}
	close(step)
	wg.Wait()
	// Every object present before the last sweep carries its limits.
	o, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	o.Lock()
	oil, oel := o.OIL(), o.OEL()
	o.Unlock()
	if oil != 199 || oel != 199 {
		t.Fatalf("object 1 limits %d/%d after sweeps, want 199/199", oil, oel)
	}
}
