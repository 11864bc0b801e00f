package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/epsilondb/epsilondb/internal/core"
)

// Config controls how a Store creates objects.
type Config struct {
	// HistoryDepth is the number of committed writes retained per object;
	// zero means DefaultHistoryDepth (20, per the paper).
	HistoryDepth int
	// DefaultOIL and DefaultOEL are the object limits applied when
	// Create is called without explicit limits. Zero values mean the
	// limits are zero (SR at the object level), so configurations that
	// want unbounded objects must say core.NoLimit explicitly.
	DefaultOIL core.Distance
	DefaultOEL core.Distance
}

// Store is the object table of the data manager: all objects of the
// in-memory database, keyed by id. Object creation is serialized by an
// internal mutex; object access goes through each object's own lock.
type Store struct {
	mu      sync.RWMutex
	objects map[core.ObjectID]*Object
	cfg     Config

	// dur, when set, logs object creation and limit sweeps so recovery
	// can rebuild the table; see durability.go.
	dur Durability

	// accImported and accExported are the running totals of inconsistency
	// imported/exported by committed transactions; durability.go.
	accImported atomic.Int64
	accExported atomic.Int64

	// properMisses counts FindProper lookups that ran off the end of the
	// bounded history — the situation the paper sized K=20 to avoid.
	properMisses atomic.Int64
}

// NewStore returns an empty store.
func NewStore(cfg Config) *Store {
	return &Store{objects: make(map[core.ObjectID]*Object), cfg: cfg}
}

// Create adds an object with the store's default limits. It fails if the
// id already exists.
func (s *Store) Create(id core.ObjectID, initial core.Value) (*Object, error) {
	return s.CreateWithLimits(id, initial, s.cfg.DefaultOIL, s.cfg.DefaultOEL)
}

// CreateWithLimits adds an object with explicit object limits. With
// durability enabled the creation is logged and the call returns only
// once the record is durable, so a recovered store cannot be missing an
// object a logged commit writes to.
func (s *Store) CreateWithLimits(id core.ObjectID, initial core.Value, oil, oel core.Distance) (*Object, error) {
	if s.dur == nil {
		return s.insert(id, initial, oil, oel, 0)
	}
	var o *Object
	err := s.dur.LogCreate(id, initial, oil, oel, func() error {
		var ierr error
		o, ierr = s.insert(id, initial, oil, oel, lsnPending)
		return ierr
	})
	if err != nil {
		return nil, err
	}
	// The create record is durable: the initial version now predates the
	// log for every reader, unless a commit has already replaced it.
	o.Lock()
	if o.commitLSN == lsnPending {
		o.commitLSN = 0
	}
	o.Unlock()
	return o, nil
}

// lsnPending stamps an object whose create record is not yet durable. The
// object is visible from the moment LogCreate's apply inserts it, before
// the record has an LSN, so a reader folds this maximum into its horizon
// and waits for the next flush, which covers the create.
const lsnPending = ^uint64(0)

// insert builds the object, stamped commitLSN, and adds it under the
// store mutex.
func (s *Store) insert(id core.ObjectID, initial core.Value, oil, oel core.Distance, commitLSN uint64) (*Object, error) {
	o := NewObject(id, initial, oil, oel, s.cfg.HistoryDepth)
	o.commitLSN = commitLSN
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objects[id]; dup {
		return nil, fmt.Errorf("storage: object %d already exists", id)
	}
	s.objects[id] = o
	return o, nil
}

// Get returns the object with the given id, or an error naming the
// missing id — the server surfaces it to the client as an abort.
func (s *Store) Get(id core.ObjectID) (*Object, error) {
	s.mu.RLock()
	o := s.objects[id]
	s.mu.RUnlock()
	if o == nil {
		return nil, fmt.Errorf("storage: object %d does not exist", id)
	}
	return o, nil
}

// Len returns the number of objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// IDs returns all object ids in ascending order, for deterministic
// iteration in tests and snapshots.
func (s *Store) IDs() []core.ObjectID {
	s.mu.RLock()
	ids := make([]core.ObjectID, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// objectsSnapshot copies the object pointers out under the store lock.
// Iterating the copy decouples per-object locking from the store mutex:
// a Create waiting on mu.Lock cannot interleave with the walk, and the
// walk never holds mu while blocking on an object lock.
func (s *Store) objectsSnapshot() []*Object {
	s.mu.RLock()
	objs := make([]*Object, 0, len(s.objects))
	for _, o := range s.objects {
		objs = append(objs, o)
	}
	s.mu.RUnlock()
	return objs
}

// NotedProperMiss bumps the counter of inexact proper-value lookups.
func (s *Store) NotedProperMiss() { s.properMisses.Add(1) }

// ProperMisses returns how many proper-value lookups were inexact.
func (s *Store) ProperMisses() int64 { return s.properMisses.Load() }

// SetAllLimits rewrites OIL/OEL on every object. The experiment harness
// uses it to sweep object-limit ranges between runs without rebuilding
// the database.
//
// Consistency contract: the object set is fixed at entry (objects
// created concurrently may or may not get the new limits), and each
// object's limits change atomically under its own lock, but the sweep as
// a whole is not atomic — a concurrent commit can observe some objects
// updated and others not. Callers that need a clean cut (the experiment
// harness) run it between measurement intervals.
func (s *Store) SetAllLimits(oil, oel core.Distance) {
	apply := func() {
		for _, o := range s.objectsSnapshot() {
			o.Lock()
			o.SetLimits(oil, oel)
			o.Unlock()
		}
	}
	if s.dur == nil {
		apply()
		return
	}
	// Log errors are deliberately swallowed: the in-memory sweep must
	// happen regardless, and a poisoned log already fails every commit.
	//lint:ignore errprop the sweep must apply even if the log is poisoned; commits already surface the failure
	_ = s.dur.LogSetAllLimits(oil, oel, apply)
}

// RangeError reports an invalid OIL/OEL draw range passed to Populate:
// inverted (hi < lo) or mixed finite/NoLimit endpoints. It is typed so
// callers can distinguish configuration errors from creation failures.
type RangeError struct {
	// Which names the range, "OIL" or "OEL".
	Which  string
	Lo, Hi core.Distance
}

// Error implements error.
func (e *RangeError) Error() string {
	if (e.Lo == core.NoLimit) != (e.Hi == core.NoLimit) {
		return fmt.Sprintf("storage: %s range mixes a finite bound and NoLimit (lo=%d hi=%d); use NoLimit for both or neither",
			e.Which, e.Lo, e.Hi)
	}
	return fmt.Sprintf("storage: %s range [%d,%d] is inverted", e.Which, e.Lo, e.Hi)
}

// validateRange rejects inverted and half-NoLimit ranges. [NoLimit,
// NoLimit] is valid and draws NoLimit.
func validateRange(which string, lo, hi core.Distance) error {
	if (lo == core.NoLimit) != (hi == core.NoLimit) {
		return &RangeError{Which: which, Lo: lo, Hi: hi}
	}
	if lo != core.NoLimit && hi < lo {
		return &RangeError{Which: which, Lo: lo, Hi: hi}
	}
	return nil
}

// Populate creates n objects with ids [0, n) whose initial values are
// drawn uniformly from [valueMin, valueMax] and whose OIL/OEL are drawn
// uniformly from the configured ranges, reproducing the start-up data
// file of the prototype ("the values of OIL and OEL are randomly
// generated within a specified range", §6; object values range from 1000
// to 9999, §7). Inverted or half-NoLimit limit ranges are rejected with
// a *RangeError rather than silently collapsed.
func (s *Store) Populate(n int, valueMin, valueMax core.Value, oilMin, oilMax, oelMin, oelMax core.Distance, rng *rand.Rand) error {
	if n <= 0 {
		return fmt.Errorf("storage: Populate needs a positive object count, got %d", n)
	}
	if valueMax < valueMin {
		return fmt.Errorf("storage: value range [%d,%d] is inverted", valueMin, valueMax)
	}
	if err := validateRange("OIL", oilMin, oilMax); err != nil {
		return err
	}
	if err := validateRange("OEL", oelMin, oelMax); err != nil {
		return err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	span := valueMax - valueMin + 1
	for i := 0; i < n; i++ {
		v := valueMin + core.Value(rng.Int63n(span))
		oil := drawRange(oilMin, oilMax, rng)
		oel := drawRange(oelMin, oelMax, rng)
		if _, err := s.CreateWithLimits(core.ObjectID(i), v, oil, oel); err != nil {
			return err
		}
	}
	return nil
}

// drawRange draws uniformly from a validated [lo, hi]: both endpoints
// finite with lo <= hi, or both NoLimit (which draws NoLimit). A
// degenerate range collapses to lo.
func drawRange(lo, hi core.Distance, rng *rand.Rand) core.Distance {
	if lo == core.NoLimit || lo >= hi {
		return lo
	}
	return lo + core.Distance(rng.Int63n(hi-lo+1))
}

// TotalValue sums the committed values of all objects. Because writes
// may be dirty, the sum uses the shadow value for dirty objects; it is
// used by tests and examples to compute the consistent ground truth.
//
// Consistency contract: the object set is fixed at entry (snapshot under
// the store lock), then each object is read under its own lock, so every
// addend is a committed value — but the addends are not from one global
// instant. For zero-sum workloads (the soak's bank) the total is still
// exact once the system is quiescent; concurrent non-zero-sum commits
// can make the sum transiently unequal to any single serial state.
func (s *Store) TotalValue() core.Value {
	var total core.Value
	for _, o := range s.objectsSnapshot() {
		o.Lock()
		total += o.CommittedValue()
		o.Unlock()
	}
	return total
}
