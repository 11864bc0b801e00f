// Package replica implements epsilon-aware read replicas: a follower
// store fed by the primary's WAL subscription stream (internal/wal.Tail
// over the wire protocol's replication frames), and a query-only engine
// that serves reads from the bounded-stale follower while charging the
// replication lag against the transaction's import limit.
//
// The correctness argument is the paper's own: a replica read is just an
// ESR case-1 relaxation — the query views committed data that is not its
// proper version — so the divergence between the value served and the
// freshest value the follower knows the primary has committed is metered
// and admitted against the OIL/TIL hierarchy exactly like a late read on
// the primary. Queries with TIL 0 admit no inconsistency and are
// rejected with a typed redirect so the router falls through to the
// primary; update ETs never run here at all.
package replica

import (
	"fmt"
	"sync"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/wal"
)

// Follower is the replica's data plane: a store rebuilt from the
// primary's WAL, the LSN frontier it has applied, and the buffer of
// records received but not yet applied (normally empty; the Hold/Release
// hooks let tests freeze application to create controlled lag).
type Follower struct {
	mu  sync.Mutex
	cfg storage.Config

	store   *storage.Store
	applied uint64 // LSN of the last record applied to store
	head    uint64 // primary's log head, from the last feed batch

	// pending holds received-but-unapplied records in LSN order. It is
	// only nonempty while held: the feed normally applies on ingest.
	pending []wal.Record
	held    bool

	// batches counts feed deliveries, for observability and tests.
	batches int64
}

// NewFollower returns an empty follower whose store uses cfg (history
// depth must match the primary's for proper-value lookups to agree).
func NewFollower(cfg storage.Config) *Follower {
	return &Follower{cfg: cfg, store: storage.NewStore(cfg)}
}

// Store returns the follower's current store. The pointer changes when a
// snapshot bootstrap replaces the store wholesale; callers that need a
// consistent view use the Follower's methods instead of caching it.
func (f *Follower) Store() *storage.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.store
}

// AppliedLSN returns the LSN of the last applied record.
func (f *Follower) AppliedLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// HeadLSN returns the primary's log head as of the last feed batch.
func (f *Follower) HeadLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.head
}

// Lag returns how many committed records the follower has yet to apply,
// measured against the primary head it last heard of.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.head <= f.applied {
		return 0
	}
	return f.head - f.applied
}

// Batches returns the number of feed deliveries ingested.
func (f *Follower) Batches() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches
}

// Hold freezes application: subsequently ingested records buffer as
// pending instead of applying. Test hook for constructing exact lag.
func (f *Follower) Hold() {
	f.mu.Lock()
	f.held = true
	f.mu.Unlock()
}

// Release applies up to n buffered records (all of them when n < 0) and,
// when the buffer drains completely, resumes normal apply-on-ingest.
func (f *Follower) Release(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; len(f.pending) > 0 && (n < 0 || i < n); i++ {
		if err := f.applyLocked(f.pending[0]); err != nil {
			return err
		}
		f.pending = f.pending[1:]
	}
	if len(f.pending) == 0 {
		f.held = false
	}
	return nil
}

// Bootstrap replaces the follower's state with a primary snapshot image
// captured at lsn: a fresh store is rebuilt from the state and the
// applied frontier jumps to lsn. Any buffered records are discarded —
// the snapshot already covers them.
func (f *Follower) Bootstrap(st *storage.StoreState, lsn uint64) error {
	store := storage.NewStore(f.cfg)
	for _, os := range st.Objects {
		if err := store.RestoreObject(os); err != nil {
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
	}
	store.RestoreCommittedInconsistency(st.Imported, st.Exported)
	f.mu.Lock()
	f.store = store
	f.applied = lsn
	if lsn > f.head {
		f.head = lsn
	}
	f.pending = nil
	f.mu.Unlock()
	return nil
}

// Ingest decodes one feed batch (raw WAL frames) and applies its records
// in LSN order, buffering instead when held. head is the primary's log
// head at delivery time. Records at or below the applied frontier are
// duplicates from a reconnect overlap and are skipped; a gap above the
// frontier is a protocol error — the caller should drop the connection
// and resubscribe.
func (f *Follower) Ingest(frames []byte, head uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches++
	if head > f.head {
		f.head = head
	}
	next := f.frontierLocked()
	err := wal.DecodeFrames(frames, func(rec Record) error {
		if rec.LSN <= next {
			return nil // reconnect overlap
		}
		if rec.LSN != next+1 {
			return fmt.Errorf("replica: feed gap: have %d, got %d", next, rec.LSN)
		}
		next = rec.LSN
		if f.held {
			f.pending = append(f.pending, rec)
			return nil
		}
		return f.applyLocked(rec)
	})
	if err != nil {
		return err
	}
	return nil
}

// Record aliases wal.Record for the Ingest callback signature.
type Record = wal.Record

// frontierLocked is the highest LSN received (applied or buffered).
func (f *Follower) frontierLocked() uint64 {
	if n := len(f.pending); n > 0 {
		return f.pending[n-1].LSN
	}
	return f.applied
}

// applyLocked applies one record to the store and advances the frontier.
func (f *Follower) applyLocked(rec wal.Record) error {
	if err := wal.ApplyRecord(f.store, rec); err != nil {
		return fmt.Errorf("replica: apply lsn %d: %w", rec.LSN, err)
	}
	f.applied = rec.LSN
	if rec.LSN > f.head {
		f.head = rec.LSN
	}
	return nil
}

// View is the follower's answer to one query read: the committed value
// served, its version timestamp, the object's import limit, and the lag
// distance the reader must charge against its import hierarchy.
type View struct {
	Value core.Value
	TS    tsgen.Timestamp
	OIL   core.Distance
	// Charge is the metered staleness: zero when the served value is the
	// query's proper version as far as the follower can prove.
	Charge core.Distance
}

// ReadView serves one query read from the follower. The staleness charge
// is computed against the freshest evidence of divergence the follower
// holds: a buffered (received-but-unapplied) write of the object with a
// timestamp at or before the query's shows exactly what the primary
// committed that this store has not applied, so the charge is the
// distance to that value. With nothing buffered, a query older than the
// last applied write is charged like a primary case-1 late read — the
// distance to its proper version in the local history.
func (f *Follower) ReadView(obj core.ObjectID, queryTS tsgen.Timestamp) (View, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	o, err := f.store.Get(obj)
	if err != nil {
		return View{}, err
	}
	o.Lock()
	// The follower's store only ever sees committed applies, so the
	// present value is the committed value and never dirty.
	v := View{Value: o.CommittedValue(), TS: o.CommittedTS(), OIL: o.OIL()}
	switch {
	case queryTS.After(v.TS):
		if pv, ok := f.pendingWriteLocked(obj, queryTS); ok {
			v.Charge = core.Dist(v.Value, pv)
		}
	case queryTS == v.TS:
		// The last applied write is the query's own proper version.
	default:
		proper, exact := o.FindProper(queryTS)
		if !exact {
			// The proper version fell out of the K-deep history, as on
			// the primary's case-1 path; the charge is against the
			// oldest retained version.
			f.store.NotedProperMiss()
		}
		v.Charge = core.Dist(v.Value, proper)
	}
	o.Unlock()
	return v, nil
}

// pendingWriteLocked returns the value of the latest buffered write of
// obj with a timestamp at or before queryTS, if any.
func (f *Follower) pendingWriteLocked(obj core.ObjectID, queryTS tsgen.Timestamp) (core.Value, bool) {
	var val core.Value
	var ts tsgen.Timestamp
	found := false
	for _, rec := range f.pending {
		if rec.Type != wal.RecordCommit {
			continue
		}
		for _, w := range rec.Commit.Writes {
			if w.Object != obj || w.TS.After(queryTS) {
				continue
			}
			if !found || w.TS.After(ts) {
				val, ts, found = w.Value, w.TS, true
			}
		}
	}
	return val, found
}
