package storage

import (
	"fmt"
	"sort"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// This file is the storage side of the durability layer (DESIGN.md §10):
// the interface the engines log through, the record types the write-ahead
// log persists, and the capture/restore API snapshots and replay use. The
// wal package implements Durability; a nil Durability keeps every commit
// path exactly as allocation-free as before.

// CommittedWrite is one object mutation inside a committed transaction,
// as carried by a commit log record and reapplied on replay.
type CommittedWrite struct {
	Object core.ObjectID
	Value  core.Value
	TS     tsgen.Timestamp
}

// TxnCommit is the durable payload of one commit: the write set plus the
// transaction's final accumulated import/export inconsistency, so replay
// rebuilds the epsilon accounting exactly, not just the data.
//
// A commit with no writes and zero imported/exported is read-only: it
// changes nothing replay rebuilds, so the log appends no record for it
// and only waits until ReadHorizon is durable.
type TxnCommit struct {
	Txn      core.TxnID
	Kind     core.Kind
	TS       tsgen.Timestamp
	Imported core.Distance
	Exported core.Distance
	Writes   []CommittedWrite

	// LSN is the log position assigned to the record. The durability
	// layer sets it before running publish, so publish can stamp it on the
	// versions it makes visible (Object.SetCommitLSN). It stays zero for a
	// read-only commit, which consumes no LSN.
	LSN uint64
	// ReadHorizon bounds what a read-only commit waits for. It is not
	// persisted.
	ReadHorizon ReadHorizon
}

// ReadOnly reports whether the commit changes no durable state: no
// writes and no inconsistency to fold into the replayed accounting.
func (c *TxnCommit) ReadOnly() bool {
	return len(c.Writes) == 0 && c.Imported == 0 && c.Exported == 0
}

// ReadHorizon is the highest commit LSN among the versions a transaction
// read. A read-only commit is acknowledged once that LSN is durable.
//
// The zero value means unknown: the commit then waits for everything
// appended so far, which covers every version it could have read. A
// commit that cannot name its horizon gets that barrier, never a free
// pass.
type ReadHorizon struct {
	// LSN is the highest Object.CommitLSN among the versions read. It is
	// zero when every version read predates the log (recovered from it,
	// or created durably), which leaves nothing to wait for.
	LSN uint64
	// Known reports that LSN covers every version read. A read of
	// uncommitted data clears it, since that version has no LSN yet.
	Known bool
}

// Fold widens the horizon to cover a committed version stamped lsn.
func (h *ReadHorizon) Fold(lsn uint64) {
	if lsn > h.LSN {
		h.LSN = lsn
	}
}

// Ack is the durability ticket a logged commit waits on: Wait blocks
// until the record's batch has been fsynced (group commit) and returns
// the sync error, if any.
type Ack interface {
	Wait() error
}

// Durability is the logging interface the commit paths call. The
// contract that makes recovery exact:
//
//   - LogCommit appends the record AND runs publish (which makes the
//     writes visible in the store) atomically with respect to other log
//     appends and snapshot captures. Log order therefore respects the
//     dependency order between transactions, and a snapshot captured by
//     the implementation sees exactly the commits of a log prefix.
//   - LogCreate runs apply under the same exclusion before appending;
//     if apply fails no record is written.
//   - LogSetAllLimits likewise serializes the limit change with the log.
//
// Implementations must be safe for concurrent use. The wal package is
// the production implementation; tests may substitute their own.
type Durability interface {
	LogCommit(rec *TxnCommit, publish func()) (Ack, error)
	LogCreate(id core.ObjectID, initial core.Value, oil, oel core.Distance, apply func() error) error
	LogSetAllLimits(oil, oel core.Distance, apply func()) error
}

// SetDurability installs the durability implementation object creation
// and limit sweeps log through. It must be called before the store is
// shared between goroutines (at recovery/boot time); nil disables
// logging.
func (s *Store) SetDurability(d Durability) { s.dur = d }

// AddCommittedInconsistency accumulates the import/export inconsistency
// of one committed transaction into the store's running totals — the
// epsilon accounting that snapshots persist and replay rebuilds. With
// durability enabled the engines call this from inside the publish
// callback so the totals stay prefix-consistent with the log.
func (s *Store) AddCommittedInconsistency(imported, exported core.Distance) {
	if imported != 0 {
		s.accImported.Add(int64(imported))
	}
	if exported != 0 {
		s.accExported.Add(int64(exported))
	}
}

// CommittedInconsistency returns the accumulated import/export
// inconsistency of all committed transactions.
func (s *Store) CommittedInconsistency() (imported, exported core.Distance) {
	return core.Distance(s.accImported.Load()), core.Distance(s.accExported.Load())
}

// RestoreCommittedInconsistency overwrites the accumulated totals; used
// by recovery before replaying the log tail.
func (s *Store) RestoreCommittedInconsistency(imported, exported core.Distance) {
	s.accImported.Store(int64(imported))
	s.accExported.Store(int64(exported))
}

// ApplyCommitted installs a committed write directly: value, write
// timestamp and history entry, with no dirty/shadow transition. Replay
// uses it to reapply logged commits. It fails if the object is missing
// or has an uncommitted write pending (replay stores are never dirty).
func (s *Store) ApplyCommitted(id core.ObjectID, v core.Value, ts tsgen.Timestamp) error {
	o, err := s.Get(id)
	if err != nil {
		return err
	}
	o.Lock()
	defer o.Unlock()
	if o.dirty {
		return fmt.Errorf("storage: ApplyCommitted on object %d with uncommitted write by txn %d", id, o.dirtyOwner)
	}
	o.value = v
	o.writeTS = ts
	o.appendHistory(versioned{ts: ts, value: v})
	return nil
}

// HistEntry is one committed write in an object's bounded history, in
// commit order (oldest first), as exposed to snapshots and tests.
type HistEntry struct {
	TS    tsgen.Timestamp
	Value core.Value
}

// ObjectState is the durable state of one object: committed value and
// timestamp, limits, and the full bounded history ring in commit order.
type ObjectState struct {
	ID      core.ObjectID
	Value   core.Value
	WriteTS tsgen.Timestamp
	OIL     core.Distance
	OEL     core.Distance
	History []HistEntry
}

// StoreState is a consistent snapshot of the whole store: every object's
// durable state plus the accumulated epsilon accounting.
type StoreState struct {
	Imported core.Distance
	Exported core.Distance
	Objects  []ObjectState
}

// CaptureState copies the committed state of every object, in id order.
// Uncommitted writes are excluded (the shadow value is captured): their
// commit records, if any, carry a later log position than the capture
// point. The wal package calls this under its own mutex so the capture
// is exactly consistent with a log prefix; see Durability.
func (s *Store) CaptureState() *StoreState {
	imported, exported := s.CommittedInconsistency()
	st := &StoreState{Imported: imported, Exported: exported}
	objs := s.objectsSnapshot()
	sort.Slice(objs, func(i, j int) bool { return objs[i].id < objs[j].id })
	st.Objects = make([]ObjectState, 0, len(objs))
	for _, o := range objs {
		o.Lock()
		os := ObjectState{
			ID:      o.id,
			Value:   o.CommittedValue(),
			WriteTS: o.CommittedTS(),
			OIL:     o.oil,
			OEL:     o.oel,
			History: o.historyEntries(),
		}
		o.Unlock()
		st.Objects = append(st.Objects, os)
	}
	return st
}

// RestoreObject installs one snapshotted object into the store. It is
// used only during recovery, before the store is shared; a duplicate id
// is a corruption error.
func (s *Store) RestoreObject(st ObjectState) error {
	depth := s.cfg.HistoryDepth
	if depth <= 0 {
		depth = DefaultHistoryDepth
	}
	o := NewObject(st.ID, st.Value, st.OIL, st.OEL, depth)
	o.writeTS = st.WriteTS
	hist := st.History
	if len(hist) > depth {
		hist = hist[len(hist)-depth:]
	}
	o.history = o.history[:0]
	o.historyHead = 0
	for _, h := range hist {
		o.history = append(o.history, versioned{ts: h.TS, value: h.Value})
	}
	if len(o.history) == 0 {
		// A snapshot always carries at least the seed entry; tolerate an
		// empty one by reseeding from the restored value.
		o.history = append(o.history, versioned{ts: st.WriteTS, value: st.Value})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objects[st.ID]; dup {
		return fmt.Errorf("storage: RestoreObject: object %d already exists", st.ID)
	}
	s.objects[st.ID] = o
	return nil
}

// historyEntries copies the ring in commit order. Requires the lock.
func (o *Object) historyEntries() []HistEntry {
	n := len(o.history)
	out := make([]HistEntry, 0, n)
	for i := 0; i < n; i++ {
		e := o.history[(o.historyHead+i)%n]
		out = append(out, HistEntry{TS: e.ts, Value: e.value})
	}
	return out
}

// HistoryEntries returns a copy of the committed-write history in commit
// order (oldest first). It takes the object lock itself; used by tests
// and recovery checks.
func (o *Object) HistoryEntries() []HistEntry {
	o.Lock()
	defer o.Unlock()
	return o.historyEntries()
}
