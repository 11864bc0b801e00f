// Package storage implements the data manager's object table: in-memory
// objects carrying their current value, per-object inconsistency limits
// (OIL/OEL), the bounded history of committed writes used to locate an
// object's proper value, the shadow value used for abort restoration, and
// the list of uncommitted query readers used by the export check.
//
// The paper's prototype kept the database in main memory on the server,
// simulated writes by changing the value in memory, used shadow paging so
// aborts restore previous values without rollback logs, and stored "the
// values of the last 20 writes on each object with the corresponding
// time stamps" to find proper values (§5.1, §6). This package reproduces
// all of that.
//
// Locking discipline: every Object embeds its own mutex. The concurrency
// control engine (internal/tso) locks an object, runs its decision logic
// via the methods below — all of which require the lock to be held — and
// unlocks it. Waiting for an uncommitted write to resolve uses the
// object's broadcast channel (see Object.Changed) rather than a
// condition variable so that waits can carry timeouts.
package storage

import (
	"fmt"
	"sync"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// DefaultHistoryDepth is the number of committed writes remembered per
// object. The paper derived 20 empirically by dividing the average
// duration of query ETs by that of update ETs.
const DefaultHistoryDepth = 20

// versioned is one committed write: the value it installed and the
// timestamp of the writing transaction.
type versioned struct {
	ts    tsgen.Timestamp
	value core.Value
}

// readerEntry records an uncommitted query ET that has read this object,
// together with the proper value of the object with respect to that query
// (§5.2: "for each object x, we maintain a list of uncommitted query ETs
// which have read its value, along with the respective proper values").
type readerEntry struct {
	txn    core.TxnID
	proper core.Value
}

// Object is one database object. All methods except ID and Lock/Unlock
// require the object's lock to be held by the caller.
type Object struct {
	mu sync.Mutex

	id core.ObjectID

	// oil and oel are the server-side object inconsistency limits,
	// randomly generated within a configured range in the paper's tests.
	oil core.Distance
	oel core.Distance

	// value is the present value — current, possibly uncommitted.
	value core.Value

	// writeTS is the timestamp of the write that produced value.
	writeTS tsgen.Timestamp

	// commitLSN is the log position of the record that committed the
	// committed version: zero when that version predates the log, and
	// lsnPending while the object's durable creation is in flight.
	// Readers fold it into their ReadHorizon.
	commitLSN uint64

	// dirty marks an uncommitted write; dirtyOwner is its transaction.
	dirty      bool
	dirtyOwner core.TxnID

	// shadow and shadowTS save the pre-write state while dirty, the
	// shadow-paging technique of §6: on abort the object is restored
	// instead of rolled back from a log.
	shadow   core.Value
	shadowTS tsgen.Timestamp

	// history is a ring of the last historyDepth committed writes in
	// commit order; head indexes the oldest entry.
	history      []versioned
	historyHead  int
	historyDepth int

	// maxQueryReadTS / maxUpdateReadTS are the largest timestamps of
	// successful reads by query and update ETs respectively. The split
	// implements the case-3 condition "the last read was from a query
	// ET": a write older than an update read is a hard conflict, a write
	// older than only query reads may proceed under ESR. Zero-epsilon
	// query reads count as update reads (see RecordRead).
	maxQueryReadTS  tsgen.Timestamp
	maxUpdateReadTS tsgen.Timestamp

	// readers lists uncommitted query ETs that read this object with
	// their proper values.
	readers map[core.TxnID]readerEntry

	// changed is closed and replaced whenever the dirty state resolves,
	// waking operations blocked by strict ordering. observed records
	// whether the current channel was handed to a waiter: broadcast only
	// pays the close-and-replace when someone may be selecting on it, so
	// uncontended commits do not allocate a channel per write.
	changed  chan struct{}
	observed bool

	// parked counts waiters that suspended a virtual timeline before
	// blocking on changed; waker credits them as runnable again, before
	// the channel closes, so simulated time cannot run ahead of a woken
	// waiter.
	parked int
	waker  func(n int)
}

// NewObject creates an object with an initial value and object limits.
// The history is seeded with the initial value at the reserved "none"
// timestamp so that proper-value lookups older than every write resolve
// to the initial state.
func NewObject(id core.ObjectID, initial core.Value, oil, oel core.Distance, historyDepth int) *Object {
	if historyDepth <= 0 {
		historyDepth = DefaultHistoryDepth
	}
	o := &Object{
		id:           id,
		oil:          oil,
		oel:          oel,
		value:        initial,
		historyDepth: historyDepth,
		readers:      make(map[core.TxnID]readerEntry),
		changed:      make(chan struct{}),
	}
	o.history = append(o.history, versioned{ts: tsgen.None, value: initial})
	return o
}

// ID returns the object's identifier. It is immutable and may be read
// without the lock.
func (o *Object) ID() core.ObjectID { return o.id }

// Lock acquires the object's mutex.
func (o *Object) Lock() { o.mu.Lock() }

// Unlock releases the object's mutex.
func (o *Object) Unlock() { o.mu.Unlock() }

// Value returns the present value — the current instance of the object,
// which under ESR may be an uncommitted write (§5.1: "the value read is
// the value of the current instance of the object which is the present
// value").
func (o *Object) Value() core.Value { return o.value }

// CommittedValue returns the last committed value: the shadow value while
// an uncommitted write is pending, the present value otherwise. Update-ET
// reads older than a pending write return this value so they never block
// on a younger writer.
func (o *Object) CommittedValue() core.Value {
	if o.dirty {
		return o.shadow
	}
	return o.value
}

// CommittedTS returns the timestamp of the last committed write.
func (o *Object) CommittedTS() tsgen.Timestamp {
	if o.dirty {
		return o.shadowTS
	}
	return o.writeTS
}

// OIL returns the object import limit.
func (o *Object) OIL() core.Distance { return o.oil }

// OEL returns the object export limit.
func (o *Object) OEL() core.Distance { return o.oel }

// SetLimits installs new object limits; the experiment harness uses this
// to sweep OIL/OEL ranges between runs.
func (o *Object) SetLimits(oil, oel core.Distance) {
	o.oil = oil
	o.oel = oel
}

// CommitLSN returns the log position of the record that committed the
// committed version (see ReadHorizon).
func (o *Object) CommitLSN() uint64 { return o.commitLSN }

// SetCommitLSN stamps the committed version with the log position of its
// commit record. Engines call it right after CommitWrite, inside the
// durability publish callback, so a reader never sees the version
// without its stamp.
func (o *Object) SetCommitLSN(lsn uint64) { o.commitLSN = lsn }

// WriteTS returns the timestamp of the write that produced the present
// value (committed or dirty).
func (o *Object) WriteTS() tsgen.Timestamp { return o.writeTS }

// Dirty reports whether an uncommitted write is pending and by whom.
func (o *Object) Dirty() (core.TxnID, bool) { return o.dirtyOwner, o.dirty }

// MaxQueryReadTS returns the largest timestamp of a successful query read.
func (o *Object) MaxQueryReadTS() tsgen.Timestamp { return o.maxQueryReadTS }

// MaxUpdateReadTS returns the largest timestamp of a successful read by
// an update ET.
func (o *Object) MaxUpdateReadTS() tsgen.Timestamp { return o.maxUpdateReadTS }

// Changed returns a channel that is closed the next time the object's
// uncommitted state resolves (commit or abort of the writer). Callers
// capture the channel while holding the lock, release the lock, and then
// select on the channel and their timeout.
func (o *Object) Changed() <-chan struct{} {
	o.observed = true
	return o.changed
}

// broadcast wakes all waiters by closing and replacing the channel,
// crediting parked timeline waiters first. The channel is replaced only
// if it was ever observed; waiters fetch it under the same lock, so an
// unobserved channel has no one selecting on it.
func (o *Object) broadcast() {
	if o.parked > 0 && o.waker != nil {
		o.waker(o.parked)
	}
	o.parked = 0
	if o.observed {
		close(o.changed)
		o.changed = make(chan struct{})
		o.observed = false
	}
}

// IncParked records that the caller suspended its timeline and is about
// to block on Changed; the next broadcast credits it. Requires the lock.
func (o *Object) IncParked() { o.parked++ }

// SetWaker installs the credit callback invoked by broadcast with the
// number of parked waiters. Requires the lock; idempotent.
func (o *Object) SetWaker(f func(n int)) { o.waker = f }

// RecordRead registers a successful read at the given timestamp from a
// query or update ET, advancing the corresponding read-timestamp maximum.
// The engine passes fromQuery only for epsilon-enabled queries: a
// zero-epsilon query's read counts as an update read, since no write may
// relax it.
func (o *Object) RecordRead(ts tsgen.Timestamp, fromQuery bool) {
	if fromQuery {
		if ts.After(o.maxQueryReadTS) {
			o.maxQueryReadTS = ts
		}
	} else {
		if ts.After(o.maxUpdateReadTS) {
			o.maxUpdateReadTS = ts
		}
	}
}

// FindProper locates the proper value of the object for a query with the
// given begin timestamp: the value written by the last write with a
// timestamp older than the query (§5.1), found by indexing backwards
// through the bounded write history. The second result reports whether
// the lookup was exact; when the history has already evicted the needed
// entry, the oldest retained value is returned with exact=false and the
// caller decides the policy (the prototype sized the history so this
// practically never happened).
func (o *Object) FindProper(queryTS tsgen.Timestamp) (core.Value, bool) {
	n := len(o.history)
	for i := n - 1; i >= 0; i-- {
		e := o.history[(o.historyHead+i)%n]
		if e.ts.Before(queryTS) {
			return e.value, true
		}
	}
	oldest := o.history[o.historyHead]
	return oldest.value, false
}

// HistoryLen returns the number of committed writes currently retained.
func (o *Object) HistoryLen() int { return len(o.history) }

// BeginWrite installs an uncommitted write: the shadow state is saved and
// the present value replaced. The caller must have established that no
// other uncommitted write is pending (strict ordering).
func (o *Object) BeginWrite(txn core.TxnID, ts tsgen.Timestamp, v core.Value) error {
	if o.dirty {
		return fmt.Errorf("storage: object %d already has an uncommitted write by txn %d", o.id, o.dirtyOwner)
	}
	o.shadow = o.value
	o.shadowTS = o.writeTS
	o.value = v
	o.writeTS = ts
	o.dirty = true
	o.dirtyOwner = txn
	return nil
}

// CommitWrite publishes the pending write of the given transaction into
// the committed history and wakes waiters. It is a no-op if the
// transaction has no pending write here.
func (o *Object) CommitWrite(txn core.TxnID) {
	if !o.dirty || o.dirtyOwner != txn {
		return
	}
	o.appendHistory(versioned{ts: o.writeTS, value: o.value})
	o.dirty = false
	o.dirtyOwner = 0
	o.broadcast()
}

// AbortWrite discards the pending write of the given transaction,
// restoring the shadow state, and wakes waiters. It is a no-op if the
// transaction has no pending write here.
func (o *Object) AbortWrite(txn core.TxnID) {
	if !o.dirty || o.dirtyOwner != txn {
		return
	}
	o.value = o.shadow
	o.writeTS = o.shadowTS
	o.dirty = false
	o.dirtyOwner = 0
	o.broadcast()
}

// appendHistory pushes a committed write into the bounded ring.
func (o *Object) appendHistory(v versioned) {
	if len(o.history) < o.historyDepth {
		o.history = append(o.history, v)
		return
	}
	o.history[o.historyHead] = v
	o.historyHead = (o.historyHead + 1) % len(o.history)
}

// AddReader records an uncommitted query ET that read this object along
// with its proper value, for later export checks against writes.
func (o *Object) AddReader(txn core.TxnID, proper core.Value) {
	o.readers[txn] = readerEntry{txn: txn, proper: proper}
}

// RemoveReader drops a query ET from the reader list when it commits or
// aborts.
func (o *Object) RemoveReader(txn core.TxnID) {
	delete(o.readers, txn)
}

// NumReaders returns the number of uncommitted query readers.
func (o *Object) NumReaders() int { return len(o.readers) }

// ExportDistance returns the inconsistency a write of newValue would
// export: the maximum over the uncommitted query readers of the distance
// between the new value and that reader's proper value (§5.2 — the
// maximum, not the sum used by Wu et al., matching the one-read-per-
// object assumption). The second result is false when there are no
// concurrent query readers, in which case the write exports nothing.
func (o *Object) ExportDistance(newValue core.Value) (core.Distance, bool) {
	if len(o.readers) == 0 {
		return 0, false
	}
	var max core.Distance
	for _, r := range o.readers {
		d := core.Dist(newValue, r.proper)
		if d > max {
			max = d
		}
	}
	return max, true
}
