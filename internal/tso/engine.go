// Package tso implements the paper's concurrency control: timestamp
// ordering extended with the three epsilon-serializability relaxations of
// Figure 3, strict ordering via a wait-based protocol, and abort with
// immediate restart for late operations.
//
// Under classic timestamp ordering an operation is rejected when it
// arrives out of timestamp order. The ESR enhancements give three such
// operations a second chance, provided the inconsistency they would view
// or export fits within the object-level and hierarchical/transaction-
// level bounds:
//
//  1. a query read that views committed data written after the query's
//     timestamp (late read of committed data),
//  2. a query read that views uncommitted data of a concurrent update,
//  3. an update write arriving older than the object's last query read.
//
// Reads from update ETs are never relaxed: their writes depend on them,
// so they must stay consistent (§3.2.1). Setting every bound to zero
// makes the engine behave exactly like strict timestamp ordering — that
// configuration is the paper's SR baseline.
//
// Deadlock freedom: an operation only ever waits for the resolution of an
// uncommitted write with an older timestamp (younger waits for older), so
// the waits-for relation follows timestamp order and cannot form a cycle.
// A configurable timeout remains as a safety valve.
package tso

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/txnshard"
)

// DefaultWaitTimeout bounds strict-ordering waits. Timestamp ordering
// cannot deadlock, so the timeout only guards against lost wakeups from
// bugs or stalled clients holding uncommitted writes.
const DefaultWaitTimeout = 5 * time.Second

// Options configures an Engine.
type Options struct {
	// Schema is the hierarchical grouping of objects; nil means the flat
	// two-level schema of the paper's performance tests.
	Schema *core.Schema
	// Collector receives performance counters; nil drops them.
	Collector *metrics.Collector
	// Tracer receives execution events; nil disables tracing.
	Tracer Tracer
	// WaitTimeout bounds strict-ordering waits; zero means
	// DefaultWaitTimeout, negative means wait forever.
	WaitTimeout time.Duration
	// AbortOnProperMiss aborts query reads whose proper value has been
	// evicted from the bounded write history. The default (false)
	// follows the prototype: use the oldest retained value and count the
	// miss in the store.
	AbortOnProperMiss bool
	// Parker integrates strict-ordering waits with a simulated timeline
	// (vclock): the waiter suspends the timeline while blocked and the
	// committing transaction's broadcast credits it back before waking
	// it. When set, waits have no timeout — timestamp ordering cannot
	// deadlock, and a virtual timeline must never be held back by a
	// wall-clock timer.
	Parker Parker
	// Now drives the per-operation latency histograms and trace event
	// timestamps: it returns elapsed time on whatever timeline the
	// engine runs on. Nil means the wall clock since engine creation;
	// deterministic harnesses pass the vclock timeline's Now so virtual
	// runs still yield real latency distributions.
	Now func() time.Duration
	// Durability, when set, logs every commit (write set + final
	// inconsistency) through the write-ahead log before Commit returns;
	// the record append and the publication of the writes happen
	// atomically so log order matches dependency order. Nil keeps the
	// purely in-memory, allocation-free commit path.
	Durability storage.Durability
}

// Parker marks a goroutine as blocked/runnable on an external timeline;
// vclock.Timeline satisfies it.
type Parker interface {
	Suspend()
	Resume()
}

// Engine executes epsilon transactions against a storage.Store under
// timestamp-ordered ESR. All methods are safe for concurrent use; each
// transaction's operations must be submitted sequentially (the prototype
// clients are synchronous, §6).
type Engine struct {
	store *storage.Store
	opts  Options

	nextTxn atomic.Uint64

	// txns is the live-transaction table, sharded by transaction id so
	// Begin/lookup/remove from concurrent connections do not serialize
	// on one engine-wide lock (DESIGN.md §8).
	txns *txnshard.Map[*txnState]
	// dirtyReaders maps an update attempt to the number of query
	// attempts that read its uncommitted data, to count the §5.1 corner
	// where such an update later aborts. Sharded alongside txns: the
	// increment on every dirty read is hot-path work.
	dirtyReaders *txnshard.Map[int]
}

// txnState is the transaction manager's record of one attempt. Fields are
// owned by the submitting goroutine except where noted.
type txnState struct {
	id   core.TxnID
	kind core.Kind
	ts   tsgen.Timestamp
	// rootLimit is the spec's transaction-level bound (TIL for queries,
	// TEL for updates), kept for trace events so the offline checker can
	// certify the committed total against it.
	rootLimit core.Distance
	// acc is embedded by value (and initialized in place) so one
	// allocation covers the attempt record and its bounds machinery.
	acc core.Accumulator
	// esr is true when the attempt may take ESR relaxation paths: a
	// query with a nonzero import limit or an update with a nonzero
	// export limit. Zero-limit attempts run the textbook strict-TO rules
	// even for operations whose metered inconsistency happens to be
	// zero, so the paper's zero-epsilon baseline is exactly SR.
	esr bool
	// reads are the objects carrying this attempt's reader entries.
	reads []*storage.Object
	// horizon covers every committed version the attempt read, so a
	// durable read-only commit waits exactly until those are durable.
	horizon storage.ReadHorizon
	// writes are the objects carrying this attempt's pending writes.
	writes []*storage.Object
	// opsExecuted counts successfully executed operations, which become
	// wasted work if the attempt aborts.
	opsExecuted int64
}

// NewEngine returns an engine over the given store.
func NewEngine(store *storage.Store, opts Options) *Engine {
	if opts.WaitTimeout == 0 {
		opts.WaitTimeout = DefaultWaitTimeout
	}
	if opts.Now == nil {
		start := time.Now()
		opts.Now = func() time.Duration { return time.Since(start) }
	}
	return &Engine{
		store:        store,
		opts:         opts,
		txns:         txnshard.New[*txnState](),
		dirtyReaders: txnshard.New[int](),
	}
}

// Store returns the engine's object store.
func (e *Engine) Store() *storage.Store { return e.store }

// MetricsSnapshot reads the engine's collector; without a collector it
// returns zeros.
func (e *Engine) MetricsSnapshot() metrics.Snapshot { return e.opts.Collector.Snapshot() }

// LatencySnapshot reads the engine's per-path latency histograms;
// without a collector it returns empties.
func (e *Engine) LatencySnapshot() metrics.LatencySet {
	return e.opts.Collector.LatencySnapshot()
}

// Schema returns the engine's schema (the flat schema if none was set).
func (e *Engine) Schema() *core.Schema { return e.opts.Schema }

// Live returns the number of transaction attempts currently in the live
// table — begun but neither committed nor aborted. A nonzero value at
// quiescence indicates leaked transactions.
func (e *Engine) Live() int { return e.txns.Len() }

// Begin starts a transaction attempt with the given kind, timestamp and
// inconsistency specification, returning its id. Timestamps must be
// unique across attempts (tsgen guarantees this); the specification is
// compiled against the engine's schema, so unknown group names fail here.
func (e *Engine) Begin(kind core.Kind, ts tsgen.Timestamp, spec core.BoundSpec) (core.TxnID, error) {
	if kind != core.Query && kind != core.Update {
		return 0, fmt.Errorf("tso: invalid transaction kind %d", kind)
	}
	if ts.IsNone() {
		return 0, fmt.Errorf("tso: transaction timestamp must be non-zero")
	}
	st := &txnState{
		id:        core.TxnID(e.nextTxn.Add(1)),
		kind:      kind,
		ts:        ts,
		rootLimit: spec.Transaction,
		esr:       spec.Transaction > 0,
		horizon:   storage.ReadHorizon{Known: true},
	}
	if err := st.acc.Init(e.opts.Schema, spec, kind == core.Query); err != nil {
		return 0, err
	}
	e.txns.Store(st.id, st)
	e.opts.Collector.Begin()
	e.trace(Event{Kind: EvBegin, Txn: st.id, TxnKind: kind, TS: ts, Limit: spec.Transaction})
	return st.id, nil
}

// lookup returns the live state for a transaction id.
func (e *Engine) lookup(txn core.TxnID) (*txnState, error) {
	st, ok := e.txns.Load(txn)
	if !ok {
		return nil, ErrUnknownTxn
	}
	return st, nil
}

// remove deletes the attempt from the live table; it returns false if the
// attempt was already finished (double commit/abort). The shard's
// atomic check-and-delete is the double-finish guard.
func (e *Engine) remove(txn core.TxnID) (*txnState, bool) {
	return e.txns.Delete(txn)
}

// Commit finishes an attempt successfully: pending writes are published
// into the committed history, reader entries are withdrawn, and waiters
// are woken.
//
// With durability enabled the commit record (write set + the attempt's
// final imported/exported inconsistency) is appended to the log and the
// writes published under the log's mutex, then Commit waits for the
// group-commit fsync after all object locks are released. A log append
// failure still publishes — in-memory waiters must not strand — but the
// caller gets a *DurabilityError: committed, not durable. A read-only
// commit appends nothing and waits only until the versions it read are
// durable (storage.ReadHorizon).
func (e *Engine) Commit(txn core.TxnID) error {
	start := e.opts.Now()
	st, ok := e.remove(txn)
	if !ok {
		return ErrUnknownTxn
	}
	var imported, exported core.Distance
	total := st.acc.Total()
	if total != 0 {
		if st.kind == core.Query {
			imported = total
		} else {
			exported = total
		}
	}
	var durAck storage.Ack
	var durErr error
	if d := e.opts.Durability; d != nil {
		rec := &storage.TxnCommit{Txn: st.id, Kind: st.kind, TS: st.ts, Imported: imported, Exported: exported,
			ReadHorizon: st.horizon}
		if len(st.writes) > 0 {
			rec.Writes = make([]storage.CommittedWrite, 0, len(st.writes))
			for _, o := range st.writes {
				o.Lock()
				if owner, dirty := o.Dirty(); dirty && owner == st.id {
					rec.Writes = append(rec.Writes, storage.CommittedWrite{
						Object: o.ID(), Value: o.Value(), TS: o.WriteTS(),
					})
				}
				o.Unlock()
			}
		}
		durAck, durErr = d.LogCommit(rec, func() { e.publishCommit(st, rec.LSN, imported, exported) })
		if durErr != nil {
			e.publishCommit(st, 0, imported, exported)
		}
	} else {
		e.publishCommit(st, 0, imported, exported)
	}
	for _, o := range st.reads {
		o.Lock()
		o.RemoveReader(st.id)
		o.Unlock()
	}
	e.clearDirtyNote(st.id, false)
	e.opts.Collector.Commit()
	e.opts.Collector.ObserveLatency(metrics.LatCommit, e.opts.Now()-start)
	e.trace(Event{Kind: EvCommit, Txn: st.id, TxnKind: st.kind, TS: st.ts,
		Inconsistency: total, Limit: st.rootLimit})
	if durErr == nil && durAck != nil {
		durErr = durAck.Wait()
	}
	if durErr != nil {
		return &DurabilityError{Txn: st.id, Err: durErr}
	}
	return nil
}

// publishCommit makes the attempt's writes visible, stamped with the
// commit record's lsn, and folds its final inconsistency into the
// store's accumulated totals. With durability on it runs inside the
// log's append mutex (see Durability), so snapshots capture totals
// prefix-consistent with the log.
func (e *Engine) publishCommit(st *txnState, lsn uint64, imported, exported core.Distance) {
	for _, o := range st.writes {
		o.Lock()
		o.CommitWrite(st.id)
		o.SetCommitLSN(lsn)
		o.Unlock()
	}
	e.store.AddCommittedInconsistency(imported, exported)
}

// Abort finishes an attempt unsuccessfully at the client's request:
// pending writes are restored from their shadow values and reader entries
// withdrawn. Engine-initiated aborts (late operations, violated bounds)
// happen internally and are reported through AbortError instead.
func (e *Engine) Abort(txn core.TxnID) error {
	st, ok := e.remove(txn)
	if !ok {
		return ErrUnknownTxn
	}
	e.finishAbort(st, metrics.AbortExplicit, nil)
	return nil
}

// abortNow aborts the attempt internally and builds the AbortError the
// failed operation returns. No object locks may be held by the caller.
//
// When remove reports the attempt already finished — a concurrent
// client-requested Abort raced with this operation and released the
// footprint first — only the error is built: re-running finishAbort on
// the stale state would re-release objects another attempt may already
// own and double-count the abort.
func (e *Engine) abortNow(st *txnState, reason metrics.AbortReason, cause error) *AbortError {
	if removed, ok := e.remove(st.id); ok {
		e.finishAbort(removed, reason, cause)
	}
	return &AbortError{Txn: st.id, Reason: reason, Err: cause}
}

// finishAbort releases an attempt's footprint and records metrics.
func (e *Engine) finishAbort(st *txnState, reason metrics.AbortReason, cause error) {
	for _, o := range st.writes {
		o.Lock()
		o.AbortWrite(st.id)
		o.Unlock()
	}
	for _, o := range st.reads {
		o.Lock()
		o.RemoveReader(st.id)
		o.Unlock()
	}
	e.clearDirtyNote(st.id, true)
	e.opts.Collector.Abort(reason, st.opsExecuted)
	_ = cause
	e.trace(Event{Kind: EvAbort, Txn: st.id, TxnKind: st.kind, TS: st.ts})
}

// noteDirtyRead records that reader consumed writer's uncommitted data.
func (e *Engine) noteDirtyRead(writer core.TxnID) {
	e.dirtyReaders.Mutate(writer, func(n int, _ bool) (int, bool) { return n + 1, true })
}

// clearDirtyNote drops the dirty-read bookkeeping for a finished writer;
// if the writer aborted while queries had read its uncommitted data, the
// occurrences are counted (§5.1: the paper accepts this risk).
func (e *Engine) clearDirtyNote(writer core.TxnID, aborted bool) {
	n, _ := e.dirtyReaders.Delete(writer)
	if aborted {
		e.opts.Collector.AddDirtySourceAborted(int64(n))
	}
}

// trace emits an event if a tracer is installed, stamping it with the
// engine's timeline.
func (e *Engine) trace(ev Event) {
	if e.opts.Tracer != nil {
		ev.At = e.opts.Now()
		e.opts.Tracer.Trace(ev)
	}
}

// waitForResolve blocks until the object's pending write resolves or the
// timeout fires. The caller must hold the object's lock; the lock is
// released while waiting and re-acquired before returning.
func (e *Engine) waitForResolve(o *storage.Object) error {
	ch := o.Changed()
	start := e.opts.Now()
	if p := e.opts.Parker; p != nil {
		// Timeline-integrated wait: suspend while blocked; the
		// broadcast credits us back before closing the channel.
		o.SetWaker(e.wakeCredit)
		o.IncParked()
		o.Unlock()
		e.opts.Collector.Waited()
		p.Suspend()
		<-ch
		e.opts.Collector.ObserveLatency(metrics.LatWait, e.opts.Now()-start)
		o.Lock()
		return nil
	}
	o.Unlock()
	e.opts.Collector.Waited()
	defer func() {
		e.opts.Collector.ObserveLatency(metrics.LatWait, e.opts.Now()-start)
		o.Lock()
	}()
	if e.opts.WaitTimeout < 0 {
		<-ch
		return nil
	}
	timer := time.NewTimer(e.opts.WaitTimeout)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-timer.C:
		return errWaitTimeout
	}
}

// wakeCredit re-credits n parked waiters on the timeline.
func (e *Engine) wakeCredit(n int) {
	for i := 0; i < n; i++ {
		e.opts.Parker.Resume()
	}
}
