// Package mvto implements multi-version timestamp ordering, the scheme
// §5.1 explicitly contrasts with the prototype's bounded write history:
//
//	"It should be noted however that this is not the same as
//	multi-version timestamp ordering (MVTO). In the MVTO case,
//	timestamped versions are maintained so that if a read operation
//	arrives late, based on the versions, the value written by the last
//	write with a timestamp lesser than this read is returned."
//
// Under MVTO a late read never aborts — it is served the old version —
// whereas the paper's engine returns the *present* value and uses the
// history only to meter inconsistency. This package exists as an
// ablation comparator (esr-bench -fig cc): serializable like SR, but
// with multi-version reads instead of aborts.
//
// Rules implemented (Bernstein et al., ch. 5):
//
//   - read(T, x): return the version of x with the largest write
//     timestamp ≤ ts(T); record ts(T) as a read timestamp on that
//     version. If that version is uncommitted, wait for its outcome
//     (recoverability), integrating with the harness timeline.
//   - write(T, x): find the version v with the largest write timestamp
//     ≤ ts(T); if some transaction read v with a timestamp greater than
//     ts(T), the write would invalidate that read — abort T. Otherwise
//     install an uncommitted version at ts(T).
//   - commit/abort: mark or remove T's versions; waiters are woken with
//     timeline crediting.
//
// Versions are pruned to a bounded count per object.
package mvto

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/txnshard"
)

// AbortError mirrors tso.AbortError for the MVTO engine.
type AbortError = tso.AbortError

// DefaultMaxVersions bounds the retained committed versions per object.
const DefaultMaxVersions = 32

// version is one (possibly uncommitted) version of an object.
type version struct {
	wts       tsgen.Timestamp
	value     core.Value
	writer    core.TxnID
	committed bool
	// maxRead is the largest timestamp that read this version.
	maxRead tsgen.Timestamp
	// waiters are readers blocked on this version's outcome.
	waiters []*waiter
}

// waiter is one blocked reader.
type waiter struct {
	ch     chan struct{}
	parked bool
}

// object is the multi-version state of one object.
type object struct {
	id core.ObjectID
	mu sync.Mutex
	// versions are sorted by ascending write timestamp.
	versions []*version
}

// txnState is one attempt's footprint.
type txnState struct {
	id     core.TxnID
	ts     tsgen.Timestamp
	kind   core.Kind
	writes []*object
	ops    int64
}

// Engine is the MVTO engine; it satisfies the experiment harness's
// Engine interface.
type Engine struct {
	objects     map[core.ObjectID]*object
	col         *metrics.Collector
	parker      tso.Parker
	maxVersions int

	nextTxn atomic.Uint64
	// txns is sharded by transaction id so Begin/lookup/remove from
	// concurrent connections do not serialize on one engine-wide lock.
	txns *txnshard.Map[*txnState]

	// store and dur support durable commits: the engine's private version
	// chains are the read path, but logged commits are also applied to
	// the backing store so WAL snapshots and recovery see them.
	store *storage.Store
	dur   storage.Durability

	// tracer, when set, receives the same execution events the TO engine
	// emits (schema esr-trace/1), so recorded MVTO histories feed the
	// same offline checker. Limits are always zero: MVTO is a
	// serializable baseline and ignores bounds.
	tracer tso.Tracer
	// now stamps trace events; wall clock since engine creation.
	now func() time.Duration
}

// SetDurability routes commits through d. Call before serving traffic.
func (e *Engine) SetDurability(d storage.Durability) { e.dur = d }

// SetTracer installs a trace-event consumer. Call before serving traffic.
func (e *Engine) SetTracer(t tso.Tracer) { e.tracer = t }

// trace emits an event if a tracer is installed, stamping it with the
// engine's timeline.
func (e *Engine) trace(ev tso.Event) {
	if e.tracer != nil {
		ev.At = e.now()
		e.tracer.Trace(ev)
	}
}

// NewEngine builds an MVTO engine over the committed values of a store.
// The store is only read at construction; the engine keeps its own
// version chains.
func NewEngine(store *storage.Store, col *metrics.Collector, parker tso.Parker) *Engine {
	start := time.Now()
	e := &Engine{
		objects:     make(map[core.ObjectID]*object),
		col:         col,
		parker:      parker,
		maxVersions: DefaultMaxVersions,
		txns:        txnshard.New[*txnState](),
		store:       store,
		now:         func() time.Duration { return time.Since(start) },
	}
	for _, id := range store.IDs() {
		o, err := store.Get(id)
		if err != nil {
			continue
		}
		o.Lock()
		initial := o.CommittedValue()
		o.Unlock()
		e.objects[id] = &object{id: id, versions: []*version{{
			wts: tsgen.None, value: initial, committed: true,
		}}}
	}
	return e
}

// Begin starts an attempt; the bound specification is ignored (MVTO is a
// serializable baseline).
func (e *Engine) Begin(kind core.Kind, ts tsgen.Timestamp, _ core.BoundSpec) (core.TxnID, error) {
	if kind != core.Query && kind != core.Update {
		return 0, fmt.Errorf("mvto: invalid transaction kind %d", kind)
	}
	st := &txnState{id: core.TxnID(e.nextTxn.Add(1)), ts: ts, kind: kind}
	e.txns.Store(st.id, st)
	e.col.Begin()
	e.trace(tso.Event{Kind: tso.EvBegin, Txn: st.id, TxnKind: kind, TS: ts})
	return st.id, nil
}

func (e *Engine) lookup(txn core.TxnID) (*txnState, error) {
	st, ok := e.txns.Load(txn)
	if !ok {
		return nil, tso.ErrUnknownTxn
	}
	return st, nil
}

// Read returns the version visible at the attempt's timestamp, waiting
// for an uncommitted visible version to resolve.
func (e *Engine) Read(txn core.TxnID, obj core.ObjectID) (core.Value, error) {
	st, err := e.lookup(txn)
	if err != nil {
		return 0, err
	}
	o := e.objects[obj]
	if o == nil {
		return 0, e.abortNow(st, metrics.AbortMissingObject,
			fmt.Errorf("mvto: object %d does not exist", obj))
	}
	o.mu.Lock()
	for {
		v := visibleVersion(o.versions, st.ts)
		if v == nil {
			// Every retained version is younger than the reader: the
			// version it needs was pruned.
			o.mu.Unlock()
			return 0, e.abortNow(st, metrics.AbortLateRead,
				fmt.Errorf("mvto: visible version of object %d pruned", obj))
		}
		if v.committed || v.writer == st.id {
			if st.ts.After(v.maxRead) {
				v.maxRead = st.ts
			}
			value := v.value
			e.trace(tso.Event{Kind: tso.EvRead, Txn: st.id, TxnKind: st.kind, TS: st.ts,
				Object: o.id, Value: value, Version: v.wts})
			o.mu.Unlock()
			st.ops++
			e.col.ReadExecuted(false)
			return value, nil
		}
		// Visible but uncommitted by another attempt: wait for its
		// outcome (the writer is older — MVTO never waits on younger
		// writers because visibility is by timestamp).
		w := &waiter{ch: make(chan struct{}), parked: e.parker != nil}
		v.waiters = append(v.waiters, w)
		o.mu.Unlock()
		e.col.Waited()
		if w.parked {
			e.parker.Suspend()
		}
		<-w.ch
		// The attempt may have been finished (explicitly aborted) while
		// blocked; its cleanup and metrics ran there, so re-resolve it
		// before touching any more shared state.
		if _, err := e.lookup(txn); err != nil {
			return 0, err
		}
		o.mu.Lock()
	}
}

// Write installs an uncommitted version at the attempt's timestamp,
// aborting if a younger transaction already read the version this write
// would supersede.
func (e *Engine) Write(txn core.TxnID, obj core.ObjectID, value core.Value) error {
	_, err := e.write(txn, obj, value, false)
	return err
}

// WriteDelta writes visible+delta, returning the value written.
func (e *Engine) WriteDelta(txn core.TxnID, obj core.ObjectID, delta core.Value) (core.Value, error) {
	return e.write(txn, obj, delta, true)
}

func (e *Engine) write(txn core.TxnID, obj core.ObjectID, v core.Value, isDelta bool) (core.Value, error) {
	st, err := e.lookup(txn)
	if err != nil {
		return 0, err
	}
	if st.kind != core.Update {
		return 0, e.abortNow(st, metrics.AbortOther,
			fmt.Errorf("mvto: write from a %s ET", st.kind))
	}
	o := e.objects[obj]
	if o == nil {
		return 0, e.abortNow(st, metrics.AbortMissingObject,
			fmt.Errorf("mvto: object %d does not exist", obj))
	}
	o.mu.Lock()
	var prev *version
	for {
		prev = visibleVersion(o.versions, st.ts)
		if prev == nil {
			o.mu.Unlock()
			return 0, e.abortNow(st, metrics.AbortLateWrite,
				fmt.Errorf("mvto: predecessor version of object %d pruned", obj))
		}
		if read := prev.maxRead; read.After(st.ts) {
			// A younger reader consumed the version we would overwrite.
			o.mu.Unlock()
			return 0, e.abortNow(st, metrics.AbortLateWrite,
				fmt.Errorf("mvto: version of object %d read at %v, write at %v too late",
					obj, read, st.ts))
		}
		if !isDelta || prev.committed || prev.writer == st.id {
			break
		}
		// A delta reads its predecessor, so like Read it waits for an
		// uncommitted one's outcome instead of building on a value its
		// writer may still abort.
		w := &waiter{ch: make(chan struct{}), parked: e.parker != nil}
		prev.waiters = append(prev.waiters, w)
		o.mu.Unlock()
		e.col.Waited()
		if w.parked {
			e.parker.Suspend()
		}
		<-w.ch
		if _, err := e.lookup(txn); err != nil {
			return 0, err
		}
		o.mu.Lock()
	}
	if isDelta && st.ts.After(prev.maxRead) {
		// Record the delta's read, so a write ordered between prev and us
		// aborts instead of being silently overwritten.
		prev.maxRead = st.ts
	}
	if prev.writer == st.id && !prev.committed && prev.wts == st.ts {
		// Second write by the same attempt: overwrite in place.
		newValue := v
		if isDelta {
			newValue = prev.value + v
		}
		prev.value = newValue
		e.trace(tso.Event{Kind: tso.EvWrite, Txn: st.id, TxnKind: st.kind, TS: st.ts,
			Object: o.id, Value: newValue, Version: st.ts})
		o.mu.Unlock()
		st.ops++
		e.col.WriteExecuted(false)
		return newValue, nil
	}
	newValue := v
	if isDelta {
		newValue = prev.value + v
	}
	nv := &version{wts: st.ts, value: newValue, writer: st.id}
	o.versions = insertVersion(o.versions, nv)
	e.trace(tso.Event{Kind: tso.EvWrite, Txn: st.id, TxnKind: st.kind, TS: st.ts,
		Object: o.id, Value: newValue, Version: st.ts})
	o.mu.Unlock()
	st.writes = append(st.writes, o)
	st.ops++
	e.col.WriteExecuted(false)
	return newValue, nil
}

// Live reports the number of live transactions (begun, not yet finished).
func (e *Engine) Live() int { return e.txns.Len() }

// Commit marks the attempt's versions committed and wakes waiters. The
// shard's atomic check-and-delete is the double-finish guard.
//
// With durability set, the write set is captured from the attempt's
// uncommitted versions and logged; the publish callback resolves the
// version chains and mirrors the writes into the backing store (the
// store is MVTO's durable image — its private chains are rebuilt from
// it on recovery).
func (e *Engine) Commit(txn core.TxnID) error {
	st, ok := e.txns.Delete(txn)
	if !ok {
		return tso.ErrUnknownTxn
	}
	if e.dur == nil {
		for _, o := range st.writes {
			e.resolveVersions(o, st.id, true)
		}
		e.col.Commit()
		e.trace(tso.Event{Kind: tso.EvCommit, Txn: st.id, TxnKind: st.kind, TS: st.ts})
		return nil
	}
	rec := &storage.TxnCommit{Txn: st.id, Kind: st.kind, TS: st.ts}
	if len(st.writes) > 0 {
		rec.Writes = make([]storage.CommittedWrite, 0, len(st.writes))
		for _, o := range st.writes {
			o.mu.Lock()
			for _, v := range o.versions {
				if v.writer == st.id && !v.committed {
					rec.Writes = append(rec.Writes, storage.CommittedWrite{
						Object: o.id, Value: v.value, TS: v.wts,
					})
				}
			}
			o.mu.Unlock()
		}
	}
	publish := func() {
		for _, o := range st.writes {
			e.resolveVersions(o, st.id, true)
		}
		for _, w := range rec.Writes {
			// Best-effort mirror: the store object can be missing when the
			// engine was seeded from a different store generation.
			_ = e.store.ApplyCommitted(w.Object, w.Value, w.TS)
		}
	}
	durAck, durErr := e.dur.LogCommit(rec, publish)
	if durErr != nil {
		publish()
	}
	e.col.Commit()
	e.trace(tso.Event{Kind: tso.EvCommit, Txn: st.id, TxnKind: st.kind, TS: st.ts})
	if durErr == nil && durAck != nil {
		durErr = durAck.Wait()
	}
	if durErr != nil {
		return &tso.DurabilityError{Txn: st.id, Err: durErr}
	}
	return nil
}

// Abort removes the attempt's versions and wakes waiters.
func (e *Engine) Abort(txn core.TxnID) error {
	st, ok := e.txns.Delete(txn)
	if !ok {
		return tso.ErrUnknownTxn
	}
	e.finishAbort(st, metrics.AbortExplicit)
	return nil
}

func (e *Engine) abortNow(st *txnState, reason metrics.AbortReason, cause error) error {
	_, registered := e.txns.Delete(st.id)
	// Finish only if no other goroutine beat us to it: finishing twice
	// would double-count the abort and re-resolve versions.
	if registered {
		e.finishAbort(st, reason)
	}
	return &AbortError{Txn: st.id, Reason: reason, Err: cause}
}

func (e *Engine) finishAbort(st *txnState, reason metrics.AbortReason) {
	for _, o := range st.writes {
		e.resolveVersions(o, st.id, false)
	}
	e.col.Abort(reason, st.ops)
	e.trace(tso.Event{Kind: tso.EvAbort, Txn: st.id, TxnKind: st.kind, TS: st.ts})
}

// resolveVersions commits or removes txn's uncommitted versions on an
// object, waking and crediting any readers blocked on them, and prunes
// old committed versions beyond the retention bound.
func (e *Engine) resolveVersions(o *object, txn core.TxnID, commit bool) {
	o.mu.Lock()
	var wake []*waiter
	kept := o.versions[:0]
	for _, v := range o.versions {
		if v.writer != txn || v.committed {
			kept = append(kept, v)
			continue
		}
		wake = append(wake, v.waiters...)
		v.waiters = nil
		if commit {
			v.committed = true
			kept = append(kept, v)
		}
	}
	o.versions = kept
	// Prune: keep at most maxVersions committed versions (and all
	// uncommitted ones).
	if n := len(o.versions); n > e.maxVersions {
		drop := n - e.maxVersions
		pruned := o.versions[:0]
		for _, v := range o.versions {
			if drop > 0 && v.committed {
				drop--
				continue
			}
			pruned = append(pruned, v)
		}
		o.versions = pruned
	}
	o.mu.Unlock()
	for _, w := range wake {
		if w.parked && e.parker != nil {
			e.parker.Resume()
		}
		close(w.ch)
	}
}

// visibleVersion returns the version with the largest write timestamp
// ≤ ts, or nil if none is retained.
func visibleVersion(versions []*version, ts tsgen.Timestamp) *version {
	// Versions are sorted ascending by wts; binary search for the first
	// version strictly younger than ts.
	i := sort.Search(len(versions), func(i int) bool { return versions[i].wts.After(ts) })
	if i == 0 {
		return nil
	}
	return versions[i-1]
}

// insertVersion keeps the slice sorted by write timestamp.
func insertVersion(versions []*version, v *version) []*version {
	i := sort.Search(len(versions), func(i int) bool { return versions[i].wts.After(v.wts) })
	versions = append(versions, nil)
	copy(versions[i+1:], versions[i:])
	versions[i] = v
	return versions
}
