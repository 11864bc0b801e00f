package tso

import (
	"fmt"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
)

// Read executes a read operation for the given attempt and returns the
// value read. On any rejection the attempt is aborted internally and an
// *AbortError is returned; the client resubmits with a fresh timestamp.
func (e *Engine) Read(txn core.TxnID, obj core.ObjectID) (core.Value, error) {
	start := e.opts.Now()
	st, err := e.lookup(txn)
	if err != nil {
		return 0, err
	}
	o, err := e.store.Get(obj)
	if err != nil {
		return 0, e.abortNow(st, metrics.AbortMissingObject, err)
	}
	var v core.Value
	if st.kind == core.Update {
		v, err = e.readUpdate(st, o)
	} else {
		v, err = e.readQuery(st, o)
	}
	if err == nil {
		e.opts.Collector.ObserveLatency(metrics.LatRead, e.opts.Now()-start)
	}
	return v, err
}

// readUpdate is the consistent read path for update ETs. Their writes
// depend on their reads, so no ESR relaxation applies (§3.2.1): the rules
// are exactly strict timestamp ordering.
func (e *Engine) readUpdate(st *txnState, o *storage.Object) (core.Value, error) {
	o.Lock()
	for {
		owner, dirty := o.Dirty()
		switch {
		case dirty && owner == st.id:
			// Reading our own pending write.
			v := o.Value()
			o.RecordRead(st.ts, false)
			e.trace(Event{Kind: EvRead, Txn: st.id, TxnKind: st.kind, TS: st.ts,
				Object: o.ID(), Value: v, Version: o.WriteTS(), Limit: o.OIL()})
			o.Unlock()
			st.opsExecuted++
			e.opts.Collector.ReadExecuted(false)
			return v, nil

		case dirty && st.ts.After(o.WriteTS()):
			// A younger read must see the older pending write's outcome:
			// wait (strict ordering; younger waits for older, so no
			// deadlock is possible).
			//lint:ignore lockorder waitForResolve releases o's lock before blocking and re-acquires it before returning
			if err := e.waitForResolve(o); err != nil {
				o.Unlock()
				return 0, e.abortNow(st, metrics.AbortWaitTimeout, err)
			}
			continue

		default:
			// Either clean, or dirty with a pending write younger than
			// us — in the latter case the committed version is the one
			// our timestamp orders against, so we never block on a
			// younger writer.
			cts := o.CommittedTS()
			if st.ts.Before(cts) {
				o.Unlock()
				return 0, e.abortNow(st, metrics.AbortLateRead,
					fmt.Errorf("read ts %v older than committed write %v on object %d", st.ts, cts, o.ID()))
			}
			v := o.CommittedValue()
			o.RecordRead(st.ts, false)
			st.horizon.Fold(o.CommitLSN())
			e.trace(Event{Kind: EvRead, Txn: st.id, TxnKind: st.kind, TS: st.ts,
				Object: o.ID(), Value: v, Version: cts, Limit: o.OIL()})
			o.Unlock()
			st.opsExecuted++
			e.opts.Collector.ReadExecuted(false)
			return v, nil
		}
	}
}

// readQuery is the query-ET read path with the ESR relaxations. The
// decision ladder, evaluated with the object locked:
//
//  1. Locate the proper value (last committed write older than the query,
//     §5.1) and compute d = |present − proper|.
//  2. If the object carries an uncommitted write by another attempt and
//     the query is epsilon-enabled, try case 2: read the present (dirty)
//     value if d fits the object limit and the hierarchy (import check).
//  3. Otherwise fall back to the committed version: a query older than
//     the pending write orders before it and reads committed data; a
//     query younger than the pending write waits for its resolution.
//  4. On committed data, a read younger than the committed write is
//     consistent (d = 0); an older read is case 1 and must pass the
//     import check on the committed value.
//
// Every successful read registers the query in the object's reader list
// with its proper value, feeding later export checks (§5.2).
func (e *Engine) readQuery(st *txnState, o *storage.Object) (core.Value, error) {
	o.Lock()
	for {
		proper, exact := o.FindProper(st.ts)
		if !exact && st.esr {
			e.store.NotedProperMiss()
			if e.opts.AbortOnProperMiss {
				o.Unlock()
				return 0, e.abortNow(st, metrics.AbortImportLimit,
					fmt.Errorf("proper value of object %d evicted from write history", o.ID()))
			}
		}

		owner, dirty := o.Dirty()
		if dirty && owner != st.id {
			if st.esr {
				// ESR case 2: view uncommitted data within bounds.
				present := o.Value()
				d := core.Dist(present, proper)
				if err := st.acc.Admit(o.ID(), d, o.OIL()); err == nil {
					return e.finishQueryRead(st, o, present, proper, d, true), nil
				}
				// The bounds refused the dirty value; fall through to the
				// committed-version path below.
			}
			if st.ts.After(o.WriteTS()) {
				// Younger than the pending write: its outcome determines
				// what we may read — wait (younger waits for older).
				//lint:ignore lockorder waitForResolve releases o's lock before blocking and re-acquires it before returning
				if err := e.waitForResolve(o); err != nil {
					o.Unlock()
					return 0, e.abortNow(st, metrics.AbortWaitTimeout, err)
				}
				continue
			}
			// Older than the pending write: read committed data.
		}

		// Committed-version path (object clean, or pending write ignored
		// because it is younger than us / refused by bounds).
		cv := o.CommittedValue()
		cts := o.CommittedTS()
		if st.ts.After(cts) {
			// Consistent read: the committed version is exactly the
			// proper value.
			return e.finishQueryRead(st, o, cv, cv, 0, false), nil
		}
		// ESR case 1: committed data written after the query began.
		if !st.esr {
			// Zero import limit: textbook TO aborts a late read even if
			// the committed value happens to equal the proper value.
			o.Unlock()
			return 0, e.abortNow(st, metrics.AbortLateRead,
				fmt.Errorf("read ts %v older than committed write %v on object %d", st.ts, cts, o.ID()))
		}
		d := core.Dist(cv, proper)
		if err := st.acc.Admit(o.ID(), d, o.OIL()); err != nil {
			o.Unlock()
			return 0, e.abortNow(st, metrics.AbortImportLimit, err)
		}
		return e.finishQueryRead(st, o, cv, proper, d, false), nil
	}
}

// finishQueryRead records a successful query read: reader registration,
// read-timestamp bookkeeping, tracing, and metrics. The object lock is
// held on entry and released before returning.
func (e *Engine) finishQueryRead(st *txnState, o *storage.Object, value, proper core.Value, d core.Distance, dirtyRead bool) core.Value {
	// Only an epsilon-enabled query's read may be relaxed by a case-3
	// write. A zero-epsilon query imports nothing, so its read is
	// recorded as hard as an update's and an older write aborts.
	o.RecordRead(st.ts, st.esr)
	o.AddReader(st.id, proper)
	st.reads = append(st.reads, o)
	var version = o.CommittedTS()
	if dirtyRead {
		// Uncommitted data has no log position yet: fall back to waiting
		// for everything appended by commit time.
		version = o.WriteTS()
		st.horizon.Known = false
	} else {
		st.horizon.Fold(o.CommitLSN())
	}
	e.trace(Event{Kind: EvRead, Txn: st.id, TxnKind: st.kind, TS: st.ts,
		Object: o.ID(), Value: value, Version: version, Inconsistency: d,
		Limit: o.OIL(), DirtyRead: dirtyRead})
	var dirtyOwner core.TxnID
	if dirtyRead {
		dirtyOwner, _ = o.Dirty()
	}
	o.Unlock()
	if dirtyRead {
		e.noteDirtyRead(dirtyOwner)
	}
	st.opsExecuted++
	e.opts.Collector.ReadExecuted(d > 0 || dirtyRead)
	return value
}
