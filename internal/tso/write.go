package tso

import (
	"fmt"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
)

// Write executes a write of an absolute value for the given attempt. On
// rejection the attempt is aborted internally and an *AbortError is
// returned.
func (e *Engine) Write(txn core.TxnID, obj core.ObjectID, value core.Value) error {
	_, err := e.write(txn, obj, value, 0, false)
	return err
}

// WriteDelta executes a write of current+delta, returning the value
// actually written. Delta writes keep restarted transactions meaningful:
// the increment is re-applied to whatever the object holds at retry time.
func (e *Engine) WriteDelta(txn core.TxnID, obj core.ObjectID, delta core.Value) (core.Value, error) {
	return e.write(txn, obj, 0, delta, true)
}

// write is the shared write path implementing strict timestamp ordering
// with ESR case 3. The rules, evaluated with the object locked:
//
//   - An uncommitted write by an older attempt blocks us (strict
//     ordering: younger waits for older). An uncommitted write by a
//     younger attempt means our write is already out of order — abort.
//   - A write older than the object's last update-ET read aborts: reads
//     from update ETs must stay consistent, so the conflict is real.
//     Zero-epsilon query reads are recorded on this side too.
//   - A write older than the committed write timestamp aborts (the
//     prototype does not apply the Thomas write rule).
//   - A write older than the object's last query-ET read is ESR case 3:
//     it may proceed if the inconsistency it exports — the maximum
//     distance between the new value and the proper values of the
//     uncommitted query readers (§5.2) — fits the object export limit
//     and the hierarchy/transaction export bounds.
func (e *Engine) write(txn core.TxnID, obj core.ObjectID, value, delta core.Value, useDelta bool) (core.Value, error) {
	start := e.opts.Now()
	st, err := e.lookup(txn)
	if err != nil {
		return 0, err
	}
	if st.kind != core.Update {
		return 0, e.abortNow(st, metrics.AbortOther,
			fmt.Errorf("write on object %d from a %s ET", obj, st.kind))
	}
	o, err := e.store.Get(obj)
	if err != nil {
		return 0, e.abortNow(st, metrics.AbortMissingObject, err)
	}

	o.Lock()
	for {
		owner, dirty := o.Dirty()
		if !dirty {
			break
		}
		if owner == st.id {
			// The one-write-per-object rule (§3.2.1) is validated at
			// submission; hitting this means a malformed program.
			o.Unlock()
			return 0, e.abortNow(st, metrics.AbortOther,
				fmt.Errorf("object %d already written by this transaction", obj))
		}
		if st.ts.After(o.WriteTS()) {
			//lint:ignore lockorder waitForResolve releases o's lock before blocking and re-acquires it before returning
			if err := e.waitForResolve(o); err != nil {
				o.Unlock()
				return 0, e.abortNow(st, metrics.AbortWaitTimeout, err)
			}
			continue
		}
		// Our timestamp is older than a pending write: out of order.
		err := fmt.Errorf("write ts %v older than pending write %v on object %d", st.ts, o.WriteTS(), obj)
		o.Unlock()
		return 0, e.abortNow(st, metrics.AbortLateWrite, err)
	}

	newValue := value
	if useDelta {
		newValue = o.Value() + delta
	}

	if st.ts.Before(o.MaxUpdateReadTS()) {
		err := fmt.Errorf("write ts %v older than consistent read %v on object %d", st.ts, o.MaxUpdateReadTS(), obj)
		o.Unlock()
		return 0, e.abortNow(st, metrics.AbortLateWrite, err)
	}
	// Not-strictly-newer than the committed version aborts. Equality is
	// a real case, not paranoia: a reconnecting client that re-estimates
	// its clock correction can reissue a (tick, site) pair, and two
	// committed versions sharing a timestamp have no order — the oracle
	// rightly refutes such a history, so the engine must refuse to
	// create it. (The prototype does not apply the Thomas write rule.)
	if !st.ts.After(o.CommittedTS()) {
		err := fmt.Errorf("write ts %v not newer than committed write %v on object %d", st.ts, o.CommittedTS(), obj)
		o.Unlock()
		return 0, e.abortNow(st, metrics.AbortLateWrite, err)
	}

	// ESR case 3: late with respect to a query read only.
	var exported core.Distance
	caseThree := st.ts.Before(o.MaxQueryReadTS())
	if caseThree {
		if !st.esr {
			// Zero export limit: the attempt runs textbook TO, where a
			// write older than any read aborts even if no uncommitted
			// reader would observe a value difference.
			err := fmt.Errorf("write ts %v older than query read %v on object %d", st.ts, o.MaxQueryReadTS(), obj)
			o.Unlock()
			return 0, e.abortNow(st, metrics.AbortLateWrite, err)
		}
		d, _ := o.ExportDistance(newValue)
		if err := st.acc.Admit(o.ID(), d, o.OEL()); err != nil {
			o.Unlock()
			return 0, e.abortNow(st, metrics.AbortExportLimit, err)
		}
		exported = d
	}

	if err := o.BeginWrite(st.id, st.ts, newValue); err != nil {
		o.Unlock()
		return 0, e.abortNow(st, metrics.AbortOther, err)
	}
	st.writes = append(st.writes, o)
	e.trace(Event{Kind: EvWrite, Txn: st.id, TxnKind: st.kind, TS: st.ts,
		Object: o.ID(), Value: newValue, Version: st.ts, Inconsistency: exported,
		Limit: o.OEL()})
	o.Unlock()

	st.opsExecuted++
	e.opts.Collector.WriteExecuted(caseThree && exported > 0)
	e.opts.Collector.ObserveLatency(metrics.LatWrite, e.opts.Now()-start)
	return newValue, nil
}
