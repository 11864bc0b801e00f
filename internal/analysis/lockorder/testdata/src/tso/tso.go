// Package tso is the golden model of the timestamp-ordering engine's
// commit path for the publish-under-log-mutex contract: publishCommit may
// run inside the LogCommit callback, on the durability-off path, or on
// the log-error fallback path — anywhere else is a violation.
package tso

import (
	"github.com/epsilondb/epsilondb/internal/analysis/lockorder/testdata/src/storage"
)

// Engine mirrors tso.Engine.
type Engine struct {
	dur  storage.Durability
	objs []*storage.Object
}

// publishCommit installs the committed values; the analyzer treats any
// method of this name as the publish step.
func (e *Engine) publishCommit(v int64) {
	for _, o := range e.objs {
		o.Lock()
		o.Commit(v)
		o.Unlock()
	}
}

// Commit follows the contract on every path: the callback runs under the
// WAL's log mutex, the else-branch knows durability is off, and the
// error branch knows the log write already failed.
func (e *Engine) Commit(v int64) error {
	var ack storage.Ack
	var err error
	if d := e.dur; d != nil {
		rec := &storage.TxnCommit{}
		ack, err = d.LogCommit(rec, func() { e.publishCommit(v) })
		if err != nil {
			e.publishCommit(v)
		}
	} else {
		e.publishCommit(v)
	}
	if err == nil && ack != nil {
		err = ack.Wait()
	}
	return err
}

// commitEager publishes before the commit record is logged: a crash
// between the two would expose unlogged state.
func (e *Engine) commitEager(v int64) error {
	e.publishCommit(v) // want `commit publish outside the durability log callback`
	rec := &storage.TxnCommit{}
	ack, err := e.dur.LogCommit(rec, func() {})
	if err != nil {
		return err
	}
	return ack.Wait()
}

// commitUnguarded publishes on the success path after LogCommit returned,
// outside the callback: the publish races the group-commit fsync.
func (e *Engine) commitUnguarded(v int64) error {
	rec := &storage.TxnCommit{}
	ack, err := e.dur.LogCommit(rec, func() { e.publishCommit(v) })
	if err == nil {
		e.publishCommit(v) // want `commit publish outside the durability log callback`
	}
	return waitIfSet(ack, err)
}

func waitIfSet(ack storage.Ack, err error) error {
	if err == nil && ack != nil {
		return ack.Wait()
	}
	return err
}

// beginWrite mirrors tso.write's failure path: the object lock is taken
// through the storage.Object.Lock wrapper, and the early return forgets
// to release it, so every later operation on the object deadlocks.
func (e *Engine) beginWrite(o *storage.Object, v int64) bool {
	o.Lock()
	if v < 0 {
		return false // want `return while storage\.Object\.mu is still locked`
	}
	o.Commit(v)
	o.Unlock()
	return true
}

// readQuery returns through finish, which releases the lock it did not
// acquire: the call counts as the release, so no diagnostic.
func (e *Engine) readQuery(o *storage.Object, v int64) int64 {
	o.Lock()
	if v > 0 {
		return e.finish(o, v)
	}
	o.Unlock()
	return 0
}

// finish releases the caller's object lock before returning.
func (e *Engine) finish(o *storage.Object, v int64) int64 {
	o.Commit(v)
	o.Unlock()
	return v
}

// waitForResolve mirrors the engine's wait helper: it releases the
// caller's lock, blocks, and re-acquires it before returning. The lock
// it returns holding is the caller's, so no diagnostic.
func (e *Engine) waitForResolve(o *storage.Object, ch chan struct{}) {
	o.Unlock()
	<-ch
	o.Lock()
	return
}
