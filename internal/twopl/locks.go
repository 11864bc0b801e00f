package twopl

import (
	"fmt"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/tso"
)

// acquire takes obj in the requested mode for st, blocking behind
// incompatible holders. It detects deadlocks at block time by cycle
// search over the waits-for graph derived from the lock table, aborting
// the youngest transaction on the cycle.
func (e *Engine) acquire(st *txnState, obj core.ObjectID, mode lockMode) error {
	e.mu.Lock()
	if cur, ok := e.txns.Load(st.id); !ok || cur != st {
		// The transaction was finished by another goroutine between the
		// caller's lookup and this acquire; granting now would install a
		// lock nothing will ever release. Checking under mu is enough:
		// every finish path removes the txn from the registry before it
		// cancels queued requests under mu, so if the removal happens
		// after this check, the cancellation necessarily runs after our
		// enqueue below and sweeps the request.
		e.mu.Unlock()
		return tso.ErrUnknownTxn
	}
	entry := e.locks[obj]
	if entry == nil {
		entry = &lockEntry{obj: obj, holders: make(map[core.TxnID]lockMode)}
		e.locks[obj] = entry
	}

	if held, ok := st.locks[obj]; ok {
		if held == lockExclusive || mode == lockShared {
			// Already sufficient.
			e.mu.Unlock()
			return nil
		}
		// Upgrade S→X: immediate when we are the sole holder.
		if len(entry.holders) == 1 {
			entry.holders[st.id] = lockExclusive
			st.locks[obj] = lockExclusive
			e.mu.Unlock()
			return nil
		}
	} else if e.grantableLocked(entry, st.id, mode) {
		entry.holders[st.id] = mode
		st.locks[obj] = mode
		e.mu.Unlock()
		return nil
	}

	// Block: enqueue and look for a deadlock. The new request's edges may
	// close several cycles at once, and aborting one victim breaks only
	// the cycle it sits on, so search again until none is left.
	req := &request{txn: st.id, mode: mode, granted: make(chan struct{})}
	entry.queue = append(entry.queue, req)
	for victim := e.findDeadlockVictimLocked(st.id); victim != 0; victim = e.findDeadlockVictimLocked(st.id) {
		if victim == st.id {
			e.removeRequestLocked(entry, req)
			e.mu.Unlock()
			// An explicit Abort may race this self-abort; the registry's
			// atomic delete picks the single finisher.
			if _, registered := e.txns.Delete(st.id); registered {
				e.finishAbort(st, metrics.AbortDeadlock)
			}
			return &AbortError{Txn: st.id, Reason: metrics.AbortDeadlock,
				Err: fmt.Errorf("twopl: deadlock victim waiting for object %d", obj)}
		}
		e.abortWaiterLocked(victim)
	}
	if e.parker != nil {
		req.parked = true
	}
	e.mu.Unlock()

	e.col.Waited()
	if req.parked {
		e.parker.Suspend()
	}
	<-req.granted
	if req.cancelled {
		// Another goroutine finished this transaction (explicit Abort or
		// Commit) while the request was queued; its cleanup and metrics
		// already ran there, so this operation only reports it gone.
		return tso.ErrUnknownTxn
	}
	if req.aborted {
		_, registered := e.txns.Delete(st.id)
		// An explicit Abort may have finished the transaction between the
		// victim wakeup and this cleanup; finishing twice would double the
		// abort counters and re-release locks.
		if registered {
			e.finishAbort(st, metrics.AbortDeadlock)
		}
		return &AbortError{Txn: st.id, Reason: metrics.AbortDeadlock,
			Err: fmt.Errorf("twopl: chosen as deadlock victim on object %d", obj)}
	}
	return nil
}

// grantableLocked reports whether txn may take the lock immediately:
// the mode must be compatible with the holders and, for fairness, no
// other request may be queued ahead.
func (e *Engine) grantableLocked(entry *lockEntry, txn core.TxnID, mode lockMode) bool {
	if len(entry.queue) > 0 {
		return false
	}
	for holder, held := range entry.holders {
		if holder == txn {
			continue
		}
		if held == lockExclusive || mode == lockExclusive {
			return false
		}
	}
	return true
}

// releaseAll drops every lock st holds and grants what becomes
// available, crediting parked waiters on the timeline before waking them.
func (e *Engine) releaseAll(st *txnState) {
	e.mu.Lock()
	var wake []*request
	for obj := range st.locks {
		entry := e.locks[obj]
		if entry == nil {
			continue
		}
		delete(entry.holders, st.id)
		wake = append(wake, e.grantQueueLocked(entry)...)
		if len(entry.holders) == 0 && len(entry.queue) == 0 {
			delete(e.locks, obj)
		}
	}
	st.locks = make(map[core.ObjectID]lockMode)
	e.mu.Unlock()
	for _, req := range wake {
		if req.parked && e.parker != nil {
			e.parker.Resume()
		}
		close(req.granted)
	}
}

// grantQueueLocked grants queued requests FIFO while compatible,
// including S→X upgrades for sole holders. It returns the requests to
// wake; the caller closes their channels after releasing the engine
// lock.
func (e *Engine) grantQueueLocked(entry *lockEntry) []*request {
	var wake []*request
	for len(entry.queue) > 0 {
		head := entry.queue[0]
		holder, _ := e.txns.Load(head.txn)
		if holder == nil {
			// The requester vanished (aborted elsewhere); cancel it so a
			// goroutine still blocked on the request is not stranded.
			entry.queue = entry.queue[1:]
			head.cancelled = true
			wake = append(wake, head)
			continue
		}
		compatible := true
		for h, held := range entry.holders {
			if h == head.txn {
				continue
			}
			if held == lockExclusive || head.mode == lockExclusive {
				compatible = false
				break
			}
		}
		if !compatible {
			return wake
		}
		entry.holders[head.txn] = head.mode
		holder.locks[entry.obj] = head.mode
		entry.queue = entry.queue[1:]
		wake = append(wake, head)
	}
	return wake
}

// cancelRequestsLocked removes every queued request of txn from the lock
// table, marking each cancelled, and grants whatever the removals
// unblock. The caller wakes the returned requests after releasing the
// engine lock; granted and cancelled waiters take the same wakeup path.
func (e *Engine) cancelRequestsLocked(txn core.TxnID) []*request {
	var wake []*request
	for obj, entry := range e.locks {
		removed := false
		for i := 0; i < len(entry.queue); {
			req := entry.queue[i]
			if req.txn != txn {
				i++
				continue
			}
			entry.queue = append(entry.queue[:i], entry.queue[i+1:]...)
			req.cancelled = true
			wake = append(wake, req)
			removed = true
		}
		if removed {
			wake = append(wake, e.grantQueueLocked(entry)...)
			if len(entry.holders) == 0 && len(entry.queue) == 0 {
				delete(e.locks, obj)
			}
		}
	}
	return wake
}

// removeRequestLocked deletes a pending request from an entry's queue.
func (e *Engine) removeRequestLocked(entry *lockEntry, req *request) {
	for i, r := range entry.queue {
		if r == req {
			entry.queue = append(entry.queue[:i], entry.queue[i+1:]...)
			return
		}
	}
}

// abortWaiterLocked marks a waiting transaction as a deadlock victim,
// removes its pending requests, and wakes it; the victim's goroutine
// performs its own cleanup when it observes the flag.
func (e *Engine) abortWaiterLocked(victim core.TxnID) {
	for _, entry := range e.locks {
		for i := 0; i < len(entry.queue); i++ {
			req := entry.queue[i]
			if req.txn != victim {
				continue
			}
			entry.queue = append(entry.queue[:i], entry.queue[i+1:]...)
			req.aborted = true
			if req.parked && e.parker != nil {
				e.parker.Resume()
			}
			close(req.granted)
			return
		}
	}
}

// findDeadlockVictimLocked searches for a waits-for cycle reachable from
// start and returns the youngest (largest-timestamp) transaction on it,
// or 0 when there is no cycle. Edges run from each queued requester to
// every current holder of the requested object, and to every request
// queued ahead of it.
//
// The fix for the lost upgrade deadlock is these queue-order edges, not
// letting an upgrade jump the queue: grantQueueLocked grants strictly
// from the head, so a queued request also waits on each request in
// front of it. Without them, T1's S→X upgrade queued behind T2's X
// request (which waits on T1's S) shows no cycle, and once every other
// S holder leaves both wait forever. With them, grants and releases
// never add an edge (a granted request's followers already pointed at
// it), so every cycle closes when some request blocks, and acquire's
// search loop at block time breaks it.
func (e *Engine) findDeadlockVictimLocked(start core.TxnID) core.TxnID {
	// Build the waits-for adjacency from the lock table.
	edges := make(map[core.TxnID][]core.TxnID)
	for _, entry := range e.locks {
		for i, req := range entry.queue {
			for holder := range entry.holders {
				if holder != req.txn {
					edges[req.txn] = append(edges[req.txn], holder)
				}
			}
			for _, ahead := range entry.queue[:i] {
				if ahead.txn != req.txn {
					edges[req.txn] = append(edges[req.txn], ahead.txn)
				}
			}
		}
	}
	// DFS from start looking for a cycle through start's component.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[core.TxnID]int)
	stack := []core.TxnID{}
	var cycle []core.TxnID
	var dfs func(u core.TxnID) bool
	dfs = func(u core.TxnID) bool {
		color[u] = grey
		stack = append(stack, u)
		for _, v := range edges[u] {
			switch color[v] {
			case white:
				if dfs(v) {
					return true
				}
			case grey:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == v {
						break
					}
				}
				return true
			}
		}
		color[u] = black
		stack = stack[:len(stack)-1]
		return false
	}
	if !dfs(start) {
		return 0
	}
	// Victim: youngest timestamp on the cycle.
	var victim core.TxnID
	var victimState *txnState
	for _, txn := range cycle {
		st, _ := e.txns.Load(txn)
		if st == nil {
			continue
		}
		if victimState == nil || st.ts.After(victimState.ts) {
			victim, victimState = txn, st
		}
	}
	return victim
}
