// Package a exercises lockorder's exit rule outside the scope packages:
// early returns and panics under held mutexes are flagged; deferred,
// branch-balanced and unlock-wait-relock unlocks are not.
package a

import "sync"

type engine struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	n    int
	cond chan struct{}
}

// leakReturn forgets the unlock on the error path.
func (e *engine) leakReturn(fail bool) int {
	e.mu.Lock()
	if fail {
		return -1 // want `return while e\.mu is still locked`
	}
	n := e.n
	e.mu.Unlock()
	return n
}

// leakPanic panics under the lock.
func (e *engine) leakPanic() {
	e.mu.Lock()
	if e.n < 0 {
		panic("negative") // want `panic while e\.mu is still locked`
	}
	e.mu.Unlock()
}

// leakImplicit falls off the end of an if with the read lock held on one
// branch: the merge keeps the lock and the final return reports it.
func (e *engine) leakImplicit(lock bool) int {
	if lock {
		e.rw.RLock()
	}
	return e.n // want `return while e\.rw is still locked`
}

// deferred is the safe idiom.
func (e *engine) deferred() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return 0
	}
	return e.n
}

// deferredClosure releases inside a deferred func literal.
func (e *engine) deferredClosure() int {
	e.mu.Lock()
	defer func() {
		e.n++
		e.mu.Unlock()
	}()
	return e.n
}

// balancedBranches unlocks on every exit path by hand.
func (e *engine) balancedBranches(fail bool) (int, error) {
	e.mu.Lock()
	if fail {
		e.mu.Unlock()
		return 0, nil
	}
	n := e.n
	e.mu.Unlock()
	return n, nil
}

// unlockWaitRelock is the engines' strict-ordering wait shape: release,
// block, re-acquire, loop. No diagnostic.
func (e *engine) unlockWaitRelock() int {
	e.mu.Lock()
	for {
		if e.n > 0 {
			n := e.n
			e.mu.Unlock()
			return n
		}
		ch := e.cond
		e.mu.Unlock()
		<-ch
		e.mu.Lock()
	}
}

// switchLeak misses the unlock in one case only.
func (e *engine) switchLeak(k int) int {
	e.mu.Lock()
	switch k {
	case 0:
		e.mu.Unlock()
		return 0
	case 1:
		return 1 // want `return while e\.mu is still locked`
	default:
		e.mu.Unlock()
		return 2
	}
}

// readerWriter tracks RLock and Lock as distinct states.
func (e *engine) readerWriter() int {
	e.rw.RLock()
	n := e.n
	e.rw.RUnlock()
	e.rw.Lock()
	e.n = n + 1
	e.rw.Unlock()
	return n
}

// goroutineScope: the literal's lock discipline is its own; the outer
// function holds nothing at return.
func (e *engine) goroutineScope(fail bool) {
	go func() {
		e.mu.Lock()
		if fail {
			return // want `return while e\.mu is still locked`
		}
		e.mu.Unlock()
	}()
}
