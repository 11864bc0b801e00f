// Package txnshard provides the sharded transaction tables behind the
// engines' hot paths. A single engine-wide mutex around the live-
// transaction map serializes Begin/lookup/remove from every connection;
// under concurrent clients that one cache line becomes the whole
// engine's convoy point — the same shared-capacity contention the paper
// measures at the workload level (§8, thrashing). Sharding the table by
// transaction id removes the convoy: ids are assigned sequentially, so
// id&mask spreads consecutive transactions round-robin across shards and
// two concurrent connections almost never touch the same lock.
//
// The map is generic over the value type so the TO engine and the
// follower's query engine share one implementation for their
// transaction tables, and the TO engine reuses it for the dirty-reader
// counters.
package txnshard

import (
	"sync"

	"github.com/epsilondb/epsilondb/internal/core"
)

// NumShards is the shard count. Power of two so the shard index is a
// mask; 64 keeps the per-shard collision probability negligible for any
// realistic number of simultaneously live transactions while the whole
// shard array stays a few KiB.
const NumShards = 64

const shardMask = NumShards - 1

// shard is one lock-striped slice of the table. The struct is padded to
// a 64-byte cache line so neighbouring shards' locks do not false-share.
type shard[V any] struct {
	mu sync.RWMutex
	m  map[core.TxnID]V
	// 24 bytes of RWMutex + 8 bytes of map header = 32; pad to 64.
	_ [32]byte
}

// Map is a sharded map keyed by transaction id. The zero value is not
// ready for use; construct with New.
type Map[V any] struct {
	shards [NumShards]shard[V]
}

// New returns an empty sharded map.
func New[V any]() *Map[V] {
	m := &Map[V]{}
	for i := range m.shards {
		m.shards[i].m = make(map[core.TxnID]V)
	}
	return m
}

func (m *Map[V]) shardFor(id core.TxnID) *shard[V] {
	return &m.shards[uint64(id)&shardMask]
}

// Store inserts or replaces the value for id.
func (m *Map[V]) Store(id core.TxnID, v V) {
	s := m.shardFor(id)
	s.mu.Lock()
	s.m[id] = v
	s.mu.Unlock()
}

// Load returns the value for id.
func (m *Map[V]) Load(id core.TxnID) (V, bool) {
	s := m.shardFor(id)
	s.mu.RLock()
	v, ok := s.m[id]
	s.mu.RUnlock()
	return v, ok
}

// Delete removes id and returns the value it held. The check-and-remove
// is atomic: exactly one of two racing Delete calls observes ok=true,
// which is what makes it the engines' double-finish guard.
func (m *Map[V]) Delete(id core.TxnID) (V, bool) {
	s := m.shardFor(id)
	s.mu.Lock()
	v, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	s.mu.Unlock()
	return v, ok
}

// Mutate atomically rewrites the entry for id: f receives the current
// value (or the zero value with ok=false when absent) and returns the
// new value and whether to keep the entry; returning keep=false deletes
// it. Used for the dirty-reader counters, whose increment must not race
// with the writer's teardown.
func (m *Map[V]) Mutate(id core.TxnID, f func(v V, ok bool) (V, bool)) {
	s := m.shardFor(id)
	s.mu.Lock()
	v, ok := s.m[id]
	nv, keep := f(v, ok)
	if keep {
		s.m[id] = nv
	} else if ok {
		delete(s.m, id)
	}
	s.mu.Unlock()
}

// Len returns the number of entries across all shards. The count is a
// consistent sum of per-shard snapshots, not an atomic snapshot of the
// whole table — exactly the guarantee a quiescence check needs.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls f for every entry until f returns false. Each shard is
// visited under its read lock; entries stored or deleted concurrently in
// other shards may or may not be observed.
func (m *Map[V]) Range(f func(id core.TxnID, v V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for id, v := range s.m {
			if !f(id, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
