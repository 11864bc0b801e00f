package client

import (
	"sync/atomic"

	"github.com/epsilondb/epsilondb/internal/core"
)

// Router fans a workload out over a primary and a set of bounded-stale
// read replicas. Query ETs with a nonzero TIL round-robin across the
// replicas — their replication lag is charged against the query's import
// limit server-side, so any answer a replica gives is still within the
// transaction's epsilon. Everything a follower must not serve goes to
// the primary: update ETs, zero-epsilon queries (which the router never
// even offers to a replica), and any query a replica bounces with a
// typed redirect. A replica that fails outright — connection broken,
// client closed — is not fatal either; the query fails over to the
// primary, which can always serve it.
//
// Every program travels whole, on whichever server runs it: Begin, then
// one Batch frame carrying all its ops and the Commit (RunProgramBatched
// with no frame limit), so an attempt costs two round trips however many
// ops it has. No option selects per-op shipping: a Router only ever runs
// a core.Program, every op of which is known before the first frame is
// sent. Interactive transactions, whose next op depends on the last
// reply, use Client.Begin and Txn directly.
type Router struct {
	primary  *Client
	replicas []*Client
	next     atomic.Uint64

	primaryRuns atomic.Int64
	replicaRuns atomic.Int64
	redirects   atomic.Int64
	failovers   atomic.Int64
}

// NewRouter builds a router over a primary and zero or more replicas.
// With no replicas every call degrades to the primary client.
func NewRouter(primary *Client, replicas ...*Client) *Router {
	return &Router{primary: primary, replicas: replicas}
}

// Primary returns the router's primary client.
func (r *Router) Primary() *Client { return r.primary }

// Replicas returns the router's replica clients.
func (r *Router) Replicas() []*Client { return r.replicas }

// Close closes the primary and every replica client; the first error
// wins.
func (r *Router) Close() error {
	err := r.primary.Close()
	for _, c := range r.replicas {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// routable reports whether a program may be served by a replica: a
// query that tolerates some inconsistency, with a replica to send it
// to. A TIL-0 query admits no replication lag at all, so the router
// does not waste a round trip learning that from a follower.
func (r *Router) routable(p *core.Program) bool {
	return len(r.replicas) > 0 && p.Kind == core.Query && p.Bounds.Transaction != 0
}

// pick round-robins across the replica set.
func (r *Router) pick() *Client {
	return r.replicas[int((r.next.Add(1)-1)%uint64(len(r.replicas)))]
}

// RunProgram executes one attempt of a program, routing it per the
// policy above. Abort errors pass through untouched — a limit violation
// on a replica is a real abort, and the caller's retry loop owns it.
func (r *Router) RunProgram(p *core.Program) (*Result, error) {
	if !r.routable(p) {
		r.primaryRuns.Add(1)
		return r.primary.RunProgramBatched(p, 0)
	}
	res, err := r.pick().RunProgramBatched(p, 0)
	switch {
	case err == nil:
		r.replicaRuns.Add(1)
		return res, nil
	case IsRedirect(err):
		r.redirects.Add(1)
	default:
		if _, isAbort := IsAbort(err); isAbort {
			r.replicaRuns.Add(1)
			return nil, err
		}
		r.failovers.Add(1)
	}
	r.primaryRuns.Add(1)
	return r.primary.RunProgramBatched(p, 0)
}

// RunRetry executes a program to completion through the router,
// resubmitting after every abort with a fresh timestamp and sleeping
// per the primary client's backoff schedule, mirroring Client.RunRetry.
// maxAttempts caps retries; zero means unlimited.
func (r *Router) RunRetry(p *core.Program, maxAttempts int) (*Result, int, error) {
	return r.primary.retry(maxAttempts, func() (*Result, error) { return r.RunProgram(p) })
}

// RouterStats counts where the router sent work.
type RouterStats struct {
	// PrimaryRuns counts attempts executed on the primary, including
	// redirect and failover replays.
	PrimaryRuns int64
	// ReplicaRuns counts attempts a replica answered — committed or
	// genuinely aborted there.
	ReplicaRuns int64
	// Redirects counts attempts a replica bounced with a typed redirect.
	Redirects int64
	// Failovers counts attempts replayed on the primary after a replica
	// failed outright (connection broken, client closed).
	Failovers int64
}

// Stats snapshots the routing counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		PrimaryRuns: r.primaryRuns.Load(),
		ReplicaRuns: r.replicaRuns.Load(),
		Redirects:   r.redirects.Load(),
		Failovers:   r.failovers.Load(),
	}
}
