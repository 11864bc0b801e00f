package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/client"
	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/workload"
)

// sample is the generator's record of one transaction.
type sample struct {
	query    bool
	ok       bool // committed; otherwise it exhausted its attempts or errored
	attempts int32
	exec     int32
	// due is when the transaction should have been sent (equal to pick
	// in a closed loop), pick when an executor took it, done when its
	// last attempt returned; all in ns since the run's epoch.
	due, pick, done int64
	// prog is kept only in the traced run, to match the transaction to
	// the frames seen on the wire.
	prog *core.Program
}

// executor is one closed-loop client of the system: it owns a
// deterministic program sequence and runs one transaction at a time.
type executor struct {
	id, stream, conn int
	gen              func() *core.Program
	ship             func(*core.Program) (*client.Result, int, error)
	// audit checks a committed result against an invariant the workload
	// guarantees; nil when there is none.
	audit func(*core.Program, *client.Result) error

	// deltas[obj] sums the delta writes of this executor's acknowledged
	// commits: its share of the model the final state must equal.
	deltas   []core.Value
	samples  []sample
	keepProg bool
	// firstErr is the first audit failure or non-abort error.
	firstErr error
}

// run is one workload being driven against one cluster.
type run struct {
	spec  *workloadSpec
	seed  int64
	cl    *cluster
	epoch time.Time

	conns  []*client.Client
	router *client.Router
	execs  []*executor
	// initial is every object's value as audited before any load.
	initial []core.Value
}

// transferProgram builds one zero-sum update: writes delta writes in
// +/- pairs over distinct accounts of [base, base+accounts), so any
// interleaving conserves the total. Its export limit is zero: transfers
// are meant to be serializable, and an update allowed to export could
// write underneath a zero-epsilon audit that has already committed.
func transferProgram(rng *rand.Rand, base, accounts, writes int) *core.Program {
	perm := rng.Perm(accounts)
	p := core.NewUpdate(0)
	for i := 0; i+1 < writes; i += 2 {
		amount := core.Value(1 + rng.Intn(100))
		p.WriteDelta(core.ObjectID(base+perm[i]), -amount)
		p.WriteDelta(core.ObjectID(base+perm[i+1]), amount)
	}
	return p
}

// distinctObjects draws n distinct object ids below limit.
func distinctObjects(rng *rand.Rand, n, limit int) []core.ObjectID {
	out := make([]core.ObjectID, 0, n)
draw:
	for len(out) < n {
		id := core.ObjectID(rng.Intn(limit))
		for _, seen := range out {
			if seen == id {
				continue draw
			}
		}
		out = append(out, id)
	}
	return out
}

// executorSeed derives an executor's seed from the run's, so identical
// run seeds give every executor an identical program sequence.
func executorSeed(seed int64, id int) int64 { return seed*1_000_003 + int64(id)*7919 + 1 }

// newExecutors builds the workload's executors over the run's
// connections, once the set-up audit is safely in the past.
func (r *run) newExecutors(keepProg bool) error {
	time.Sleep(auditGap)
	spec := r.spec
	for si, st := range spec.streams {
		n := st.executorsPerConn * numConns()
		if spec.replica {
			n = st.executorsPerConn
		}
		for i := 0; i < n; i++ {
			ex := &executor{id: len(r.execs), stream: si, conn: i / st.executorsPerConn,
				deltas: make([]core.Value, spec.objects), keepProg: keepProg}
			rng := rand.New(rand.NewSource(executorSeed(r.seed, ex.id)))
			switch {
			case spec.replica:
				r.replicaExecutor(ex, st.name == "update", rng)
			case spec.transfers:
				r.transferExecutor(ex, rng)
			default:
				g, err := workload.NewGenerator(workload.DefaultParams(workload.LevelMedium), executorSeed(r.seed, ex.id))
				if err != nil {
					return err
				}
				c := r.conns[ex.conn]
				ex.gen = g.Next
				// Per-op frames: the paper's interactive client.
				ex.ship = func(p *core.Program) (*client.Result, int, error) { return c.RunRetry(p, maxAttempts) }
			}
			r.execs = append(r.execs, ex)
		}
	}
	return nil
}

// transferExecutor owns a disjoint slice: updates move money inside it,
// zero-epsilon queries sum it and must see exactly the invariant.
func (r *run) transferExecutor(ex *executor, rng *rand.Rand) {
	base := ex.id * sliceAccounts
	slice := make([]core.ObjectID, sliceAccounts)
	for i := range slice {
		slice[i] = core.ObjectID(base + i)
	}
	share := r.spec.updateShare
	ex.gen = func() *core.Program {
		if rng.Float64() < share {
			return transferProgram(rng, base, sliceAccounts, 8)
		}
		return core.NewQuery(0, slice...)
	}
	c := r.conns[ex.conn]
	// One Batch frame carries the whole program.
	ex.ship = func(p *core.Program) (*client.Result, int, error) { return c.RunRetryBatched(p, 0, maxAttempts) }
	want := core.Value(sliceAccounts) * initialBalance
	ex.audit = func(p *core.Program, res *client.Result) error {
		if p.Kind == core.Query && res.Sum != want {
			return fmt.Errorf("slice audit: executor %d read a total of %d, want %d", ex.id, res.Sum, want)
		}
		return nil
	}
}

// replicaExecutor serves one of replica-read's two streams through the
// router: transfers on the primary, or bounded-stale sum queries.
//
// The server executes a pipelined connection's reads and writes inline,
// in arrival order, so an operation that must wait for an older pending
// write stalls every frame behind it on that connection — including the
// writer's own commit, if it shares the connection — until the engine's
// five-second wait timeout. The workload therefore keeps conflicting
// transactions on different connections: each update executor transfers
// inside its own partition of the written range, and the zero-epsilon
// queries, which share the primary's connection with the updates, read
// only the few objects no update writes. Queries routed to the follower
// read everything; a follower never waits.
func (r *run) replicaExecutor(ex *executor, updates bool, rng *rand.Rand) {
	const partition = replicaWritten / 8
	n := 0
	if updates {
		ex.conn = 0
		base := (ex.id % 8) * partition
		ex.gen = func() *core.Program { return transferProgram(rng, base, partition, 4) }
	} else {
		ex.conn = 1
		ex.gen = func() *core.Program {
			n++
			if n%zeroTILEvery == 0 {
				// Must be served by the primary.
				objs := distinctObjects(rng, 8, replicaObjects-replicaWritten)
				for i := range objs {
					objs[i] += replicaWritten
				}
				return core.NewQuery(0, objs...)
			}
			return core.NewQuery(replicaTIL, distinctObjects(rng, 8, replicaObjects)...)
		}
	}
	ex.ship = func(p *core.Program) (*client.Result, int, error) { return r.router.RunRetry(p, maxAttempts) }
}

// one runs a single transaction due at the given time.
func (ex *executor) one(r *run, due int64, paced bool) {
	p := ex.gen()
	pick := int64(time.Since(r.epoch))
	if !paced {
		due = pick
	}
	res, attempts, err := ex.ship(p)
	s := sample{query: p.Kind == core.Query, attempts: int32(attempts), exec: int32(ex.id),
		due: due, pick: pick, done: int64(time.Since(r.epoch))}
	if ex.keepProg {
		s.prog = p
	}
	switch {
	case err == nil:
		s.ok = true
		for _, op := range p.Ops {
			if op.Kind == core.OpWrite {
				ex.deltas[op.Object] += op.Delta
			}
		}
		if ex.audit != nil {
			err = ex.audit(p, res)
		}
	default:
		if _, aborted := client.IsAbort(err); aborted {
			err = nil // exhausted its attempts: failed, but the outcome is known
		}
	}
	if err != nil && ex.firstErr == nil {
		ex.firstErr = err
	}
	ex.samples = append(ex.samples, s)
}

// phaseResult is what one phase measured.
type phaseResult struct {
	start, end int64 // ns since epoch
	samples    []sample
	late       []time.Duration
	behind     int
	// unfinished counts arrivals still queued or in flight when the
	// grace period after the phase ran out.
	unfinished int
}

// phase drives the executors for the given length. In the paced phase
// every stream follows its schedule; in the saturation phase executors
// run back to back, except streams that stay paced by definition.
func (r *run) phase(length time.Duration, saturate bool) (*phaseResult, error) {
	rates := make([]float64, len(r.spec.streams))
	anyPaced := false
	for i, st := range r.spec.streams {
		if !saturate || st.pacedInSat {
			rates[i] = r.spec.rate * st.share
			anyPaced = true
		}
	}
	for _, ex := range r.execs {
		ex.samples = ex.samples[:0]
	}
	start := time.Now()
	deadline := start.Add(length)
	pc := newPacer(r.epoch, rates, length)
	var abandon atomic.Bool
	var unfinished atomic.Int64
	var wg sync.WaitGroup
	for _, ex := range r.execs {
		wg.Add(1)
		go func(ex *executor) {
			defer wg.Done()
			if q := pc.streams[ex.stream].q; q != nil {
				for a := range q {
					if abandon.Load() {
						unfinished.Add(1)
						continue
					}
					ex.one(r, int64(a), true)
				}
				return
			}
			for time.Now().Before(deadline) {
				ex.one(r, 0, false)
			}
		}(ex)
	}
	if anyPaced {
		pc.run(start, length)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	grace := time.NewTimer(time.Until(deadline) + graceAfterPhase)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		// Whatever is still queued will never run; whatever is in flight
		// gets a last chance to return before the run is declared stuck.
		abandon.Store(true)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return nil, errors.New("executors still blocked 12s after the phase ended")
		}
	}
	res := &phaseResult{
		start: int64(start.Sub(r.epoch)), end: int64(deadline.Sub(r.epoch)),
		late: pc.late, behind: pc.behind, unfinished: int(unfinished.Load()),
	}
	for _, ex := range r.execs {
		res.samples = append(res.samples, ex.samples...)
		if ex.firstErr != nil {
			return res, ex.firstErr
		}
	}
	return res, nil
}
