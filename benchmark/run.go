package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"github.com/epsilondb/epsilondb/internal/client"
	"github.com/epsilondb/epsilondb/internal/core"
)

// auditChunk is how many objects one audit query reads.
const auditChunk = 256

// auditGap separates the initial audit from the load. Connections agree
// on the time only to within their clock-sync error, and no transaction
// of the load may be stamped older than the audit it is checked against;
// the gap is far wider than that error.
const auditGap = 2 * time.Millisecond

// audit reads every object through one connection, in a few large
// zero-conflict queries, and returns the values by object id. A follower
// refuses TIL = 0, so it is audited with an unbounded limit instead.
func audit(c *client.Client, objects int, til core.Distance, attempts int) ([]core.Value, error) {
	out := make([]core.Value, 0, objects)
	for base := 0; base < objects; base += auditChunk {
		ids := make([]core.ObjectID, 0, auditChunk)
		for i := base; i < min(base+auditChunk, objects); i++ {
			ids = append(ids, core.ObjectID(i))
		}
		res, _, err := c.RunRetryBatched(core.NewQuery(til, ids...), 0, attempts)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Values...)
	}
	return out, nil
}

// startRun brings a cluster up and connects to it: everything setup_s
// times. dial overrides how connections are opened (counting or tracing
// wrappers); nil means plain TCP.
func startRun(e *env, spec *workloadSpec, seed int64, tr *tracer, dial func(string) (net.Conn, error)) (*run, error) {
	cl, err := startCluster(e, spec, seed, tr)
	if err != nil {
		return nil, err
	}
	r := &run{spec: spec, seed: seed, cl: cl, epoch: time.Now()}
	if tr != nil {
		r.epoch = tr.epoch
	}
	if err := r.connect(dial); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *run) connect(dial func(string) (net.Conn, error)) error {
	n := numConns()
	if r.spec.replica {
		n = 2 // one to the primary, one to the follower
	}
	for i := 0; i < n; i++ {
		addr := r.cl.addrs[0]
		if r.spec.replica {
			addr = r.cl.addrs[i]
		}
		c, err := client.Dial(addr, client.Options{Site: 1 + i, Pipeline: r.spec.pipeline, Dialer: dial})
		if err != nil {
			return err
		}
		r.conns = append(r.conns, c)
	}
	var err error
	if r.initial, err = audit(r.conns[0], r.spec.objects, 0, 0); err != nil {
		return fmt.Errorf("initial audit: %w", err)
	}
	if r.spec.replica {
		r.router = client.NewRouter(r.conns[0], r.conns[1])
		// The follower starts empty and bootstraps from the feed; it is
		// ready once it serves the primary's state.
		if err := r.awaitFollower(r.initial, 20*time.Second); err != nil {
			return fmt.Errorf("follower bootstrap: %w", err)
		}
		r.cl.bootstrap = time.Since(r.cl.followerStarted)
	}
	return nil
}

// awaitFollower polls the follower until an audit of it equals want.
func (r *run) awaitFollower(want []core.Value, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got, err := audit(r.conns[1], r.spec.objects, core.NoLimit, 1)
		if err == nil && slices.Equal(got, want) {
			return nil
		}
		if err != nil {
			if _, aborted := client.IsAbort(err); !aborted {
				return err
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower state still differs from the primary's after %v (last error: %v)", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *run) close() {
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.conns = nil
	r.cl.stop()
}

// model is the state the generator expects: the initial audit plus the
// delta writes of every acknowledged commit. Delta writes commute, so
// the model is exact whatever order the server serialized them in.
func (r *run) model() []core.Value {
	m := slices.Clone(r.initial)
	for _, ex := range r.execs {
		for obj, d := range ex.deltas {
			m[obj] += d
		}
	}
	return m
}

// verify runs the workload's correctness gates on the quiesced system.
// breakGate names one gate whose expectation is deliberately corrupted,
// to show that the gate fails the run.
func (r *run) verify(breakGate string) (recoverTook time.Duration, recovered int, err error) {
	spec := r.spec
	want := r.model()
	if breakGate == "model" {
		want[0]++
	}
	got, err := audit(r.conns[0], spec.objects, 0, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("final audit: %w", err)
	}
	if err := equalState("final state", got, want); err != nil {
		return 0, 0, err
	}
	if spec.transfers {
		var total core.Value
		for _, v := range got {
			total += v
		}
		wantTotal := core.Value(spec.objects) * initialBalance
		if breakGate == "conservation" {
			wantTotal++
		}
		if total != wantTotal {
			return 0, 0, fmt.Errorf("conservation: bank holds %d, want %d", total, wantTotal)
		}
	}
	st, err := r.conns[0].StatsFull()
	if err != nil {
		return 0, 0, err
	}
	if st.Live != 0 {
		return 0, 0, fmt.Errorf("%d transactions still live on the quiesced server", st.Live)
	}

	if spec.replica {
		if err := r.verifyReplica(got, breakGate); err != nil {
			return 0, 0, err
		}
	}
	if spec.durable && !spec.replica {
		// kill -9, restart on the same directory: the recovered balances
		// must equal the model of acknowledged transfers exactly.
		for _, c := range r.conns {
			_ = c.Close()
		}
		r.conns = nil
		recoverTook, recovered, err = r.cl.crashAndRestart()
		if err != nil {
			return 0, 0, fmt.Errorf("restart after kill: %w", err)
		}
		c, err := client.Dial(r.cl.addrs[0], client.Options{Site: 1})
		if err != nil {
			return 0, 0, err
		}
		r.conns = []*client.Client{c}
		after, err := audit(c, spec.objects, 0, 0)
		if err != nil {
			return 0, 0, fmt.Errorf("audit after recovery: %w", err)
		}
		if breakGate == "recovery" {
			want[1]--
		}
		if err := equalState("recovered state", after, want); err != nil {
			return 0, 0, err
		}
	}
	return recoverTook, recovered, nil
}

// verifyReplica checks that the follower converged to the primary's
// head and that zero-epsilon queries never touch it.
func (r *run) verifyReplica(primary []core.Value, breakGate string) error {
	want := primary
	if breakGate == "replica" {
		want = slices.Clone(primary)
		want[2]++
	}
	if err := r.awaitFollower(want, 5*time.Second); err != nil {
		return fmt.Errorf("replica convergence: %w", err)
	}
	before := r.router.Stats()
	const probes = 20
	for i := 0; i < probes; i++ {
		if _, _, err := r.router.RunRetry(core.NewQuery(0, 0, 1, 2, 3), maxAttempts); err != nil {
			return fmt.Errorf("zero-epsilon probe: %w", err)
		}
	}
	after := r.router.Stats()
	if breakGate == "routing" {
		after.ReplicaRuns++
	}
	if after.ReplicaRuns != before.ReplicaRuns || after.Redirects != before.Redirects ||
		after.PrimaryRuns != before.PrimaryRuns+probes {
		return fmt.Errorf("zero-epsilon routing: %d TIL=0 queries moved the router from %+v to %+v", probes, before, after)
	}
	return nil
}

func equalState(what string, got, want []core.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d objects, want %d", what, len(got), len(want))
	}
	var diffs []error
	for i := range got {
		if got[i] != want[i] && len(diffs) < 5 {
			diffs = append(diffs, fmt.Errorf("object %d is %d, want %d", i, got[i], want[i]))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s differs from the model of acknowledged commits: %w", what, errors.Join(diffs...))
	}
	return nil
}
