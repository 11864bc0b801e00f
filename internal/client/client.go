// Package client implements the transaction clients of the prototype:
// they connect to the central server, synchronize their virtual clock,
// submit transactions operation by operation over a synchronous
// connection, and resubmit aborted transactions with fresh timestamps
// until they commit (§6).
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// ErrClientClosed is returned by every call on a Client after Close: a
// closed client must fail with one recognizable error, not whatever raw
// io.EOF or poll error the dead connection happens to produce.
var ErrClientClosed = errors.New("client: closed")

// ErrTxnFinished is returned by operations on a transaction attempt that
// already committed or aborted. The client short-circuits these locally:
// round-tripping to the server just to learn the transaction is gone
// wastes an RPC and, under simulated per-operation latency, real time.
var ErrTxnFinished = errors.New("client: transaction already finished")

// AbortError is the client-side view of a server abort; the retry loop
// catches it and resubmits.
type AbortError struct {
	Reason  metrics.AbortReason
	Message string
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("client: aborted (%s): %s", e.Reason, e.Message)
}

// IsAbort reports whether err is a server abort.
func IsAbort(err error) (*AbortError, bool) {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}

// RedirectError is the client-side view of a replica redirect: the
// server the request reached is a bounded-stale follower that must not
// serve it — an update ET, or a zero-epsilon query that admits no
// replication lag. The Router catches it and replays the transaction
// against the primary.
type RedirectError struct {
	Message string
}

// Error implements error.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("client: redirected to primary: %s", e.Message)
}

// IsRedirect reports whether err is a replica redirect.
func IsRedirect(err error) bool {
	var re *RedirectError
	return errors.As(err, &re)
}

// Options configures a client connection.
type Options struct {
	// Site is this client's site id, appended to every timestamp for
	// uniqueness across clients (§6).
	Site int
	// Clock is the client's local clock; nil means the wall clock. The
	// paper's workstation clocks disagreed by up to two minutes —
	// simulate that with tsgen.SkewedClock.
	Clock tsgen.Clock
	// SyncSamples is the number of round trips used to estimate the
	// clock correction factor; zero means 4.
	SyncSamples int
	// CallTimeout bounds each synchronous RPC round trip (including the
	// sync handshake probes). Zero means no deadline — the seed
	// behavior, where a dropped response frame hangs the client forever.
	// It only takes effect when the underlying stream supports
	// deadlines (net.Conn does; in-process test pipes may not).
	CallTimeout time.Duration
	// Pipeline is the maximum number of request frames the client keeps
	// in flight on the connection. Zero or one keeps the seed protocol's
	// synchronous single-slot path — byte-identical frames, no extra
	// goroutines. Greater than one starts the demultiplexing core
	// (pipeline.go): requests travel in Tagged envelopes, a writer
	// goroutine coalesces queued frames into single flushes, and a
	// reader goroutine matches replies to waiters by tag, so calls and
	// batches may be issued concurrently.
	Pipeline int
	// Dialer overrides how Dial opens the connection; nil means
	// net.Dial("tcp", addr). Fault-injection harnesses use this to
	// interpose faultnet wrappers.
	Dialer func(addr string) (net.Conn, error)
	// Backoff bounds the retry delays of RunRetry; nil means
	// DefaultBackoff(). An explicit &Backoff{} (zero Base) disables
	// backoff entirely.
	Backoff *Backoff
	// ResumeAfter floors this client's timestamps past a predecessor's
	// last issued timestamp (LastTimestamp of the connection being
	// replaced). A reconnecting caller that keeps its site id MUST pass
	// it: the new connection re-estimates its clock correction, and
	// without the floor it can reissue a (tick, site) pair the old
	// connection already committed under — two committed writes sharing
	// a timestamp, which the engine aborts and the oracle refutes.
	ResumeAfter tsgen.Timestamp
}

// Backoff is a bounded exponential backoff schedule with jitter. After
// the n-th consecutive abort RunRetry sleeps for Base·2ⁿ⁻¹ capped at
// Max, with the final delay drawn uniformly from [(1−Jitter)·d, d].
// Without it, abort storms in the low-epsilon regime (the paper's
// Figure 9 shows aborts climbing steeply as epsilon shrinks) degenerate
// into livelock: every client resubmits instantly with a fresh — and
// instantly late — timestamp.
type Backoff struct {
	// Base is the first delay; zero disables backoff.
	Base time.Duration
	// Max caps the delay; zero means no cap.
	Max time.Duration
	// Jitter is the fraction of each delay randomized away, in [0, 1].
	// Jitter decorrelates clients that aborted on the same conflict, so
	// they do not retry in lockstep and collide again.
	Jitter float64
}

// DefaultBackoff is the schedule used when Options.Backoff is nil:
// sub-millisecond first retry, capped well below the paper's RPC
// latency scale so throughput experiments stay comparable.
func DefaultBackoff() Backoff {
	return Backoff{Base: 250 * time.Microsecond, Max: 25 * time.Millisecond, Jitter: 0.5}
}

// Delay returns the sleep before retry attempt n (1-based: n is the
// number of aborts seen so far). rng may be nil for a jitter-free
// schedule.
func (b Backoff) Delay(n int, rng *rand.Rand) time.Duration {
	if b.Base <= 0 || n <= 0 {
		return 0
	}
	d := b.Base
	for i := 1; i < n; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 && rng != nil {
		lo := float64(d) * (1 - b.Jitter)
		d = time.Duration(lo + rng.Float64()*(float64(d)-lo))
	}
	return d
}

// Client is one transaction client: a connection plus a synchronized
// timestamp generator. Without pipelining it is not safe for concurrent
// use — the prototype's clients are single-threaded and its RPC
// synchronous. With Options.Pipeline > 1 the call-level API (Begin and
// transaction ops, CallAsync, Batch, Run*) may be used from multiple
// goroutines; an individual Txn still belongs to one goroutine at a
// time. RunRetry's jittered backoff draws from a per-client rng and
// stays single-goroutine either way.
type Client struct {
	conn        *wire.Conn
	pipe        *pipe // demultiplexing core; nil at pipeline depth <= 1
	gen         *tsgen.Generator
	site        int
	callTimeout time.Duration
	backoff     Backoff
	rngMu       sync.Mutex
	rng         *rand.Rand // jitter source, seeded by site for determinism
	closed      atomic.Bool
}

// jitterDelay draws the next backoff delay; the lock makes the shared
// rng safe for concurrent RunRetry loops on a pipelined client.
func (c *Client) jitterDelay(attempts int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.backoff.Delay(attempts, c.rng)
}

// Dial connects to a server, performs the clock-synchronization
// handshake, and returns a ready client.
func Dial(addr string, opts Options) (*Client, error) {
	dial := opts.Dialer
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	nc, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c, err := newClient(wire.NewConn(nc), opts)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewPipe builds a client over an existing byte stream (e.g. a net.Pipe
// to an embedded server). It performs the same sync handshake as Dial.
func NewPipe(conn *wire.Conn, opts Options) (*Client, error) {
	return newClient(conn, opts)
}

func newClient(conn *wire.Conn, opts Options) (*Client, error) {
	clock := opts.Clock
	if clock == nil {
		clock = tsgen.WallClock{}
	}
	backoff := DefaultBackoff()
	if opts.Backoff != nil {
		backoff = *opts.Backoff
	}
	c := &Client{
		conn:        conn,
		gen:         tsgen.NewGenerator(opts.Site, clock),
		site:        opts.Site,
		callTimeout: opts.CallTimeout,
		backoff:     backoff,
		rng:         rand.New(rand.NewSource(int64(opts.Site)*104729 + 1)),
	}
	samples := opts.SyncSamples
	if samples <= 0 {
		samples = 4
	}
	// Virtual clock synchronization (§6): estimate server − local over a
	// few probes and install the correction factor.
	var total int64
	for i := 0; i < samples; i++ {
		local := clock.Now()
		resp, err := c.callWire(&wire.Sync{ClientTicks: local})
		if err != nil {
			return nil, fmt.Errorf("client: clock sync: %w", err)
		}
		so, ok := resp.(*wire.SyncOK)
		if !ok {
			return nil, fmt.Errorf("client: clock sync: unexpected response %v", resp.MsgType())
		}
		total += so.ServerTicks - local
	}
	c.gen.SetCorrection(total / int64(samples))
	// The floor applies after the correction: whatever the new estimate
	// says, this client never reissues a tick its predecessor used.
	c.gen.Advance(opts.ResumeAfter.Ticks())
	// The sync handshake above ran on the plain synchronous path; only a
	// fully synchronized client switches to the demultiplexing core.
	if opts.Pipeline > 1 {
		c.pipe = startPipe(conn, opts.Pipeline, c.callTimeout)
	}
	return c, nil
}

// Close closes the connection. It is idempotent: the first call closes
// and reports any close error, later calls return nil. Calls issued
// after (or racing with) Close fail with ErrClientClosed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if c.pipe != nil {
		// Tears down the core: every outstanding call fails with
		// ErrClientClosed, the connection closes, and both goroutines are
		// joined before Close returns, so a closed client leaks nothing.
		c.pipe.close()
		return nil
	}
	return c.conn.Close()
}

// Site returns the client's site id.
func (c *Client) Site() int { return c.site }

// Correction returns the installed clock correction factor.
func (c *Client) Correction() int64 { return c.gen.Correction() }

// LastTimestamp returns the most recent timestamp this client issued
// (the zero Timestamp before the first transaction). A caller replacing
// this connection while keeping the site id passes it as the successor's
// Options.ResumeAfter so the site's timestamps stay unique across the
// reconnect.
func (c *Client) LastTimestamp() tsgen.Timestamp {
	return tsgen.Make(c.gen.LastTicks(), c.site)
}

// callWire performs one deadline-bounded round trip on the wire without
// error classification (the sync handshake runs before call's abort
// mapping is meaningful).
func (c *Client) callWire(req wire.Message) (wire.Message, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if c.pipe != nil {
		// Pipelined path: per-call deadlines are armed by the pipe's
		// register (connection deadlines cannot bound individual calls
		// once several share the stream), and a Close-initiated teardown
		// already fails calls with ErrClientClosed.
		return c.pipe.call(req)
	}
	if c.callTimeout > 0 {
		if c.conn.SetDeadline(time.Now().Add(c.callTimeout)) {
			defer c.conn.SetDeadline(time.Time{})
		}
	}
	resp, err := c.conn.Call(req)
	if err != nil && c.closed.Load() {
		// A concurrent Close tore the connection under this call; the
		// raw read/write error (io.EOF, "use of closed network
		// connection") is an artifact of the teardown, not the fault.
		var we *wire.Error
		if !errors.As(err, &we) {
			return nil, ErrClientClosed
		}
	}
	return resp, err
}

// call sends a request and converts abort responses to AbortError.
func (c *Client) call(req wire.Message) (wire.Message, error) {
	resp, err := c.callWire(req)
	if err != nil {
		return nil, mapAbort(err)
	}
	return resp, nil
}

// mapAbort converts server abort and redirect errors to their typed
// client-side forms, leaving every other error untouched.
func mapAbort(err error) error {
	var we *wire.Error
	if errors.As(err, &we) {
		switch we.Code {
		case wire.CodeAbort:
			return &AbortError{Reason: we.Reason, Message: we.Message}
		case wire.CodeRedirect:
			return &RedirectError{Message: we.Message}
		}
	}
	return err
}

// Txn is one transaction attempt in progress.
type Txn struct {
	c    *Client
	id   core.TxnID
	kind core.Kind
	done bool
}

// Begin starts an attempt with a fresh timestamp.
func (c *Client) Begin(kind core.Kind, spec core.BoundSpec) (*Txn, error) {
	resp, err := c.call(&wire.Begin{Kind: kind, Timestamp: c.gen.Next(), Spec: spec})
	if err != nil {
		return nil, err
	}
	ok, isOK := resp.(*wire.BeginOK)
	if !isOK {
		return nil, fmt.Errorf("client: unexpected Begin response %v", resp.MsgType())
	}
	return &Txn{c: c, id: ok.Txn, kind: kind}, nil
}

// Read reads one object.
func (t *Txn) Read(obj core.ObjectID) (core.Value, error) {
	if t.done {
		return 0, ErrTxnFinished
	}
	resp, err := t.c.call(&wire.Read{Txn: t.id, Object: obj})
	if err != nil {
		t.noteIfAbort(err)
		return 0, err
	}
	v, ok := resp.(*wire.Value)
	if !ok {
		return 0, fmt.Errorf("client: unexpected Read response %v", resp.MsgType())
	}
	return v.Value, nil
}

// Write writes an absolute value.
func (t *Txn) Write(obj core.ObjectID, value core.Value) error {
	_, err := t.writeMsg(&wire.Write{Txn: t.id, Object: obj, Value: value})
	return err
}

// WriteDelta writes current+delta and returns the value written.
func (t *Txn) WriteDelta(obj core.ObjectID, delta core.Value) (core.Value, error) {
	return t.writeMsg(&wire.Write{Txn: t.id, Object: obj, Delta: true, Value: delta})
}

func (t *Txn) writeMsg(m *wire.Write) (core.Value, error) {
	if t.done {
		return 0, ErrTxnFinished
	}
	resp, err := t.c.call(m)
	if err != nil {
		t.noteIfAbort(err)
		return 0, err
	}
	v, ok := resp.(*wire.Value)
	if !ok {
		return 0, fmt.Errorf("client: unexpected Write response %v", resp.MsgType())
	}
	return v.Value, nil
}

// Commit finishes the attempt.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnFinished
	}
	_, err := t.c.call(&wire.Commit{Txn: t.id})
	if err == nil {
		t.done = true
	} else {
		t.noteIfAbort(err)
	}
	return err
}

// Abort abandons the attempt.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	_, err := t.c.call(&wire.Abort{Txn: t.id})
	t.done = true
	return err
}

// noteIfAbort marks the attempt finished when the server aborted it
// internally (the footprint is already cleaned up server-side).
func (t *Txn) noteIfAbort(err error) {
	if _, ok := IsAbort(err); ok {
		t.done = true
	}
}

// Result mirrors tso.Result for network executions.
type Result struct {
	Values []core.Value
	Sum    core.Value
}

// RunProgram executes one attempt of a program over the connection. Every
// error exit aborts the attempt first: returning with the transaction
// still open would leak it server-side, where its pending writes keep
// blocking conflicting operations until the connection dies. The abort is
// a no-op when the server already finished the transaction.
func (c *Client) RunProgram(p *core.Program) (*Result, error) {
	t, err := c.Begin(p.Kind, p.Bounds)
	if err != nil {
		return nil, err
	}
	res, err := runOps(t, p)
	if err == nil {
		err = t.Commit()
	}
	if err != nil {
		_ = t.Abort() // best-effort cleanup; the original error wins
		return nil, err
	}
	return res, nil
}

// runOps executes a program's operations against one attempt.
func runOps(t *Txn, p *core.Program) (*Result, error) {
	res := &Result{Values: make([]core.Value, 0, len(p.Ops))}
	for _, op := range p.Ops {
		switch op.Kind {
		case core.OpRead:
			v, err := t.Read(op.Object)
			if err != nil {
				return nil, err
			}
			res.Values = append(res.Values, v)
			res.Sum += v
		case core.OpWrite:
			var v core.Value
			var err error
			if op.UseDelta {
				v, err = t.WriteDelta(op.Object, op.Delta)
			} else {
				v, err = op.Value, t.Write(op.Object, op.Value)
			}
			if err != nil {
				return nil, err
			}
			res.Values = append(res.Values, v)
		}
	}
	return res, nil
}

// RunRetry executes a program to completion, resubmitting after every
// abort with a fresh timestamp — the client loop of §6. maxAttempts caps
// retries; zero means unlimited. It returns the result and the number of
// attempts made.
//
// Between attempts it sleeps per the client's Backoff schedule. The seed
// prototype retried immediately; at low epsilon that turns the Figure 9
// abort climb into a hot loop where every client's resubmission is
// instantly late again.
func (c *Client) RunRetry(p *core.Program, maxAttempts int) (*Result, int, error) {
	return c.retry(maxAttempts, func() (*Result, error) { return c.RunProgram(p) })
}

// retry is the one retry loop behind RunRetry, RunRetryBatched and
// Router.RunRetry: it runs attempt until it commits, returns an error
// that is not an abort, or has been tried maxAttempts times (zero means
// unlimited), sleeping per this client's Backoff schedule after every
// abort.
func (c *Client) retry(maxAttempts int, attempt func() (*Result, error)) (*Result, int, error) {
	attempts := 0
	for {
		attempts++
		res, err := attempt()
		if err == nil {
			return res, attempts, nil
		}
		if _, isAbort := IsAbort(err); !isAbort {
			return nil, attempts, err
		}
		if maxAttempts > 0 && attempts >= maxAttempts {
			return nil, attempts, err
		}
		if d := c.jitterDelay(attempts); d > 0 {
			time.Sleep(d)
		}
	}
}

// ServerStats is the full observability payload of the Stats probe.
type ServerStats struct {
	Snapshot     metrics.Snapshot
	ProperMisses int64
	// Live is the server's live-transaction gauge at probe time.
	Live int64
	// Latencies holds the server's per-path histograms; quantiles come
	// from HistogramSnapshot.Quantile.
	Latencies metrics.LatencySet
}

// Stats fetches the server's performance counters.
func (c *Client) Stats() (metrics.Snapshot, int64, error) {
	st, err := c.StatsFull()
	return st.Snapshot, st.ProperMisses, err
}

// StatsFull fetches the counters together with the live-transaction gauge
// and the per-path latency histograms added in protocol version 2.
func (c *Client) StatsFull() (ServerStats, error) {
	resp, err := c.call(&wire.Stats{})
	if err != nil {
		return ServerStats{}, err
	}
	so, ok := resp.(*wire.StatsOK)
	if !ok {
		return ServerStats{}, fmt.Errorf("client: unexpected Stats response %v", resp.MsgType())
	}
	return ServerStats{
		Snapshot:     so.Snapshot,
		ProperMisses: so.ProperMisses,
		Live:         so.Live,
		Latencies:    so.Latencies,
	}, nil
}
