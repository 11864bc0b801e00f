package client

import (
	"fmt"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// The asynchronous call surface. CallAsync and Batch expose the
// demultiplexing core directly; RunProgramBatched and RunRetryBatched
// build on Batch to run a whole transaction program in a handful of
// round trips instead of one per operation. On a client without
// pipelining (Options.Pipeline <= 1) every entry point degrades to the
// synchronous path with identical semantics, so callers need not branch
// on configuration.

// Pending is a handle to an in-flight call issued with CallAsync. It is
// resolved by Wait; a Pending belongs to one goroutine at a time.
type Pending struct {
	call *pendingCall // nil once resolved (or on the synchronous path)
	resp wire.Message
	err  error
}

// Wait blocks until the call resolves and returns its response, with
// server aborts mapped to AbortError exactly like synchronous calls.
// Wait is idempotent: later calls return the cached result.
func (p *Pending) Wait() (wire.Message, error) {
	if p.call != nil {
		<-p.call.done
		p.resp, p.err = callResult(p.call)
		p.call = nil
	}
	if p.err != nil {
		return nil, mapAbort(p.err)
	}
	return p.resp, nil
}

// CallAsync issues one request without waiting for its response. On a
// pipelined client the call occupies one pipeline slot until resolved
// (CallAsync itself blocks only while the pipeline is at depth); on a
// synchronous client the round trip completes before CallAsync returns
// and Wait merely reports it.
func (c *Client) CallAsync(req wire.Message) *Pending {
	if c.pipe == nil {
		resp, err := c.callWire(req)
		return &Pending{resp: resp, err: err}
	}
	if c.closed.Load() {
		return &Pending{err: ErrClientClosed}
	}
	call, err := c.pipe.register(req)
	if err != nil {
		return &Pending{err: err}
	}
	if err := c.pipe.enqueue(sendItem{calls: []*pendingCall{call}}); err != nil {
		<-call.done // teardown resolved it; Wait reports that error
	}
	return &Pending{call: call}
}

// BatchResult is one operation's outcome within a Batch. Each op
// succeeds or fails alone — the batch is a transport optimization, not
// an atomicity domain.
type BatchResult struct {
	Msg wire.Message
	Err error
}

// Batch executes a sequence of batchable requests (wire.Batchable
// types) and returns their positional results. On a pipelined client
// the ops travel in one CRC-framed Batch frame and their replies are
// demultiplexed by tag; on a synchronous client they run as ordinary
// sequential calls. The returned error reports failures to issue the
// batch at all (a non-batchable type, a broken connection); per-op
// failures land in the corresponding BatchResult.
func (c *Client) Batch(reqs []wire.Message) ([]BatchResult, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if c.pipe == nil {
		results := make([]BatchResult, len(reqs))
		for i, req := range reqs {
			if !wire.Batchable(req.MsgType()) {
				return nil, fmt.Errorf("client: %v is not batchable", req.MsgType())
			}
			results[i].Msg, results[i].Err = c.call(req)
		}
		return results, nil
	}
	results, err := c.pipe.batch(reqs)
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Err = mapAbort(results[i].Err)
	}
	return results, nil
}

// RunProgramBatched executes one attempt of a program like RunProgram,
// but ships the operations (and the final commit) in Batch frames of at
// most batchSize ops — batchSize <= 0 means one frame for the whole
// program, turning an N-op transaction into two round trips (Begin,
// then ops+Commit). Semantics match RunProgram: the first failing op
// decides the attempt, and every error exit aborts the attempt so no
// transaction leaks server-side.
//
// The latency trade is real: a batched attempt cannot observe an abort
// until the whole frame's replies return, so under heavy conflict the
// per-op RunProgram wastes less work per abort. The open-loop load
// generator measures exactly this trade.
//
// On a client without pipelining it is RunProgram: a synchronous Batch
// runs every op even after one aborts, and each op past the abort is a
// wasted round trip answered with unknown-txn.
func (c *Client) RunProgramBatched(p *core.Program, batchSize int) (*Result, error) {
	if c.pipe == nil {
		return c.RunProgram(p)
	}
	t, err := c.Begin(p.Kind, p.Bounds)
	if err != nil {
		return nil, err
	}
	reqs := make([]wire.Message, 0, len(p.Ops)+1)
	for _, op := range p.Ops {
		switch op.Kind {
		case core.OpRead:
			reqs = append(reqs, &wire.Read{Txn: t.id, Object: op.Object})
		case core.OpWrite:
			w := &wire.Write{Txn: t.id, Object: op.Object}
			if op.UseDelta {
				w.Delta, w.Value = true, op.Delta
			} else {
				w.Value = op.Value
			}
			reqs = append(reqs, w)
		}
	}
	reqs = append(reqs, &wire.Commit{Txn: t.id})
	if batchSize <= 0 {
		batchSize = len(reqs)
	}

	res := &Result{Values: make([]core.Value, 0, len(p.Ops))}
	var firstErr error
scan:
	for start := 0; start < len(reqs); start += batchSize {
		end := min(start+batchSize, len(reqs))
		results, err := c.Batch(reqs[start:end])
		if err != nil {
			firstErr = err
			break
		}
		for i, r := range results {
			// The first failing op decides the attempt; later results of
			// the same frame are collateral of the server-side abort.
			if r.Err != nil {
				firstErr = r.Err
				break scan
			}
			if start+i == len(reqs)-1 {
				// The commit ack.
				t.done = true
				continue
			}
			v, ok := r.Msg.(*wire.Value)
			if !ok {
				firstErr = fmt.Errorf("client: unexpected op response %v", r.Msg.MsgType())
				break scan
			}
			res.Values = append(res.Values, v.Value)
			if p.Ops[start+i].Kind == core.OpRead {
				res.Sum += v.Value
			}
		}
	}
	if firstErr != nil {
		if _, isAbort := IsAbort(firstErr); isAbort {
			t.done = true // server already cleaned the footprint up
		}
		_ = t.Abort() // best-effort cleanup; the original error wins
		return nil, firstErr
	}
	return res, nil
}

// RunRetryBatched is RunRetry over RunProgramBatched: it resubmits
// batched attempts after every abort with a fresh timestamp, sleeping
// per the client's Backoff schedule between attempts. maxAttempts caps
// retries; zero means unlimited.
func (c *Client) RunRetryBatched(p *core.Program, batchSize, maxAttempts int) (*Result, int, error) {
	return c.retry(maxAttempts, func() (*Result, error) { return c.RunProgramBatched(p, batchSize) })
}
