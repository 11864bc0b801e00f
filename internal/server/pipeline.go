package server

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// The server half of pipelining (DESIGN.md §12). A connection switches
// into pipelined mode on its first Tagged or Batch frame and stays
// there: from then on every response is emitted by a dedicated response
// writer goroutine, which lets replies leave in completion order rather
// than arrival order. Two things exploit that freedom:
//
//   - Commits dispatch asynchronously. Commit is the one operation that
//     blocks on durability (the WAL's group-commit fsync), so executing
//     it inline would stall every later op behind the disk. Instead the
//     connection goroutine spawns a commit dispatcher and keeps
//     decoding; reads and writes of other transactions proceed while
//     the fsync is in flight.
//
//   - The response writer coalesces. Responses that are ready together
//     — typically a group of commit acks released by one fsync, or the
//     inline replies of a batch — are folded into one BatchReply frame
//     and one flush, mirroring the client writer's small-write
//     coalescing.
//
// The untagged path is untouched: a connection that never sends an
// envelope frame is served by the seed loop, byte-identical and
// allocation-free. Once pipelined, an untagged frame is a protocol
// error and drops the connection. The seed loop stays because it is
// faster: on a 2-vCPU host, serving depth-1 clients on the tagged path
// only cut hot-mixed commit_txn_per_s by 7.3 % (5 run pairs), a cost the
// codec-only wire.roundtrip_op_ns probe cannot see.

// respBufPool feeds the pipelined dispatch path, where several
// responses are in flight per connection and the conn-local respBuf
// cannot be reused. Buffers return to the pool after their response is
// on the wire.
var respBufPool = sync.Pool{New: func() any { return new(respBuf) }}

// taggedResp is one response queued for the response writer.
type taggedResp struct {
	tag uint32
	msg wire.Message
	rb  *respBuf // released to respBufPool once msg is written
}

// outQueueDepth bounds the response queue. A full queue applies
// backpressure to the connection goroutine and the commit dispatchers;
// the writer drains it in coalesced frames, so the bound is generous.
const outQueueDepth = 256

// maxReplyCoalesce caps how many queued responses fold into one
// BatchReply frame (and bounds the frame size).
const maxReplyCoalesce = 64

// connPipeline is the pipelined-mode state of one connection.
type connPipeline struct {
	s    *Server
	conn *wire.Conn

	out  chan taggedResp // dispatch results → response writer
	done chan struct{}   // closed when the response writer exits
	wg   sync.WaitGroup  // outstanding async commit dispatchers

	// failed flips when a response write fails; the writer then drains
	// without writing (so producers never block on a dead peer) and the
	// connection goroutine exits at its next check.
	failed atomic.Bool
}

// newConnPipeline switches a connection into pipelined mode.
func newConnPipeline(s *Server, conn *wire.Conn) *connPipeline {
	cp := &connPipeline{
		s:    s,
		conn: conn,
		out:  make(chan taggedResp, outQueueDepth),
		done: make(chan struct{}),
	}
	go cp.writeLoop()
	return cp
}

// shutdown completes the pipelined teardown: async commits finish and
// enqueue their acks, the queue closes, and the writer drains it before
// the caller closes the connection — no ack is dropped on a clean exit.
func (cp *connPipeline) shutdown() {
	cp.wg.Wait()
	close(cp.out)
	<-cp.done
}

// handleOp executes one tagged operation. Commits go to an async
// dispatcher; everything else executes inline, in arrival order, on the
// connection goroutine (preserving per-transaction op order without any
// reordering machinery). Ownership of inner transfers here: it is
// recycled once executed.
func (cp *connPipeline) handleOp(tag uint32, inner wire.Message, open map[core.TxnID]struct{}) {
	if m, isCommit := inner.(*wire.Commit); isCommit {
		// The open-set update happens here, on the connection goroutine,
		// so the map never crosses goroutines. Matching trackTxn: a
		// commit finishes the transaction whatever its outcome.
		delete(open, m.Txn)
		cp.wg.Add(1)
		go cp.dispatchCommit(tag, m)
		return
	}
	rb := respBufPool.Get().(*respBuf)
	resp := cp.s.dispatch(inner, rb)
	trackTxn(open, inner, resp)
	wire.Recycle(inner)
	cp.out <- taggedResp{tag: tag, msg: resp, rb: rb}
}

// dispatchCommit runs one commit to durability and queues its ack.
// Dispatchers blocked on the same group-commit fsync complete together,
// and their acks coalesce into one BatchReply downstream.
func (cp *connPipeline) dispatchCommit(tag uint32, m *wire.Commit) {
	defer cp.wg.Done()
	rb := respBufPool.Get().(*respBuf)
	var resp wire.Message
	if err := cp.s.engine.Commit(m.Txn); err != nil {
		resp = rb.wireError(err)
	} else {
		resp = &rb.ok
	}
	wire.Recycle(m)
	cp.out <- taggedResp{tag: tag, msg: resp, rb: rb}
}

// writeLoop is the response writer: it drains the queue, folding
// responses that are ready together into one BatchReply frame, and owns
// the connection's write side (and write deadline) in pipelined mode.
// After a write error it keeps draining so producers never block; it
// exits when the queue closes.
func (cp *connPipeline) writeLoop() {
	defer close(cp.done)
	var reply wire.TaggedReply
	var batch wire.BatchReply
	items := make([]taggedResp, 0, maxReplyCoalesce)
	for {
		first, ok := <-cp.out
		if !ok {
			return
		}
		items = append(items[:0], first)
	drain:
		for len(items) < maxReplyCoalesce {
			select {
			case r, ok := <-cp.out:
				if !ok {
					break drain
				}
				items = append(items, r)
			default:
				break drain
			}
		}
		if !cp.failed.Load() {
			if cp.s.opts.WriteTimeout > 0 {
				cp.conn.SetWriteDeadline(time.Now().Add(cp.s.opts.WriteTimeout))
			}
			var err error
			if len(items) == 1 {
				reply.Tag, reply.Inner = items[0].tag, items[0].msg
				err = cp.conn.WriteMessage(&reply)
			} else {
				batch.Replies = batch.Replies[:0]
				for i := range items {
					batch.Replies = append(batch.Replies, wire.BatchItem{Tag: items[i].tag, Msg: items[i].msg})
				}
				err = cp.conn.WriteMessage(&batch)
			}
			if err != nil {
				cp.failed.Store(true)
				cp.s.opts.Logf("server: %s: %v", cp.conn.RemoteAddr(), err)
			}
		}
		for i := range items {
			if items[i].rb != nil {
				respBufPool.Put(items[i].rb)
			}
			items[i] = taggedResp{}
		}
	}
}
