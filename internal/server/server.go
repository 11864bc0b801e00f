// Package server implements the central transaction server of the
// prototype (§6). Architecturally it matches the paper's decomposition:
//
//   - the *scheduler* front-end receives transaction requests from
//     clients and orders operations by timestamp — here, the per-
//     connection goroutines dispatching into the engine;
//   - the *transaction manager* maintains per-transaction state
//     (timestamps, accumulated inconsistency) — internal/tso;
//   - the *data manager* maintains the objects and their inconsistency
//     bookkeeping — internal/storage.
//
// The database lives in main memory and is loaded from start-up data at
// launch; object limits are defined server-side (§6). A configurable
// per-operation latency reproduces the prototype's RPC cost (a null RPC
// took ~11 ms, the average call 17–20 ms) so paper-scale and scaled-down
// runs share one code path.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// Options configures a Server.
type Options struct {
	// SimulatedLatency is added to every data operation, emulating the
	// prototype's RPC round trip. Zero disables it.
	SimulatedLatency time.Duration
	// Clock answers Sync probes; nil means the wall clock. Experiments
	// use a logical clock for determinism.
	Clock tsgen.Clock
	// Logf receives connection-level diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
	// IdleTimeout bounds the wait for the next request on a connection.
	// A client that dies mid-transaction without breaking the TCP
	// stream (network partition, frozen process, a dropped request
	// frame) would otherwise pin its open transactions — and every
	// conflicting operation behind their pending writes — forever. On
	// expiry the connection is dropped and its open transactions
	// aborted. Zero disables (the seed behavior).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response; a peer that stops
	// reading cannot wedge the connection goroutine once the kernel
	// buffer fills. Zero disables.
	WriteTimeout time.Duration
	// WrapConn, when non-nil, wraps every accepted connection before it
	// is served — the hook the fault-injection harness uses. The
	// wrapper must forward deadlines and Close.
	WrapConn func(net.Conn) net.Conn
	// Feed, when non-nil, enables the replication feed: a connection
	// that sends ReplicaHello turns into a one-way committed-write
	// stream subscribed to this log. Nil rejects the handshake.
	Feed *wal.Log
}

// Backend is the engine surface the server dispatches requests into.
// *tso.Engine is the primary implementation; replica.Engine serves the
// query-only follower role.
type Backend interface {
	Begin(kind core.Kind, ts tsgen.Timestamp, spec core.BoundSpec) (core.TxnID, error)
	Read(txn core.TxnID, obj core.ObjectID) (core.Value, error)
	Write(txn core.TxnID, obj core.ObjectID, v core.Value) error
	WriteDelta(txn core.TxnID, obj core.ObjectID, delta core.Value) (core.Value, error)
	Commit(txn core.TxnID) error
	Abort(txn core.TxnID) error
	MetricsSnapshot() metrics.Snapshot
	LatencySnapshot() metrics.LatencySet
	Live() int
	Store() *storage.Store
}

// Server accepts client connections and serves the five basic operations
// plus the sync and stats probes.
type Server struct {
	engine Backend
	// tsoEngine is set when the backend is the primary TO engine; it is
	// what Engine() exposes to embedded deployments and tools.
	tsoEngine *tso.Engine
	opts      Options

	// drain is closed when shutdown begins: connection goroutines stop
	// picking up new requests, the accept loop stops backoff waits.
	drain chan struct{}

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// New returns a server around the primary TO engine.
func New(engine *tso.Engine, opts Options) *Server {
	s := NewBackend(engine, opts)
	s.tsoEngine = engine
	return s
}

// NewBackend returns a server around any Backend — the constructor the
// replica process uses to serve query transactions from a follower.
func NewBackend(engine Backend, opts Options) *Server {
	if opts.Clock == nil {
		opts.Clock = tsgen.WallClock{}
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	return &Server{
		engine: engine,
		opts:   opts,
		conns:  make(map[net.Conn]struct{}),
		drain:  make(chan struct{}),
	}
}

// Engine exposes the underlying TO engine when the server fronts one
// (nil for replica backends); used by embedded deployments and the
// measurement tools.
func (s *Server) Engine() *tso.Engine { return s.tsoEngine }

// Backend exposes the dispatch target regardless of its concrete type.
func (s *Server) Backend() Backend { return s.engine }

// Listen starts accepting on the address and returns the bound listener
// address (useful with ":0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(l); err != nil {
		l.Close()
		return nil, err
	}
	return l.Addr(), nil
}

// Serve starts accepting on an existing listener (Listen with a caller-
// built listener — fault-injecting wrappers, systemd sockets, tests).
// It returns immediately; the accept loop runs until Shutdown or Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return nil
}

// acceptBackoffMax caps the accept-loop retry delay.
const acceptBackoffMax = time.Second

// acceptLoop accepts connections until the listener closes. A failed
// Accept is fatal only when it means the listener is gone (net.ErrClosed
// on shutdown); anything else — EMFILE under fd exhaustion,
// ECONNABORTED from a peer that gave up in the backlog — is transient,
// and treating it as fatal (or retrying it hot) would let one overload
// spike take the whole endpoint down. Transient errors are logged and
// retried under exponential backoff that resets on the next success.
func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.opts.Logf("server: accept: %v (retrying in %v)", err, backoff)
			timer := time.NewTimer(backoff)
			select {
			case <-s.drain:
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		backoff = 0
		if s.opts.WrapConn != nil {
			conn = s.opts.WrapConn(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown stops the server gracefully: it stops accepting, lets every
// request already executing finish and its response reach the wire,
// aborts transactions still open on their connections (releasing engine
// state so nothing stays blocked behind their pending writes), and only
// then closes the connections. Connections idle in a read wait are
// nudged out via an immediate read deadline rather than a hard close, so
// no response is ever truncated.
//
// If ctx expires before the drain completes, the remaining connections
// are hard-closed (their open transactions are still aborted by the
// connection goroutines' cleanup on the way out). The returned error is
// the listener's close error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	l := s.listener
	s.listener = nil
	s.mu.Unlock()
	if first {
		close(s.drain)
	}
	var err error
	if l != nil {
		err = l.Close()
	}
	// Unblock connections waiting for a request; their serve loops see
	// the drain signal and exit through the open-transaction cleanup.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now()) //nolint:errcheck // best-effort nudge
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// Re-nudge periodically: a connection goroutine that was between its
	// drain check and its next read when the first nudge landed may have
	// re-armed its own (longer) deadline over it.
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return err
		case <-ticker.C:
			s.mu.Lock()
			for c := range s.conns {
				c.SetReadDeadline(time.Now()) //nolint:errcheck
			}
			s.mu.Unlock()
		case <-ctx.Done():
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			<-done
			return err
		}
	}
}

// Close is Shutdown with zero grace: in-flight requests are cut off by
// closing their connections, though open transactions are still aborted
// and engine state released before Close returns.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}

// draining reports whether shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// ServeConn serves one client connection until EOF, error, idle timeout
// or server shutdown. It may be called directly with an in-process pipe
// for embedded deployments (deadlines and shutdown nudges then apply
// only if the pipe implements them).
//
// The server tracks the transactions each connection has open and aborts
// any still live when the connection ends — whatever the exit path: a
// client that dies (or whose wire breaks, or that goes silent past the
// idle timeout) mid-transaction must not strand pending writes that
// block every later conflicting operation.
func (s *Server) ServeConn(rw io.ReadWriter) {
	conn := wire.NewConn(rw)
	open := make(map[core.TxnID]struct{})
	// rb holds this connection's response structs. On the untagged path
	// RPC is synchronous — one request in flight per connection — so the
	// previous response is always fully written before dispatch builds
	// the next one, and the loop reuses the same structs instead of
	// allocating per reply. The pipelined path draws from respBufPool
	// instead (pipeline.go).
	var rb respBuf
	defer func() {
		for txn := range open {
			// ErrUnknownTxn just means the engine finished it first.
			if err := s.engine.Abort(txn); err == nil {
				s.opts.Logf("server: %s: aborted orphaned txn %d on disconnect", conn.RemoteAddr(), txn)
			}
		}
	}()
	// cp is non-nil once the connection switched into pipelined mode.
	// Its teardown defer runs before the orphan cleanup above (LIFO):
	// async commits complete and their acks reach the wire first, so a
	// clean exit never re-aborts a transaction whose commit is in
	// flight.
	var cp *connPipeline
	defer func() {
		if cp != nil {
			cp.shutdown()
		}
	}()
	for {
		// Arm the idle deadline before checking for shutdown: the
		// shutdown nudge (an immediate read deadline) can then never be
		// lost under a later-armed longer deadline without the drain
		// check seeing the signal first.
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		if s.draining() {
			return
		}
		req, err := conn.ReadMessage()
		if err != nil {
			// An unknown message type is a protocol mismatch, not a broken
			// stream (the frame was consumed whole): tell the client which
			// tag we rejected before hanging up, so a newer client sees
			// more than a dropped connection.
			var unknown *wire.ErrUnknownMessage
			if errors.As(err, &unknown) {
				s.opts.Logf("server: %s: rejecting unknown message type %d", conn.RemoteAddr(), uint8(unknown.Tag))
				resp := &wire.Error{Code: wire.CodeGeneric, Message: unknown.Error()}
				if werr := conn.WriteMessage(resp); werr != nil {
					s.opts.Logf("server: %s: %v", conn.RemoteAddr(), werr)
				}
				return
			}
			switch {
			case s.draining():
				// The shutdown nudge, not a real fault; exit quietly.
			case isTimeout(err):
				s.opts.Logf("server: %s: idle timeout, dropping connection (%d open txns)", conn.RemoteAddr(), len(open))
			case err != io.EOF:
				s.opts.Logf("server: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		switch m := req.(type) {
		case *wire.Tagged:
			if cp == nil {
				cp = newConnPipeline(s, conn)
			}
			tag, inner := m.Tag, m.Inner
			wire.Recycle(m) // shallow: inner's ownership moves to handleOp
			cp.handleOp(tag, inner, open)

		case *wire.Batch:
			if cp == nil {
				cp = newConnPipeline(s, conn)
			}
			for i := range m.Ops {
				cp.handleOp(m.Ops[i].Tag, m.Ops[i].Msg, open)
				m.Ops[i].Msg = nil
			}
			wire.Recycle(m)

		case *wire.ReplicaHello:
			if cp != nil {
				s.opts.Logf("server: %s: ReplicaHello on a pipelined connection", conn.RemoteAddr())
				wire.Recycle(m)
				return
			}
			after := m.AfterLSN
			wire.Recycle(m)
			s.serveFeed(conn, after)
			return

		default:
			if cp != nil {
				// Once pipelined, the response writer owns the write side;
				// an untagged frame would race it for the stream.
				s.opts.Logf("server: %s: untagged %v frame on a pipelined connection", conn.RemoteAddr(), req.MsgType())
				wire.Recycle(req)
				return
			}
			if s.opts.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
			}
			resp := s.dispatch(req, &rb)
			trackTxn(open, req, resp)
			err = conn.WriteMessage(resp)
			// The request was decoded from a pool; its fields are dead once
			// the response is on the wire.
			wire.Recycle(req)
			if err != nil {
				s.opts.Logf("server: %s: %v", conn.RemoteAddr(), err)
				return
			}
		}
		if cp != nil && cp.failed.Load() {
			return
		}
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// trackTxn maintains the connection's open-transaction set from one
// request/response exchange.
func trackTxn(open map[core.TxnID]struct{}, req, resp wire.Message) {
	switch m := req.(type) {
	case *wire.Begin:
		if ok, isOK := resp.(*wire.BeginOK); isOK {
			open[ok.Txn] = struct{}{}
		}
	case *wire.Read:
		// Any error response finishes the attempt as far as this
		// connection is concerned: CodeAbort means the engine aborted it
		// internally, CodeGeneric means the transaction was unknown or
		// already finished. Keeping it in the open set would make the
		// disconnect cleanup re-abort a transaction this client no longer
		// owns.
		if _, isErr := resp.(*wire.Error); isErr {
			delete(open, m.Txn)
		}
	case *wire.Write:
		if _, isErr := resp.(*wire.Error); isErr {
			delete(open, m.Txn)
		}
	case *wire.Commit:
		// Finished on OK; on error it is either aborted (CodeAbort) or
		// already gone (unknown txn) — no longer this connection's to
		// clean up either way.
		delete(open, m.Txn)
	case *wire.Abort:
		delete(open, m.Txn)
	}
}

// respBuf holds one connection's reusable response structs; dispatch
// fills the one matching the outcome and returns its address. With one
// request in flight per connection the previous response is always dead
// by the next dispatch, so the steady-state reply path allocates nothing.
// The rare Stats probe allocates its large reply instead.
type respBuf struct {
	beginOK wire.BeginOK
	value   wire.Value
	ok      wire.OK
	syncOK  wire.SyncOK
	err     wire.Error
}

// redirecter is the structural shape of the replica package's typed
// redirect error (declared here to avoid an import the primary-only
// server never needs).
type redirecter interface{ ReplicaRedirect() bool }

// wireError maps an engine error into the reused Error response.
func (rb *respBuf) wireError(err error) *wire.Error {
	var rd redirecter
	switch {
	case errors.As(err, &rd) && rd.ReplicaRedirect():
		rb.err = wire.Error{Code: wire.CodeRedirect, Message: err.Error()}
	default:
		if ae, ok := tso.IsAbort(err); ok {
			rb.err = wire.Error{Code: wire.CodeAbort, Reason: ae.Reason, Message: ae.Error()}
		} else {
			rb.err = wire.Error{Code: wire.CodeGeneric, Message: err.Error()}
		}
	}
	return &rb.err
}

// dispatch executes one request and builds its response in rb.
func (s *Server) dispatch(req wire.Message, rb *respBuf) wire.Message {
	switch m := req.(type) {
	case *wire.Begin:
		txn, err := s.engine.Begin(m.Kind, m.Timestamp, m.Spec)
		if err != nil {
			return rb.wireError(err)
		}
		rb.beginOK.Txn = txn
		return &rb.beginOK

	case *wire.Read:
		s.simulateLatency()
		v, err := s.engine.Read(m.Txn, m.Object)
		if err != nil {
			return rb.wireError(err)
		}
		rb.value.Value = v
		return &rb.value

	case *wire.Write:
		s.simulateLatency()
		var err error
		v := m.Value
		if m.Delta {
			v, err = s.engine.WriteDelta(m.Txn, m.Object, m.Value)
		} else {
			err = s.engine.Write(m.Txn, m.Object, m.Value)
		}
		if err != nil {
			return rb.wireError(err)
		}
		rb.value.Value = v
		return &rb.value

	case *wire.Commit:
		if err := s.engine.Commit(m.Txn); err != nil {
			return rb.wireError(err)
		}
		return &rb.ok

	case *wire.Abort:
		if err := s.engine.Abort(m.Txn); err != nil {
			return rb.wireError(err)
		}
		return &rb.ok

	case *wire.Sync:
		rb.syncOK.ServerTicks = s.opts.Clock.Now()
		return &rb.syncOK

	case *wire.Stats:
		// Built per probe rather than kept in rb: StatsOK is ~20 KB of
		// histograms, and the pipelined path holds one respBuf per reply
		// in flight. The engine may run without a collector; a nil
		// collector snapshots as zeros.
		return &wire.StatsOK{
			Snapshot:     s.engine.MetricsSnapshot(),
			ProperMisses: s.engine.Store().ProperMisses(),
			Live:         int64(s.engine.Live()),
			Latencies:    s.engine.LatencySnapshot(),
		}

	default:
		rb.err = wire.Error{Code: wire.CodeGeneric, Message: fmt.Sprintf("unexpected request %v", req.MsgType())}
		return &rb.err
	}
}

// simulateLatency sleeps for the configured per-operation latency.
func (s *Server) simulateLatency() {
	if s.opts.SimulatedLatency > 0 {
		time.Sleep(s.opts.SimulatedLatency)
	}
}
