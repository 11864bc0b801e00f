package main

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/server"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// Tracing from outside the program. The traced run composes the system
// from its public constructors and puts a timing decorator at every
// layer boundary those constructors expose:
//
//   - a server.Backend around the engine (tso, or replica on a follower),
//   - a storage.Durability around the write-ahead log, splitting the
//     append from the wait for the group-commit fsync,
//   - net.Conn wrappers on both ends of every client connection
//     (server.Options.WrapConn, client.Options.Dialer); the client end
//     also keeps the bytes, so the frames can be decoded after the run
//     and each request matched to its reply by tag,
//   - the generator's own record of when each transaction was due,
//     picked up and done.
//
// Everything is recorded into memory allocated before the run and
// analysed after it (budget.go); recording a span is two clock reads
// and a store.

// layer identifies whose time a span is.
type layer uint8

const (
	layerLoadgen layer = iota
	layerClient
	layerTransit
	layerServer
	layerTSO
	layerReplica
	layerWAL
	numLayers
)

var layerNames = [numLayers]string{"loadgen", "client", "transit", "server", "tso", "replica", "wal"}

// callOp names a decorated call.
type callOp uint8

const (
	opBegin callOp = iota
	opRead
	opWrite
	opCommit
	opAbort
	opAppend
	opAckWait
)

var callOpNames = [...]string{"begin", "read", "write", "commit", "abort", "append", "ack_wait"}

// callSpan is one call into an engine or the log, timed by a decorator.
type callSpan struct {
	layer      layer
	op         callOp
	txn        core.TxnID
	start, end int64 // ns since the tracer's epoch
}

// ioEvent is one Read or Write on a wrapped connection.
type ioEvent struct {
	conn       int32
	write      bool
	start, end int64
	n          int32
}

// connTrace describes one wrapped connection end.
type connTrace struct {
	clientSide    bool
	local, remote string
	// out and in keep the bytes the client end wrote and read. Each is
	// appended to by the one goroutine that owns that direction.
	out, in   []byte
	truncated atomic.Bool
}

// tracer owns the preallocated span memory of one traced run.
type tracer struct {
	epoch time.Time

	// A recorder reserves a slot by bumping n, fills it, then bumps the
	// matching done counter; the reader waits for done to catch up, which
	// also orders it after every fill — including those of goroutines
	// nothing else waits for, like the server's feed-connection watcher.
	calls             []callSpan
	nCalls, callsDone atomic.Int64
	ios               []ioEvent
	nIOs, iosDone     atomic.Int64
	// dropped counts spans that did not fit; a nonzero count voids the
	// budget, so the run sizes the buffers generously.
	dropped atomic.Int64

	mu         sync.Mutex
	conns      []*connTrace
	captureCap int

	ackPool sync.Pool
}

// newTracer sizes the span memory for a run expected to execute about
// ops engine calls and move about captureBytes per connection direction.
func newTracer(ops, captureBytes int) *tracer {
	tr := &tracer{
		epoch:      time.Now(),
		calls:      make([]callSpan, ops),
		ios:        make([]ioEvent, ops),
		captureCap: captureBytes,
	}
	tr.ackPool.New = func() any { return new(tracedAck) }
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) call(l layer, op callOp, txn core.TxnID, start int64) {
	i := tr.nCalls.Add(1) - 1
	if i >= int64(len(tr.calls)) {
		tr.dropped.Add(1)
		return
	}
	tr.calls[i] = callSpan{layer: l, op: op, txn: txn, start: start, end: tr.now()}
	tr.callsDone.Add(1)
}

func (tr *tracer) io(conn int32, write bool, start int64, n int) {
	i := tr.nIOs.Add(1) - 1
	if i >= int64(len(tr.ios)) {
		tr.dropped.Add(1)
		return
	}
	tr.ios[i] = ioEvent{conn: conn, write: write, start: start, end: tr.now(), n: int32(n)}
	tr.iosDone.Add(1)
}

// recordedCalls and recordedIOs return what was recorded, after the run.
func (tr *tracer) recordedCalls() []callSpan {
	return tr.calls[:filled(&tr.nCalls, &tr.callsDone, len(tr.calls))]
}

func (tr *tracer) recordedIOs() []ioEvent {
	return tr.ios[:filled(&tr.nIOs, &tr.iosDone, len(tr.ios))]
}

// filled waits until every reserved slot has been filled and returns
// how many there are.
func filled(reserved, done *atomic.Int64, capacity int) int64 {
	n := min(reserved.Load(), int64(capacity))
	for done.Load() < n {
		runtime.Gosched()
	}
	return n
}

// tracedBackend times every transaction operation the server
// dispatches into the engine.
type tracedBackend struct {
	server.Backend
	tr    *tracer
	layer layer
}

func (tr *tracer) wrapBackend(b server.Backend, l layer) server.Backend {
	return &tracedBackend{Backend: b, tr: tr, layer: l}
}

func (b *tracedBackend) Begin(kind core.Kind, ts tsgen.Timestamp, spec core.BoundSpec) (core.TxnID, error) {
	t0 := b.tr.now()
	id, err := b.Backend.Begin(kind, ts, spec)
	b.tr.call(b.layer, opBegin, id, t0)
	return id, err
}

func (b *tracedBackend) Read(txn core.TxnID, obj core.ObjectID) (core.Value, error) {
	t0 := b.tr.now()
	v, err := b.Backend.Read(txn, obj)
	b.tr.call(b.layer, opRead, txn, t0)
	return v, err
}

func (b *tracedBackend) Write(txn core.TxnID, obj core.ObjectID, v core.Value) error {
	t0 := b.tr.now()
	err := b.Backend.Write(txn, obj, v)
	b.tr.call(b.layer, opWrite, txn, t0)
	return err
}

func (b *tracedBackend) WriteDelta(txn core.TxnID, obj core.ObjectID, delta core.Value) (core.Value, error) {
	t0 := b.tr.now()
	v, err := b.Backend.WriteDelta(txn, obj, delta)
	b.tr.call(b.layer, opWrite, txn, t0)
	return v, err
}

func (b *tracedBackend) Commit(txn core.TxnID) error {
	t0 := b.tr.now()
	err := b.Backend.Commit(txn)
	b.tr.call(b.layer, opCommit, txn, t0)
	return err
}

func (b *tracedBackend) Abort(txn core.TxnID) error {
	t0 := b.tr.now()
	err := b.Backend.Abort(txn)
	b.tr.call(b.layer, opAbort, txn, t0)
	return err
}

// tracedDurability times the two halves of a durable commit: framing
// the record into the pending batch, and waiting for the batch's fsync.
type tracedDurability struct {
	storage.Durability
	tr *tracer
}

func (tr *tracer) wrapDurability(d storage.Durability) storage.Durability {
	return &tracedDurability{Durability: d, tr: tr}
}

func (d *tracedDurability) LogCommit(rec *storage.TxnCommit, publish func()) (storage.Ack, error) {
	t0 := d.tr.now()
	ack, err := d.Durability.LogCommit(rec, publish)
	d.tr.call(layerWAL, opAppend, rec.Txn, t0)
	if err != nil || ack == nil {
		return ack, err
	}
	ta := d.tr.ackPool.Get().(*tracedAck)
	ta.Ack, ta.tr, ta.txn = ack, d.tr, rec.Txn
	return ta, nil
}

// tracedAck times the wait for the fsync. The engine waits on an ack
// exactly once, so Wait hands the wrapper back to the pool.
type tracedAck struct {
	storage.Ack
	tr  *tracer
	txn core.TxnID
}

func (a *tracedAck) Wait() error {
	t0 := a.tr.now()
	err := a.Ack.Wait()
	a.tr.call(layerWAL, opAckWait, a.txn, t0)
	tr := a.tr
	*a = tracedAck{}
	tr.ackPool.Put(a)
	return err
}

// tracedConn times every Read and Write on a connection; the client end
// also keeps the bytes.
type tracedConn struct {
	net.Conn
	tr *tracer
	id int32
	ct *connTrace // the capture target; nil on the server end
}

func (tr *tracer) wrapConn(nc net.Conn, clientSide bool) net.Conn {
	ct := &connTrace{clientSide: clientSide, local: nc.LocalAddr().String(), remote: nc.RemoteAddr().String()}
	c := &tracedConn{Conn: nc, tr: tr}
	if clientSide {
		ct.out = make([]byte, 0, tr.captureCap)
		ct.in = make([]byte, 0, tr.captureCap)
		c.ct = ct
	}
	tr.mu.Lock()
	c.id = int32(len(tr.conns))
	tr.conns = append(tr.conns, ct)
	tr.mu.Unlock()
	return c
}

// wrapServerConn is a server.Options.WrapConn.
func (tr *tracer) wrapServerConn(nc net.Conn) net.Conn { return tr.wrapConn(nc, false) }

// dial is a client.Options.Dialer.
func (tr *tracer) dial(addr string) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tr.wrapConn(nc, true), nil
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Read(p)
	c.tr.io(c.id, false, t0, n)
	if c.ct != nil {
		c.ct.in = c.ct.capture(c.ct.in, p[:n])
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.io(c.id, true, t0, n)
	if c.ct != nil {
		c.ct.out = c.ct.capture(c.ct.out, p[:n])
	}
	return n, err
}

// capture appends to a preallocated log and never grows it: once full
// the log is marked truncated and the budget covers only its prefix.
func (ct *connTrace) capture(log, p []byte) []byte {
	if ct.truncated.Load() || len(log)+len(p) > cap(log) {
		ct.truncated.Store(true)
		return log
	}
	return append(log, p...)
}

// countingConn counts the system calls and bytes of a client
// connection in the untraced companion run.
type countingConn struct {
	net.Conn
	c *connCounters
}

type connCounters struct {
	reads, writes, bytesIn, bytesOut atomic.Int64
}

func (c *connCounters) dial(addr string) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, c: c}, nil
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}
