package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/epsilondb/epsilondb/internal/wire"
)

// The demultiplexing core. With Options.Pipeline > 1 a client splits its
// connection between two goroutines: a writer that drains a bounded send
// queue, coalescing queued frames into one flush (and so usually one
// syscall), and a reader that matches TaggedReply/BatchReply frames back
// to waiter slots by tag. The synchronous Call path of the seed protocol
// is preserved as the single-slot special case: a depth-1 client never
// starts the core and stays byte-identical on the wire.
//
// Lock discipline (enforced by the lockorder analyzer's client
// vocabulary): pipe.mu is a leaf mutex ordered after nothing; no channel
// receive, select or Wait may execute while it is held. The writer and
// reader goroutines therefore take mu only for slot-table bookkeeping
// and always release it before blocking on the queue, the wire, or a
// waiter.

// ErrConnBroken is wrapped into the error every outstanding call fails
// with when the pipelined connection dies underneath them — a read or
// write error, an undecodable frame, or a tag-protocol violation. Match
// with errors.Is. A Close-initiated teardown fails calls with
// ErrClientClosed instead.
var ErrConnBroken = errors.New("client: connection broken")

// ErrCallTimeout is wrapped into the error a pipelined call fails with
// when its per-call deadline (Options.CallTimeout) expires. The timeout
// resolves only that slot: the connection and every other outstanding
// call keep going, and a late response for the expired tag is discarded
// when it eventually arrives.
var ErrCallTimeout = errors.New("client: call timeout")

// callState is the lifecycle of a waiter slot, guarded by pipe.mu.
type callState uint8

const (
	// callLive: registered, response pending, waiter waiting.
	callLive callState = iota
	// callAbandoned: the waiter already gave up (per-call timeout), but
	// the tag stays registered until the response arrives or the
	// connection dies, so a late response is recognized and discarded
	// instead of being mistaken for an unknown tag.
	callAbandoned
)

// pendingCall is one waiter slot.
type pendingCall struct {
	tag   uint32
	req   wire.Message
	state callState

	// group is the slot semaphore accounting: all calls of one frame
	// (a single Tagged request, or every op of a Batch) share a group,
	// and the frame's pipeline slot is released when the last of them
	// resolves.
	group *callGroup

	// resp/err are published before done is closed.
	resp  wire.Message
	err   error
	once  sync.Once
	done  chan struct{}
	timer *time.Timer
}

// finish resolves the waiter exactly once; later resolutions (a timeout
// racing a delivery) lose.
func (c *pendingCall) finish(resp wire.Message, err error) {
	c.once.Do(func() {
		if c.timer != nil {
			c.timer.Stop()
		}
		c.resp, c.err = resp, err
		close(c.done)
	})
}

// callGroup tracks how many calls of one frame are still unresolved.
type callGroup struct {
	mu        sync.Mutex
	remaining int
	pipe      *pipe
}

// resolveOne releases the group's pipeline slot when the last member
// resolves.
func (g *callGroup) resolveOne() {
	g.mu.Lock()
	g.remaining--
	release := g.remaining == 0
	g.mu.Unlock()
	if release {
		<-g.pipe.slots
	}
}

// sendItem is one frame's worth of calls queued for the writer: a single
// tagged request, or a batch group sent as one Batch frame.
type sendItem struct {
	calls []*pendingCall
	batch bool
}

// maxCoalesce caps how many queued frames the writer folds into one
// flush.
const maxCoalesce = 64

// pipe is the per-connection demultiplexing state.
type pipe struct {
	conn        *wire.Conn
	callTimeout time.Duration

	mu      sync.Mutex
	pending map[uint32]*pendingCall
	free    []uint32
	nextTag uint32
	broken  error // sticky teardown cause; nil while healthy

	// slots bounds the number of request frames in flight or queued
	// (the pipeline depth); sendq is sized to match so enqueues after a
	// slot acquisition never block.
	slots chan struct{}
	sendq chan sendItem

	quit       chan struct{}
	readerDone chan struct{}
	writerDone chan struct{}
}

// startPipe spins up the demultiplexing core on a connection that has
// already completed the synchronous handshake.
func startPipe(conn *wire.Conn, depth int, callTimeout time.Duration) *pipe {
	p := &pipe{
		conn:        conn,
		callTimeout: callTimeout,
		pending:     make(map[uint32]*pendingCall, depth),
		nextTag:     1,
		slots:       make(chan struct{}, depth),
		sendq:       make(chan sendItem, depth),
		quit:        make(chan struct{}),
		readerDone:  make(chan struct{}),
		writerDone:  make(chan struct{}),
	}
	go p.readLoop()
	go p.writeLoop()
	return p
}

// register allocates a tag and waiter slot for one request. Completed
// tags are reused LIFO, so the tag space stays small and dense.
func (p *pipe) register(req wire.Message) (*pendingCall, error) {
	call := &pendingCall{req: req, done: make(chan struct{})}
	p.mu.Lock()
	if p.broken != nil {
		err := p.broken
		p.mu.Unlock()
		return nil, err
	}
	if n := len(p.free); n > 0 {
		call.tag = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		call.tag = p.nextTag
		p.nextTag++
	}
	p.pending[call.tag] = call
	p.mu.Unlock()
	if p.callTimeout > 0 {
		call.timer = time.AfterFunc(p.callTimeout, func() { p.abandon(call) })
	}
	return call, nil
}

// abandon resolves a call whose deadline expired without unregistering
// its tag: the slot is poisoned, not the connection.
func (p *pipe) abandon(call *pendingCall) {
	p.mu.Lock()
	if p.broken == nil && p.pending[call.tag] == call {
		call.state = callAbandoned
	}
	p.mu.Unlock()
	call.finish(nil, fmt.Errorf("%w after %v (tag %d)", ErrCallTimeout, p.callTimeout, call.tag))
}

// enqueue hands one frame's calls to the writer, blocking while the
// pipeline is at depth — but no longer than the frame's first call is
// live: slots held by abandoned calls free up only when their late
// replies arrive, which may be never.
func (p *pipe) enqueue(item sendItem) error {
	group := &callGroup{remaining: len(item.calls), pipe: p}
	// Group assignment happens under mu: deliver reads call.group under
	// the same lock, and a (misbehaving) peer could otherwise respond to
	// a registered tag before its group is visible.
	p.mu.Lock()
	for _, c := range item.calls {
		c.group = group
	}
	p.mu.Unlock()
	first := item.calls[0]
	select {
	case p.slots <- struct{}{}:
	case <-p.quit:
		return p.teardownErr()
	case <-first.done:
		// The call resolved (its deadline expired, or the pipe tore
		// down) before a slot freed up. Nothing was sent, so no reply
		// will ever release these tags: free them here and fail the
		// rest of the frame the same way.
		p.unregister(item.calls)
		for _, c := range item.calls[1:] {
			c.finish(nil, first.err)
		}
		return first.err
	}
	// The slot acquisition races teardown: both selects pick randomly
	// among ready cases, and the buffered channels stay ready after quit
	// closes, so without the re-check a send could "succeed" on a dead
	// pipe with its slot token stranded. On the teardown paths the token
	// is handed back deterministically — nothing will ever deliver a
	// response that would release it.
	if err := p.teardownCause(); err != nil {
		<-p.slots
		return err
	}
	select {
	case p.sendq <- item:
		// A teardown that lands after this send already resolved every
		// registered call, so the caller's wait returns its error.
		return nil
	case <-p.quit:
		<-p.slots
		return p.teardownErr()
	}
}

// call runs one tagged request to completion: register, enqueue, wait.
// Error responses come back as Go errors, mirroring wire.Conn.Call.
func (p *pipe) call(req wire.Message) (wire.Message, error) {
	call, err := p.register(req)
	if err != nil {
		return nil, err
	}
	if err := p.enqueue(sendItem{calls: []*pendingCall{call}}); err != nil {
		// Teardown already resolved the call; fall through to its error.
		<-call.done
	}
	<-call.done
	return callResult(call)
}

// callResult unwraps a resolved waiter slot.
func callResult(call *pendingCall) (wire.Message, error) {
	if call.err != nil {
		return nil, call.err
	}
	if e, ok := call.resp.(*wire.Error); ok {
		return nil, e
	}
	return call.resp, nil
}

// batch sends reqs as one Batch frame and waits for every op's reply.
// Results are positional; each op succeeds or fails alone.
func (p *pipe) batch(reqs []wire.Message) ([]BatchResult, error) {
	if len(reqs) == 0 {
		// An empty frame would take a slot that no reply ever releases.
		return nil, nil
	}
	calls := make([]*pendingCall, 0, len(reqs))
	for _, req := range reqs {
		if !wire.Batchable(req.MsgType()) {
			// Unwind: the already-registered tags must not leak.
			p.unregister(calls)
			return nil, fmt.Errorf("client: %v is not batchable", req.MsgType())
		}
		call, err := p.register(req)
		if err != nil {
			p.unregister(calls)
			return nil, err
		}
		calls = append(calls, call)
	}
	if err := p.enqueue(sendItem{calls: calls, batch: true}); err != nil {
		for _, c := range calls {
			<-c.done
		}
	}
	results := make([]BatchResult, len(calls))
	for i, c := range calls {
		<-c.done
		results[i].Msg, results[i].Err = callResult(c)
	}
	return results, nil
}

// unregister frees tags that were registered but never enqueued.
func (p *pipe) unregister(calls []*pendingCall) {
	p.mu.Lock()
	for _, c := range calls {
		if p.pending[c.tag] == c {
			delete(p.pending, c.tag)
			p.free = append(p.free, c.tag)
		}
	}
	p.mu.Unlock()
	for _, c := range calls {
		if c.timer != nil {
			c.timer.Stop()
		}
	}
}

// writeLoop drains the send queue, coalescing queued frames into one
// flush. It owns the connection's write side.
func (p *pipe) writeLoop() {
	defer close(p.writerDone)
	var tagged wire.Tagged // reused request envelope
	var batch wire.Batch   // reused batch frame (retains Ops capacity)
	for {
		var first sendItem
		select {
		case first = <-p.sendq:
		case <-p.quit:
			return
		}
		items := []sendItem{first}
		for len(items) < maxCoalesce {
			select {
			case it := <-p.sendq:
				items = append(items, it)
			default:
				goto write
			}
		}
	write:
		for _, item := range items {
			var err error
			if item.batch {
				batch.Ops = batch.Ops[:0]
				for _, c := range item.calls {
					batch.Ops = append(batch.Ops, wire.BatchItem{Tag: c.tag, Msg: c.req})
				}
				err = p.conn.WriteMessageNoFlush(&batch)
			} else {
				tagged.Tag, tagged.Inner = item.calls[0].tag, item.calls[0].req
				err = p.conn.WriteMessageNoFlush(&tagged)
			}
			if err != nil {
				p.fail(fmt.Errorf("%w: %v", ErrConnBroken, err))
				return
			}
		}
		if err := p.conn.Flush(); err != nil {
			p.fail(fmt.Errorf("%w: %v", ErrConnBroken, err))
			return
		}
	}
}

// readLoop owns the connection's read side: it decodes reply frames and
// routes each tagged reply to its waiter slot.
func (p *pipe) readLoop() {
	defer close(p.readerDone)
	for {
		m, err := p.conn.ReadMessage()
		if err != nil {
			p.fail(fmt.Errorf("%w: %v", ErrConnBroken, err))
			return
		}
		switch m := m.(type) {
		case *wire.TaggedReply:
			tag, inner := m.Tag, m.Inner
			wire.Recycle(m) // shallow: inner now belongs to the waiter
			if !p.deliver(tag, inner) {
				return
			}
		case *wire.BatchReply:
			ok := true
			for i := range m.Replies {
				if ok {
					ok = p.deliver(m.Replies[i].Tag, m.Replies[i].Msg)
				}
				m.Replies[i].Msg = nil
			}
			wire.Recycle(m)
			if !ok {
				return
			}
		default:
			p.fail(fmt.Errorf("%w: untagged %v frame on a pipelined connection", ErrConnBroken, m.MsgType()))
			return
		}
	}
}

// deliver routes one tagged reply to its slot. A tag that names no slot
// — never issued, or already completed (a duplicate) — is a protocol
// violation that kills the connection: the stream's framing can no
// longer be trusted. It reports whether the connection survives.
func (p *pipe) deliver(tag uint32, msg wire.Message) bool {
	p.mu.Lock()
	call, ok := p.pending[tag]
	if !ok {
		p.mu.Unlock()
		if msg != nil {
			wire.Recycle(msg)
		}
		p.fail(fmt.Errorf("%w: response for unknown or duplicate tag %d", ErrConnBroken, tag))
		return false
	}
	delete(p.pending, tag)
	p.free = append(p.free, tag)
	abandoned := call.state == callAbandoned
	group := call.group
	p.mu.Unlock()
	if abandoned {
		wire.Recycle(msg) // late response for a timed-out slot: discard
	} else {
		call.finish(msg, nil)
	}
	if group != nil {
		group.resolveOne()
	}
	return true
}

// fail tears the pipe down exactly once: every outstanding call resolves
// with err, the connection closes (waking both loops), and later
// register calls are refused with the sticky cause.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	if p.broken != nil {
		p.mu.Unlock()
		return
	}
	p.broken = err
	calls := make([]*pendingCall, 0, len(p.pending))
	for _, c := range p.pending {
		calls = append(calls, c)
	}
	p.pending = map[uint32]*pendingCall{}
	// The tag allocator dies with the pipe: clearing the free list keeps
	// the invariant that no free tag names a pending call, and register is
	// refused from here on, so a tag can never be handed out twice.
	p.free = nil
	p.mu.Unlock()
	close(p.quit)
	p.conn.Close()
	for _, c := range calls {
		c.finish(nil, err)
	}
}

// teardownCause returns the sticky teardown cause, nil while healthy.
func (p *pipe) teardownCause() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// teardownErr returns the sticky teardown cause.
func (p *pipe) teardownErr() error {
	if err := p.teardownCause(); err != nil {
		return err
	}
	return ErrConnBroken
}

// close tears the pipe down on behalf of Client.Close and joins both
// goroutines, so a closed client leaks nothing.
func (p *pipe) close() {
	p.fail(ErrClientClosed)
	<-p.readerDone
	<-p.writerDone
}
