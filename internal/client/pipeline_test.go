package client

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// pipeClient builds a pipelined client over a net.Pipe whose server side
// is scripted by serve. The handshake is answered here; serve gets the
// connection once the client is in pipelined mode, free to hold,
// reorder, duplicate or misaddress replies.
func pipeClient(t *testing.T, depth int, callTimeout time.Duration, serve func(sc *wire.Conn)) *Client {
	t.Helper()
	a, b := net.Pipe()
	sc := wire.NewConn(b)
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer sc.Close()
		for i := 0; i < 2; i++ { // SyncSamples below
			req, err := sc.ReadMessage()
			if err != nil {
				return
			}
			s, ok := req.(*wire.Sync)
			if !ok {
				t.Errorf("pre-handshake frame %v", req.MsgType())
				return
			}
			ticks := s.ClientTicks
			wire.Recycle(req)
			if err := sc.WriteMessage(&wire.SyncOK{ServerTicks: ticks}); err != nil {
				return
			}
		}
		serve(sc)
	}()
	c, err := NewPipe(wire.NewConn(a), Options{
		Site: 1, Clock: &tsgen.LogicalClock{}, SyncSamples: 2,
		Pipeline: depth, CallTimeout: callTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		<-served // the script must exit too: no leaked server goroutine
	})
	return c
}

// readTagged reads one Tagged frame and returns its tag and inner op.
func readTagged(t *testing.T, sc *wire.Conn) (uint32, wire.Message) {
	t.Helper()
	m, err := sc.ReadMessage()
	if err != nil {
		// Usually the client hanging up at test cleanup; scripts treat a
		// nil inner as "stop serving".
		return 0, nil
	}
	tg, ok := m.(*wire.Tagged)
	if !ok {
		t.Errorf("script read %v, want Tagged", m.MsgType())
		return 0, nil
	}
	tag, inner := tg.Tag, tg.Inner
	wire.Recycle(tg)
	return tag, inner
}

func TestPipelinedOutOfOrderResponses(t *testing.T) {
	c := pipeClient(t, 4, 0, func(sc *wire.Conn) {
		// Collect two reads, answer them in reverse arrival order.
		type held struct {
			tag uint32
			obj uint32
		}
		var hs []held
		for len(hs) < 2 {
			tag, inner := readTagged(t, sc)
			if inner == nil {
				return
			}
			hs = append(hs, held{tag, uint32(inner.(*wire.Read).Object)})
			wire.Recycle(inner)
		}
		for i := len(hs) - 1; i >= 0; i-- {
			if err := sc.WriteMessage(&wire.TaggedReply{Tag: hs[i].tag, Inner: &wire.Value{Value: int64(hs[i].obj)}}); err != nil {
				return
			}
		}
	})
	p1 := c.CallAsync(&wire.Read{Txn: 1, Object: 101})
	p2 := c.CallAsync(&wire.Read{Txn: 1, Object: 202})
	r2, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Each call must get the reply for ITS tag despite the reversal.
	if v := r1.(*wire.Value).Value; v != 101 {
		t.Errorf("call 1 got value %d, want 101", v)
	}
	if v := r2.(*wire.Value).Value; v != 202 {
		t.Errorf("call 2 got value %d, want 202", v)
	}
}

func TestTagReuseAfterCompletion(t *testing.T) {
	var mu sync.Mutex
	var tags []uint32
	c := pipeClient(t, 4, 0, func(sc *wire.Conn) {
		for {
			tag, inner := readTagged(t, sc)
			if inner == nil {
				return
			}
			wire.Recycle(inner)
			mu.Lock()
			tags = append(tags, tag)
			mu.Unlock()
			if err := sc.WriteMessage(&wire.TaggedReply{Tag: tag, Inner: &wire.Value{Value: 1}}); err != nil {
				return
			}
		}
	})
	for i := 0; i < 5; i++ {
		if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 1}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// Sequential calls complete before the next registers, so the freed
	// tag is reused every time: the tag space stays dense.
	for i, tag := range tags {
		if tag != 1 {
			t.Errorf("call %d used tag %d, want reused tag 1", i, tag)
		}
	}
}

// brokenCause polls the pipe's sticky teardown cause.
func brokenCause(t *testing.T, c *Client) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.pipe.mu.Lock()
		err := c.pipe.broken
		c.pipe.mu.Unlock()
		if err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pipe never broke")
	return nil
}

func TestUnknownTagBreaksConnection(t *testing.T) {
	c := pipeClient(t, 4, 0, func(sc *wire.Conn) {
		tag, inner := readTagged(t, sc)
		if inner == nil {
			return
		}
		wire.Recycle(inner)
		// Respond to a tag that was never issued.
		sc.WriteMessage(&wire.TaggedReply{Tag: tag + 999, Inner: &wire.Value{Value: 1}}) //nolint:errcheck
	})
	_, err := c.CallAsync(&wire.Read{Txn: 1, Object: 1}).Wait()
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("call error = %v, want ErrConnBroken", err)
	}
	// The connection is dead for good: later calls refuse immediately.
	if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 2}).Wait(); !errors.Is(err, ErrConnBroken) {
		t.Errorf("post-breakage call error = %v, want ErrConnBroken", err)
	}
}

func TestDuplicateTagBreaksConnection(t *testing.T) {
	c := pipeClient(t, 4, 0, func(sc *wire.Conn) {
		tag, inner := readTagged(t, sc)
		if inner == nil {
			return
		}
		wire.Recycle(inner)
		// Answer once, then again: the duplicate names a completed tag.
		for i := 0; i < 2; i++ {
			if err := sc.WriteMessage(&wire.TaggedReply{Tag: tag, Inner: &wire.Value{Value: 1}}); err != nil {
				return
			}
		}
	})
	if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 1}).Wait(); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if err := brokenCause(t, c); !errors.Is(err, ErrConnBroken) {
		t.Errorf("teardown cause = %v, want ErrConnBroken", err)
	}
}

func TestCallTimeoutExpiresOneSlotWithoutPoisoning(t *testing.T) {
	release := make(chan struct{})
	c := pipeClient(t, 4, 75*time.Millisecond, func(sc *wire.Conn) {
		var heldTag uint32
		held := false
		for {
			tag, inner := readTagged(t, sc)
			if inner == nil {
				return
			}
			r, isRead := inner.(*wire.Read)
			hold := isRead && r.Object == 99
			wire.Recycle(inner)
			if hold {
				// Park this op; release it (late) on demand.
				heldTag, held = tag, true
				continue
			}
			if held {
				select {
				case <-release:
					if err := sc.WriteMessage(&wire.TaggedReply{Tag: heldTag, Inner: &wire.Value{Value: 99}}); err != nil {
						return
					}
					held = false
				default:
				}
			}
			if err := sc.WriteMessage(&wire.TaggedReply{Tag: tag, Inner: &wire.Value{Value: 1}}); err != nil {
				return
			}
		}
	})
	slow := c.CallAsync(&wire.Read{Txn: 1, Object: 99})
	// A concurrent prompt call keeps working while the slow one pends.
	if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 1}).Wait(); err != nil {
		t.Fatalf("prompt call during hold: %v", err)
	}
	if _, err := slow.Wait(); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("held call error = %v, want ErrCallTimeout", err)
	}
	// The timeout expired one slot, not the connection.
	if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 2}).Wait(); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	// Release the late response: it must be discarded quietly — its tag is
	// still known (abandoned), so it is NOT an unknown-tag violation.
	close(release)
	for i := 0; i < 3; i++ {
		if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 3}).Wait(); err != nil {
			t.Fatalf("call after late response: %v", err)
		}
	}
	c.pipe.mu.Lock()
	broken := c.pipe.broken
	c.pipe.mu.Unlock()
	if broken != nil {
		t.Errorf("late response broke the connection: %v", broken)
	}
}

func TestCallTimeoutBoundsWaitForSlot(t *testing.T) {
	const timeout = 75 * time.Millisecond
	c := pipeClient(t, 2, timeout, func(sc *wire.Conn) {
		// Swallow every request: the abandoned calls keep both slots.
		for {
			_, inner := readTagged(t, sc)
			if inner == nil {
				return
			}
			wire.Recycle(inner)
		}
	})
	swallowed := []*Pending{
		c.CallAsync(&wire.Read{Txn: 1, Object: 1}),
		c.CallAsync(&wire.Read{Txn: 1, Object: 2}),
	}
	start := time.Now()
	_, err := c.CallAsync(&wire.Read{Txn: 1, Object: 3}).Wait()
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("third call error = %v, want ErrCallTimeout", err)
	}
	if took := time.Since(start); took > 2*timeout {
		t.Errorf("third call took %v waiting for a slot, want <= %v", took, 2*timeout)
	}
	for i, p := range swallowed {
		if _, err := p.Wait(); !errors.Is(err, ErrCallTimeout) {
			t.Errorf("swallowed call %d error = %v, want ErrCallTimeout", i, err)
		}
	}
}

func TestDroppedConnectionFailsAllOutstanding(t *testing.T) {
	const n = 4
	c := pipeClient(t, n, 0, func(sc *wire.Conn) {
		// Swallow n requests, then drop the connection mid-pipeline.
		for i := 0; i < n; i++ {
			_, inner := readTagged(t, sc)
			if inner == nil {
				return
			}
			wire.Recycle(inner)
		}
		sc.Close()
	})
	pendings := make([]*Pending, n)
	for i := range pendings {
		pendings[i] = c.CallAsync(&wire.Read{Txn: 1, Object: 1})
	}
	for i, p := range pendings {
		if _, err := p.Wait(); !errors.Is(err, ErrConnBroken) {
			t.Errorf("call %d error = %v, want ErrConnBroken", i, err)
		}
	}
}

func TestCloseFailsAllOutstandingAndJoins(t *testing.T) {
	entered := make(chan struct{}, 8)
	c := pipeClient(t, 8, 0, func(sc *wire.Conn) {
		for {
			_, inner := readTagged(t, sc)
			if inner == nil {
				return
			}
			wire.Recycle(inner)
			entered <- struct{}{}
		}
	})
	pendings := make([]*Pending, 4)
	for i := range pendings {
		pendings[i] = c.CallAsync(&wire.Read{Txn: 1, Object: 1})
	}
	for range pendings {
		<-entered // all four are on the wire before Close
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		if _, err := p.Wait(); !errors.Is(err, ErrClientClosed) {
			t.Errorf("call %d error = %v, want ErrClientClosed", i, err)
		}
	}
	if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 1}).Wait(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("post-close call error = %v, want ErrClientClosed", err)
	}
}

func TestClientBatchViaBatchFrame(t *testing.T) {
	c := pipeClient(t, 8, 0, func(sc *wire.Conn) {
		m, err := sc.ReadMessage()
		if err != nil {
			return
		}
		b, ok := m.(*wire.Batch)
		if !ok {
			t.Errorf("script read %v, want Batch", m.MsgType())
			return
		}
		reply := &wire.BatchReply{}
		for _, op := range b.Ops {
			var inner wire.Message
			switch op.Msg.(type) {
			case *wire.Read:
				inner = &wire.Value{Value: 7}
			case *wire.Write:
				inner = &wire.Error{Code: wire.CodeAbort, Reason: 1, Message: "injected"}
			case *wire.Commit:
				inner = &wire.OK{}
			}
			reply.Replies = append(reply.Replies, wire.BatchItem{Tag: op.Tag, Msg: inner})
		}
		wire.Recycle(m)
		sc.WriteMessage(reply) //nolint:errcheck
	})
	results, err := c.Batch([]wire.Message{
		&wire.Read{Txn: 1, Object: 1},
		&wire.Write{Txn: 1, Object: 2, Value: 5},
		&wire.Commit{Txn: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := results[0].Msg.(*wire.Value).Value; results[0].Err != nil || v != 7 {
		t.Errorf("read result = (%v, %v)", results[0].Msg, results[0].Err)
	}
	// Per-op failure: the write aborts, mapped to AbortError, while its
	// neighbors succeed — the batch is not an atomicity domain.
	if _, isAbort := IsAbort(results[1].Err); !isAbort {
		t.Errorf("write result err = %v, want AbortError", results[1].Err)
	}
	if _, ok := results[2].Msg.(*wire.OK); results[2].Err != nil || !ok {
		t.Errorf("commit result = (%v, %v)", results[2].Msg, results[2].Err)
	}
}

func TestBatchRejectsUnbatchable(t *testing.T) {
	c := pipeClient(t, 4, 0, func(sc *wire.Conn) {
		// Stay alive so an erroneous frame would be visible as a read.
		for {
			if _, err := sc.ReadMessage(); err != nil {
				return
			}
			t.Error("non-batchable batch reached the wire")
		}
	})
	if _, err := c.Batch([]wire.Message{&wire.Stats{}}); err == nil {
		t.Fatal("Batch accepted a Stats op")
	}
	// The refused batch must not leak its tags: the pipe still works...
	// (brokenness or a wedged tag table would surface here).
	c.pipe.mu.Lock()
	pending, brokenErr := len(c.pipe.pending), c.pipe.broken
	c.pipe.mu.Unlock()
	if pending != 0 || brokenErr != nil {
		t.Errorf("after refused batch: %d pending tags, broken=%v", pending, brokenErr)
	}
}

func TestDepthOneKeepsSynchronousPath(t *testing.T) {
	// Pipeline 1 (and 0) must not start the demultiplexing core: the
	// frames on the wire stay the seed protocol's untagged encoding.
	c := fakeServer(t, func(req wire.Message) wire.Message {
		return &wire.Value{Value: 3}
	})
	if c.pipe != nil {
		t.Fatal("depth-1 client started a pipe")
	}
	// Batch and CallAsync degrade to the synchronous path.
	results, err := c.Batch([]wire.Message{&wire.Read{Txn: 1, Object: 1}})
	if err != nil || results[0].Err != nil {
		t.Fatalf("sync-path Batch: %v / %v", err, results[0].Err)
	}
	if v := results[0].Msg.(*wire.Value).Value; v != 3 {
		t.Errorf("sync-path Batch value = %d", v)
	}
	if _, err := c.CallAsync(&wire.Read{Txn: 1, Object: 1}).Wait(); err != nil {
		t.Errorf("sync-path CallAsync: %v", err)
	}
}
