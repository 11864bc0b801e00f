package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// fakeServerOpts is fakeServer with caller-controlled client options
// (the sync handshake fields are filled in).
func fakeServerOpts(t *testing.T, opts Options, fn func(wire.Message) wire.Message) *Client {
	t.Helper()
	a, b := net.Pipe()
	serverConn := wire.NewConn(b)
	go func() {
		defer serverConn.Close()
		for {
			req, err := serverConn.ReadMessage()
			if err != nil {
				return
			}
			var resp wire.Message
			if s, ok := req.(*wire.Sync); ok {
				resp = &wire.SyncOK{ServerTicks: s.ClientTicks}
			} else {
				resp = fn(req)
				if resp == nil {
					continue // simulate a dropped response: never answer
				}
			}
			if err := serverConn.WriteMessage(resp); err != nil {
				return
			}
		}
	}()
	opts.Clock = &tsgen.LogicalClock{}
	opts.SyncSamples = 2
	c, err := NewPipe(wire.NewConn(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func okServer(req wire.Message) wire.Message {
	switch req.(type) {
	case *wire.Begin:
		return &wire.BeginOK{Txn: 7}
	case *wire.Read, *wire.Write:
		return &wire.Value{Value: 1}
	case *wire.Commit, *wire.Abort:
		return &wire.OK{}
	}
	return &wire.Error{Code: wire.CodeGeneric, Message: "unexpected"}
}

func TestClosedClientReturnsTypedError(t *testing.T) {
	c := fakeServerOpts(t, Options{Site: 1}, okServer)
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (idempotent)", err)
	}
	if _, err := c.Begin(core.Query, core.SRSpec()); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Begin after Close = %v, want ErrClientClosed", err)
	}
	if _, _, err := c.RunRetry(core.NewQuery(0, 1), 1); !errors.Is(err, ErrClientClosed) {
		t.Errorf("RunRetry after Close = %v, want ErrClientClosed", err)
	}
	if _, err := c.StatsFull(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("StatsFull after Close = %v, want ErrClientClosed", err)
	}
}

func TestCloseDuringBlockedCallReturnsTypedError(t *testing.T) {
	blocked := make(chan struct{})
	c := fakeServerOpts(t, Options{Site: 1}, func(req wire.Message) wire.Message {
		if _, ok := req.(*wire.Begin); ok {
			close(blocked)
			return nil // swallow: the client stays blocked on the response
		}
		return okServer(req)
	})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Begin(core.Query, core.SRSpec())
		errCh <- err
	}()
	<-blocked
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("blocked call after Close = %v, want ErrClientClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call still blocked 2s after Close")
	}
}

func TestTxnOpsAfterFinishShortCircuit(t *testing.T) {
	var requests atomic.Int64
	c := fakeServerOpts(t, Options{Site: 1}, func(req wire.Message) wire.Message {
		requests.Add(1)
		return okServer(req)
	})
	txn, err := c.Begin(core.Update, core.SRSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	onWire := requests.Load()

	if _, err := txn.Read(1); !errors.Is(err, ErrTxnFinished) {
		t.Errorf("Read after Commit = %v, want ErrTxnFinished", err)
	}
	if err := txn.Write(1, 5); !errors.Is(err, ErrTxnFinished) {
		t.Errorf("Write after Commit = %v, want ErrTxnFinished", err)
	}
	if _, err := txn.WriteDelta(1, 5); !errors.Is(err, ErrTxnFinished) {
		t.Errorf("WriteDelta after Commit = %v, want ErrTxnFinished", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Errorf("double Commit = %v, want ErrTxnFinished", err)
	}
	if err := txn.Abort(); err != nil {
		t.Errorf("Abort after Commit = %v, want nil no-op", err)
	}
	if got := requests.Load(); got != onWire {
		t.Errorf("%d extra wire round trips for finished-txn ops, want 0", got-onWire)
	}
}

func TestCallTimeoutUnblocksDroppedResponse(t *testing.T) {
	c := fakeServerOpts(t, Options{Site: 1, CallTimeout: 50 * time.Millisecond},
		func(req wire.Message) wire.Message {
			return nil // every post-handshake response is dropped
		})
	start := time.Now()
	_, err := c.Begin(core.Query, core.SRSpec())
	if err == nil {
		t.Fatal("Begin succeeded with all responses dropped")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

// lateReplyServer serves one TCP client: Sync, Begin and Read, tagged
// or not. Its reply to Read(1) waits for release, so the client's call
// times out first; sent is closed once that late reply has been written
// (or failed to write), before the server reads the next request.
func lateReplyServer(t *testing.T, ln net.Listener, release <-chan struct{}, sent chan struct{}) {
	nc, err := ln.Accept()
	if err != nil {
		return
	}
	sc := wire.NewConn(nc)
	defer sc.Close()
	for {
		req, err := sc.ReadMessage()
		if err != nil {
			return
		}
		var tag uint32
		tg, tagged := req.(*wire.Tagged)
		if tagged {
			tag, req = tg.Tag, tg.Inner
		}
		var resp wire.Message
		switch m := req.(type) {
		case *wire.Sync:
			resp = &wire.SyncOK{ServerTicks: m.ClientTicks}
		case *wire.Begin:
			resp = &wire.BeginOK{Txn: 7}
		case *wire.Read:
			resp = &wire.Value{Value: 1001 * int64(m.Object)}
			if m.Object == 1 {
				<-release
			}
		default:
			t.Errorf("unexpected request %v", req.MsgType())
			return
		}
		if tagged {
			resp = &wire.TaggedReply{Tag: tag, Inner: resp}
		}
		err = sc.WriteMessage(resp)
		if r, ok := req.(*wire.Read); ok && r.Object == 1 {
			close(sent)
		}
		if err != nil {
			return
		}
	}
}

// TestTimedOutCallsLateReplyNeverReachesNextCall: a call that times out
// must not leave its reply on the stream for the next call to read. At
// depth 0 the synchronous path closes the connection, and every later
// call fails with ErrConnBroken; at depth 4 the tag of the timed-out
// call discards the late reply and the connection keeps serving.
func TestTimedOutCallsLateReplyNeverReachesNextCall(t *testing.T) {
	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("pipeline=%d", depth), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			release, sent := make(chan struct{}), make(chan struct{})
			var releaseOnce sync.Once
			releaseReply := func() { releaseOnce.Do(func() { close(release) }) }
			served := make(chan struct{})
			go func() {
				defer close(served)
				lateReplyServer(t, ln, release, sent)
			}()
			t.Cleanup(func() {
				releaseReply()
				ln.Close()
				<-served
			})
			c, err := Dial(ln.Addr().String(), Options{Site: 1, CallTimeout: 100 * time.Millisecond, Pipeline: depth})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			txn, err := c.Begin(core.Query, core.SRSpec())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Read(1); err == nil {
				t.Fatal("Read(1) succeeded although its reply is held back")
			} else if depth == 0 && !errors.Is(err, ErrConnBroken) {
				t.Fatalf("Read(1) error = %v, want ErrConnBroken", err)
			}
			releaseReply()
			<-sent
			v, err := txn.Read(2)
			if err == nil && v != 2002 {
				t.Fatalf("Read(2) = %d, nil: the timed-out Read(1)'s late reply", v)
			}
			if depth > 0 {
				if err != nil {
					t.Fatalf("Read(2) at depth %d: %v; want 2002", depth, err)
				}
				return
			}
			var ne net.Error
			if !errors.Is(err, ErrConnBroken) || !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("Read(2) error = %v, want ErrConnBroken wrapping the net timeout", err)
			}
		})
	}
}

func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond}
	want := []time.Duration{
		0,                    // attempt 0: never sleeps
		time.Millisecond,     // 1st abort
		2 * time.Millisecond, // doubling
		4 * time.Millisecond,
		8 * time.Millisecond, // hits cap
		8 * time.Millisecond, // stays bounded
	}
	for n, w := range want {
		if got := b.Delay(n, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", n, got, w)
		}
	}
	if got := (Backoff{}).Delay(5, nil); got != 0 {
		t.Errorf("zero Backoff Delay = %v, want 0 (disabled)", got)
	}
	// Jitter keeps every draw inside [(1-j)·d, d].
	jb := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond, Jitter: 0.5}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		d := jb.Delay(3, rng)
		if d < 2*time.Millisecond || d > 4*time.Millisecond {
			t.Fatalf("jittered Delay(3) = %v outside [2ms, 4ms]", d)
		}
	}
	// Overflow safety: huge attempt counts stay at the cap.
	if got := b.Delay(64, nil); got != 8*time.Millisecond {
		t.Errorf("Delay(64) = %v, want cap", got)
	}
}

func TestRunRetryBacksOffBetweenAborts(t *testing.T) {
	begins := 0
	opts := Options{Site: 1, Backoff: &Backoff{Base: 20 * time.Millisecond, Max: 20 * time.Millisecond}}
	c := fakeServerOpts(t, opts, func(req wire.Message) wire.Message {
		switch req.(type) {
		case *wire.Begin:
			begins++
			return &wire.BeginOK{Txn: core.TxnID(begins)}
		case *wire.Read:
			if begins < 3 {
				return &wire.Error{Code: wire.CodeAbort, Reason: 0, Message: "late"}
			}
			return &wire.Value{Value: 9}
		case *wire.Commit:
			return &wire.OK{}
		}
		return &wire.Error{Code: wire.CodeGeneric, Message: "?"}
	})
	start := time.Now()
	_, attempts, err := c.RunRetry(core.NewQuery(0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	// Two retries at ≥20ms each (jitter 0 by explicit schedule).
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("RunRetry finished in %v, want ≥40ms of backoff", elapsed)
	}
}
