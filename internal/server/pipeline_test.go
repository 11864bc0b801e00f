package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/client"
	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// dialPipelined dials with the demultiplexing core enabled.
func dialPipelined(t *testing.T, addr string, site, depth int, clock tsgen.Clock) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Site: site, Clock: clock, Pipeline: depth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPipelinedEndToEnd drives many concurrent transactions through one
// pipelined connection against the real server: tagged decode, inline
// dispatch, async commit acks and reply coalescing all on the line.
func TestPipelinedEndToEnd(t *testing.T) {
	clock := &tsgen.LogicalClock{}
	addr, srv := startServer(t, 8, tso.Options{}, Options{Clock: clock})
	c := dialPipelined(t, addr, 1, 16, clock)

	const workers, txnsEach = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obj := core.ObjectID(w + 1)
			for i := 0; i < txnsEach; i++ {
				p := core.NewUpdate(0).WriteDelta(obj, 1)
				if _, _, err := c.RunRetry(p, 0); err != nil {
					errs <- fmt.Errorf("worker %d txn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every increment must have landed exactly once.
	for w := 0; w < workers; w++ {
		obj := core.ObjectID(w + 1)
		q := core.NewQuery(core.NoLimit).Read(obj)
		res, _, err := c.RunRetry(q, 0)
		if err != nil {
			t.Fatalf("verify read %d: %v", obj, err)
		}
		want := core.Value(100*int(obj) + txnsEach)
		if res.Sum != want {
			t.Errorf("object %d = %d, want %d", obj, res.Sum, want)
		}
	}
	if live := srv.Engine().Live(); live != 0 {
		t.Errorf("%d transactions still live after drain", live)
	}
}

// TestBatchedProgramEndToEnd runs whole programs as Batch frames against
// the real server, including the abort/retry path.
func TestBatchedProgramEndToEnd(t *testing.T) {
	clock := &tsgen.LogicalClock{}
	addr, srv := startServer(t, 4, tso.Options{}, Options{Clock: clock})
	c := dialPipelined(t, addr, 1, 8, clock)

	p := core.NewUpdate(0).Read(1).WriteDelta(2, 5).WriteDelta(3, -2)
	res, err := c.RunProgramBatched(p, 0) // whole program in one frame
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 100 {
		t.Errorf("read value = %d, want 100", res.Values[0])
	}
	if res.Values[1] != 205 || res.Values[2] != 298 {
		t.Errorf("write results = %v", res.Values[1:])
	}
	// Small batches chunk the same program across frames.
	if _, err := c.RunProgramBatched(p, 2); err != nil {
		t.Fatal(err)
	}
	q := core.NewQuery(core.NoLimit).Read(2).Read(3)
	qres, _, err := c.RunRetryBatched(q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Value(205 + 5 + 298 - 2); qres.Sum != want {
		t.Errorf("query sum = %d, want %d", qres.Sum, want)
	}
	if live := srv.Engine().Live(); live != 0 {
		t.Errorf("%d transactions still live", live)
	}
}

// TestPipelinedGroupCommitAcks commits many transactions concurrently
// over one pipelined connection with a WAL underneath: the async commit
// dispatchers block on the same group-commit fsyncs, and every ack must
// still reach its caller.
func TestPipelinedGroupCommitAcks(t *testing.T) {
	st := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
	for i := 1; i <= 8; i++ {
		if _, err := st.Create(core.ObjectID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open(wal.NewMemFS(), st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clock := &tsgen.LogicalClock{}
	srv := New(tso.NewEngine(st, tso.Options{Durability: l}), Options{Clock: clock, Logf: t.Logf})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialPipelined(t, addr.String(), 1, 32, clock)

	const workers, txnsEach = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsEach; i++ {
				p := core.NewUpdate(0).WriteDelta(core.ObjectID(w+1), 1)
				if _, _, err := c.RunRetry(p, 0); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		res, _, err := c.RunRetry(core.NewQuery(core.NoLimit).Read(core.ObjectID(w+1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sum != txnsEach {
			t.Errorf("object %d = %d, want %d", w+1, res.Sum, txnsEach)
		}
	}
}

// TestUntaggedFrameAfterPipeliningDrops pins the mode latch: once a
// connection spoke an envelope frame, a bare request is a protocol error
// and the server hangs up instead of racing its response writer.
func TestUntaggedFrameAfterPipeliningDrops(t *testing.T) {
	clock := &tsgen.LogicalClock{}
	addr, _ := startServer(t, 2, tso.Options{}, Options{Clock: clock})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	if err := conn.WriteMessage(&wire.Tagged{Tag: 1, Inner: &wire.Sync{ClientTicks: 1}}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if tr, ok := m.(*wire.TaggedReply); !ok || tr.Tag != 1 {
		t.Fatalf("first reply = %v, want TaggedReply tag 1", m.MsgType())
	}
	// Now break the rules: a bare Sync on a pipelined connection.
	if err := conn.WriteMessage(&wire.Sync{ClientTicks: 2}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.ReadMessage(); err == nil {
		t.Fatal("server answered an untagged frame on a pipelined connection")
	}
}
