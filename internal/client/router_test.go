package client

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// answer scripts a trivial synchronous server: BeginOK for begins,
// Value(value) for reads and writes, OK for commit/abort. With redirect
// set every Begin bounces with CodeRedirect, the way a bounded-stale
// follower refuses work it must not serve. got, when non-nil, counts
// frames received after the handshake.
func answer(t *testing.T, value int64, redirect bool, got *atomic.Int64) func(sc *wire.Conn) {
	return func(sc *wire.Conn) {
		for {
			m, err := sc.ReadMessage()
			if err != nil {
				return
			}
			if got != nil {
				got.Add(1)
			}
			var resp wire.Message
			switch m.(type) {
			case *wire.Begin:
				if redirect {
					resp = &wire.Error{Code: wire.CodeRedirect, Message: "updates run on the primary"}
				} else {
					resp = &wire.BeginOK{Txn: 7}
				}
			case *wire.Read, *wire.Write:
				resp = &wire.Value{Value: value}
			case *wire.Commit, *wire.Abort:
				resp = &wire.OK{}
			default:
				t.Errorf("script got unexpected %v", m.MsgType())
				wire.Recycle(m)
				return
			}
			wire.Recycle(m)
			if err := sc.WriteMessage(resp); err != nil {
				return
			}
		}
	}
}

func TestRouterRoutesQueriesToReplicaUpdatesToPrimary(t *testing.T) {
	primary := pipeClient(t, 1, 0, answer(t, 1, false, nil))
	replica := pipeClient(t, 1, 0, answer(t, 42, false, nil))
	r := NewRouter(primary, replica)

	res, err := r.RunProgram(core.NewQuery(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 42 {
		t.Errorf("query read %d, want 42 (the replica's value)", res.Sum)
	}
	if _, err := r.RunProgram(core.NewUpdate(core.NoLimit).WriteDelta(5, 3)); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.ReplicaRuns != 1 || st.PrimaryRuns != 1 || st.Redirects != 0 || st.Failovers != 0 {
		t.Errorf("stats %+v, want 1 replica run and 1 primary run", st)
	}
}

func TestRouterRedirectFallsBackToPrimary(t *testing.T) {
	primary := pipeClient(t, 1, 0, answer(t, 7, false, nil))
	replica := pipeClient(t, 1, 0, answer(t, 42, true, nil))
	r := NewRouter(primary, replica)

	res, err := r.RunProgram(core.NewQuery(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 7 {
		t.Errorf("redirected query read %d, want 7 (the primary's value)", res.Sum)
	}
	st := r.Stats()
	if st.Redirects != 1 || st.PrimaryRuns != 1 || st.ReplicaRuns != 0 {
		t.Errorf("stats %+v, want the redirect replayed on the primary", st)
	}
}

func TestRouterZeroEpsilonNeverTouchesReplica(t *testing.T) {
	var replicaFrames atomic.Int64
	primary := pipeClient(t, 1, 0, answer(t, 7, false, nil))
	replica := pipeClient(t, 1, 0, answer(t, 42, false, &replicaFrames))
	r := NewRouter(primary, replica)

	res, err := r.RunProgram(core.NewQuery(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 7 {
		t.Errorf("zero-epsilon query read %d, want 7 (the primary's value)", res.Sum)
	}
	if n := replicaFrames.Load(); n != 0 {
		t.Errorf("replica saw %d frames for a zero-epsilon query, want 0", n)
	}
	if st := r.Stats(); st.PrimaryRuns != 1 || st.ReplicaRuns != 0 {
		t.Errorf("stats %+v, want the query pinned to the primary", st)
	}
}

func TestRouterFailsOverWhenReplicaDies(t *testing.T) {
	primary := pipeClient(t, 1, 0, answer(t, 7, false, nil))
	replica := pipeClient(t, 1, 0, answer(t, 42, false, nil))
	r := NewRouter(primary, replica)
	replica.Close()

	res, err := r.RunProgram(core.NewQuery(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 7 {
		t.Errorf("failed-over query read %d, want 7 (the primary's value)", res.Sum)
	}
	if st := r.Stats(); st.Failovers != 1 || st.PrimaryRuns != 1 {
		t.Errorf("stats %+v, want one failover onto the primary", st)
	}
}

func TestRouterRoundRobinsAcrossReplicas(t *testing.T) {
	primary := pipeClient(t, 1, 0, answer(t, 1, false, nil))
	ra := pipeClient(t, 1, 0, answer(t, 10, false, nil))
	rb := pipeClient(t, 1, 0, answer(t, 20, false, nil))
	r := NewRouter(primary, ra, rb)

	var sums []core.Value
	for i := 0; i < 4; i++ {
		res, err := r.RunProgram(core.NewQuery(100, 5))
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, res.Sum)
	}
	want := []core.Value{10, 20, 10, 20}
	for i, s := range sums {
		if s != want[i] {
			t.Errorf("query %d read %d, want %d (round-robin)", i, s, want[i])
		}
	}
}

func TestRouterAbortPassesThrough(t *testing.T) {
	primary := pipeClient(t, 1, 0, answer(t, 7, false, nil))
	var replicaFrames frameLog
	abortScript := func(sc *wire.Conn) {
		for {
			m, err := sc.ReadMessage()
			if err != nil {
				return
			}
			replicaFrames.add(m.MsgType().String())
			var resp wire.Message
			switch m.(type) {
			case *wire.Begin:
				resp = &wire.BeginOK{Txn: 7}
			case *wire.Abort:
				resp = &wire.OK{}
			default:
				resp = &wire.Error{Code: wire.CodeAbort, Reason: 0, Message: "limit"}
			}
			wire.Recycle(m)
			if err := sc.WriteMessage(resp); err != nil {
				return
			}
		}
	}
	replica := pipeClient(t, 1, 0, abortScript)
	r := NewRouter(primary, replica)

	_, err := r.RunProgram(core.NewQuery(100, 5))
	if _, ok := IsAbort(err); !ok {
		t.Fatalf("replica abort surfaced as %v, want AbortError", err)
	}
	// A genuine abort belongs to the retry loop, not the failover path.
	if st := r.Stats(); st.ReplicaRuns != 1 || st.PrimaryRuns != 0 || st.Failovers != 0 {
		t.Errorf("stats %+v, want the abort counted as a replica run", st)
	}
	// Without pipelining the attempt stops at the aborting op: no round
	// trip is spent on the reads and the commit behind it.
	if got, want := replicaFrames.get(), []string{"Begin", "Read"}; !reflect.DeepEqual(got, want) {
		t.Errorf("replica saw frames %v, want %v", got, want)
	}
}

// frameLog records the frames a scripted server receives.
type frameLog struct {
	mu     sync.Mutex
	frames []string
}

func (l *frameLog) add(f string) {
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
}

func (l *frameLog) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.frames...)
}

// answerTagged scripts a pipelined server. reply answers each request —
// the inner message of a Tagged frame (pos -1), or the op at position
// pos of a Batch frame; a nil reply to a batch op hangs up mid-batch.
// log records each frame as its inner type ("Begin") or as "Batch/n"
// for an n-op batch.
func answerTagged(t *testing.T, log *frameLog, reply func(m wire.Message, pos int) wire.Message) func(sc *wire.Conn) {
	return func(sc *wire.Conn) {
		for {
			m, err := sc.ReadMessage()
			if err != nil {
				return
			}
			var resp wire.Message
			switch m := m.(type) {
			case *wire.Tagged:
				log.add(m.Inner.MsgType().String())
				resp = &wire.TaggedReply{Tag: m.Tag, Inner: reply(m.Inner, -1)}
			case *wire.Batch:
				log.add(fmt.Sprintf("Batch/%d", len(m.Ops)))
				br := &wire.BatchReply{}
				for i, op := range m.Ops {
					inner := reply(op.Msg, i)
					if inner == nil {
						return
					}
					br.Replies = append(br.Replies, wire.BatchItem{Tag: op.Tag, Msg: inner})
				}
				resp = br
			default:
				t.Errorf("script got untagged %v", m.MsgType())
				return
			}
			wire.Recycle(m)
			if err := sc.WriteMessage(resp); err != nil {
				return
			}
		}
	}
}

// serveValue is the happy-path reply: BeginOK, Value(value) for reads
// and writes, OK for commit and abort.
func serveValue(value int64) func(m wire.Message, pos int) wire.Message {
	return func(m wire.Message, _ int) wire.Message {
		switch m.(type) {
		case *wire.Begin:
			return &wire.BeginOK{Txn: 7}
		case *wire.Read, *wire.Write:
			return &wire.Value{Value: value}
		default:
			return &wire.OK{}
		}
	}
}

func TestRouterPipelinedShipsWholePrograms(t *testing.T) {
	var primaryFrames, replicaFrames frameLog
	primary := pipeClient(t, 8, 0, answerTagged(t, &primaryFrames, serveValue(1)))
	replica := pipeClient(t, 8, 0, answerTagged(t, &replicaFrames, serveValue(42)))
	r := NewRouter(primary, replica)

	res, err := r.RunProgram(core.NewQuery(100, 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 8*42 {
		t.Errorf("query read %d, want %d (the replica's values)", res.Sum, 8*42)
	}
	if _, err := r.RunProgram(core.NewUpdate(core.NoLimit).WriteDelta(1, -3).WriteDelta(2, 3)); err != nil {
		t.Fatal(err)
	}
	// Eight reads plus the commit in one frame; two writes plus the commit
	// in another.
	if got, want := replicaFrames.get(), []string{"Begin", "Batch/9"}; !reflect.DeepEqual(got, want) {
		t.Errorf("replica saw frames %v, want %v", got, want)
	}
	if got, want := primaryFrames.get(), []string{"Begin", "Batch/3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("primary saw frames %v, want %v", got, want)
	}
	if st := r.Stats(); st.ReplicaRuns != 1 || st.PrimaryRuns != 1 {
		t.Errorf("stats %+v, want 1 replica run and 1 primary run", st)
	}
}

func TestRouterPipelinedRedirectReplaysOnPrimary(t *testing.T) {
	var primaryFrames, replicaFrames frameLog
	primary := pipeClient(t, 8, 0, answerTagged(t, &primaryFrames, serveValue(7)))
	replica := pipeClient(t, 8, 0, answerTagged(t, &replicaFrames, func(m wire.Message, _ int) wire.Message {
		return &wire.Error{Code: wire.CodeRedirect, Message: "zero-epsilon queries run on the primary"}
	}))
	r := NewRouter(primary, replica)

	res, err := r.RunProgram(core.NewQuery(100, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 3*7 {
		t.Errorf("redirected query read %d, want %d (the primary's values)", res.Sum, 3*7)
	}
	if got, want := replicaFrames.get(), []string{"Begin"}; !reflect.DeepEqual(got, want) {
		t.Errorf("replica saw frames %v, want %v", got, want)
	}
	if got, want := primaryFrames.get(), []string{"Begin", "Batch/4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("primary saw frames %v, want %v", got, want)
	}
	if st := r.Stats(); st.Redirects != 1 || st.PrimaryRuns != 1 || st.ReplicaRuns != 0 {
		t.Errorf("stats %+v, want the redirect replayed on the primary", st)
	}
}

func TestRouterPipelinedAbortMidBatchPassesThrough(t *testing.T) {
	var primaryFrames, replicaFrames frameLog
	primary := pipeClient(t, 8, 0, answerTagged(t, &primaryFrames, serveValue(7)))
	// The second read aborts; the server has then dropped the attempt,
	// so every later op of the frame fails too.
	replica := pipeClient(t, 8, 0, answerTagged(t, &replicaFrames, func(m wire.Message, pos int) wire.Message {
		if pos >= 1 {
			return &wire.Error{Code: wire.CodeAbort, Message: "import limit"}
		}
		return serveValue(42)(m, pos)
	}))
	r := NewRouter(primary, replica)

	_, err := r.RunProgram(core.NewQuery(100, 1, 2, 3, 4))
	if _, ok := IsAbort(err); !ok {
		t.Fatalf("mid-batch abort surfaced as %v, want AbortError", err)
	}
	if st := r.Stats(); st.ReplicaRuns != 1 || st.PrimaryRuns != 0 || st.Failovers != 0 {
		t.Errorf("stats %+v, want the abort counted as a replica run", st)
	}
	// The server already cleaned the attempt up: no Abort frame follows.
	if got, want := replicaFrames.get(), []string{"Begin", "Batch/5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("replica saw frames %v, want %v", got, want)
	}
	if got := primaryFrames.get(); len(got) != 0 {
		t.Errorf("primary saw frames %v, want none", got)
	}
}

func TestRouterPipelinedReplicaDropMidBatchFailsOver(t *testing.T) {
	var primaryFrames, replicaFrames frameLog
	primary := pipeClient(t, 8, 0, answerTagged(t, &primaryFrames, serveValue(7)))
	replica := pipeClient(t, 8, 0, answerTagged(t, &replicaFrames, func(m wire.Message, pos int) wire.Message {
		if pos >= 0 {
			return nil // hang up on the Batch frame
		}
		return serveValue(42)(m, pos)
	}))
	r := NewRouter(primary, replica)

	res, err := r.RunProgram(core.NewQuery(100, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 2*7 {
		t.Errorf("failed-over query read %d, want %d (the primary's values)", res.Sum, 2*7)
	}
	if got, want := replicaFrames.get(), []string{"Begin", "Batch/3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("replica saw frames %v, want %v", got, want)
	}
	if got, want := primaryFrames.get(), []string{"Begin", "Batch/3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("primary saw frames %v, want %v", got, want)
	}
	if st := r.Stats(); st.Failovers != 1 || st.PrimaryRuns != 1 || st.ReplicaRuns != 0 {
		t.Errorf("stats %+v, want one failover onto the primary", st)
	}
}
