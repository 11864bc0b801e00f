package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// The latency budget: where a transaction's time went, layer by layer.
// After the traced run the recorded pieces are joined into one tree of
// spans per transaction:
//
//	txn [due, done]                                loadgen
//	├ queue [due, picked up]                       loadgen
//	└ call [picked up, done]                       client
//	  └ round trip, one per request frame          transit
//	    [client write starts, last reply read]
//	    └ residency                                server
//	      [server read returns, last reply's write starts]
//	      └ engine call, one per operation         tso / replica
//	        └ log append, fsync wait               wal
//
// Requests are matched to replies by tag, decoded from the bytes the
// client end of each connection kept; a frame's times come from the
// Read or Write call that moved its last byte, on either end, found by
// stream offset. Engine calls carry their transaction id. An attempt is
// matched to the generator's transaction whose program its operations
// are a prefix of — decidable from outside for every workload here.
//
// A span's self time is its length minus the part its children cover.
// Summed by layer over all transactions it is the budget; it must add up
// to the transactions' total latency, and trace.sum_error_pct says how
// far off the join is.

// streamEvents is one direction of one connection end: the calls that
// moved its bytes, in order, with the stream offset after each.
type streamEvents struct {
	start, end []int64
	cum        []int64
}

func (s *streamEvents) add(ev ioEvent) {
	if ev.n <= 0 {
		return
	}
	var prev int64
	if n := len(s.cum); n > 0 {
		prev = s.cum[n-1]
	}
	s.start = append(s.start, ev.start)
	s.end = append(s.end, ev.end)
	s.cum = append(s.cum, prev+int64(ev.n))
}

// covering returns the index of the call that moved the byte before
// stream offset off (off > 0), or -1 when the stream never got that far.
func (s *streamEvents) covering(off int64) int {
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] >= off })
	if i == len(s.cum) {
		return -1
	}
	return i
}

// untagged is the tag given to the frames of a synchronous connection,
// which carry none: requests and replies alternate, so the k-th reply
// answers the k-th request exactly as if both carried this tag.
const untagged = ^uint32(0)

// wireOp is one operation seen on the wire.
type wireOp struct {
	tag  uint32
	kind wire.MsgType
	txn  core.TxnID // 0 on a Begin request until its reply names it
	obj  core.ObjectID
}

// wireFrame is one decoded frame with its extent in the stream.
type wireFrame struct {
	start, end int64
	ops        []wireOp
}

// decodeStream splits a captured byte stream into frames and decodes
// the operations in each. A torn last frame ends the stream.
func decodeStream(log []byte) ([]wireFrame, error) {
	conn := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(log), io.Discard})
	var frames []wireFrame
	for off := 0; off+8 <= len(log); {
		n := int(binary.BigEndian.Uint32(log[off+4 : off+8]))
		if off+8+n > len(log) {
			break
		}
		m, err := conn.ReadMessage()
		if err != nil {
			return frames, fmt.Errorf("decode captured frame at offset %d: %w", off, err)
		}
		f := wireFrame{start: int64(off), end: int64(off + 8 + n)}
		switch m := m.(type) {
		case *wire.Tagged:
			f.ops = append(f.ops, opOf(m.Tag, m.Inner))
		case *wire.TaggedReply:
			f.ops = append(f.ops, opOf(m.Tag, m.Inner))
		case *wire.Batch:
			for _, it := range m.Ops {
				f.ops = append(f.ops, opOf(it.Tag, it.Msg))
			}
		case *wire.BatchReply:
			for _, it := range m.Replies {
				f.ops = append(f.ops, opOf(it.Tag, it.Msg))
			}
		default:
			f.ops = append(f.ops, opOf(untagged, m))
		}
		wire.Recycle(m)
		frames = append(frames, f)
		off += 8 + n
	}
	return frames, nil
}

func opOf(tag uint32, m wire.Message) wireOp {
	op := wireOp{tag: tag, kind: m.MsgType()}
	switch m := m.(type) {
	case *wire.Read:
		op.txn, op.obj = m.Txn, m.Object
	case *wire.Write:
		op.txn, op.obj = m.Txn, m.Object
	case *wire.Commit:
		op.txn = m.Txn
	case *wire.Abort:
		op.txn = m.Txn
	case *wire.BeginOK:
		op.txn = m.Txn
	}
	return op
}

// span is one node of a transaction's tree, as written to the trace
// file.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Conn    int    `json:"conn"` // -1 when the span belongs to no connection
	Txn     *int64 `json:"txn"`  // the engine's transaction id; null when not decidable
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`

	layer    layer
	children []*span
}

func (s *span) child(l layer, name string, conn int, txn core.TxnID, start, end int64) *span {
	c := &span{Layer: layerNames[l], Name: name, Conn: conn, StartNS: start, EndNS: end, layer: l}
	if txn != 0 {
		id := int64(txn)
		c.Txn = &id
	}
	s.children = append(s.children, c)
	return c
}

// selfTimes adds every span's self time to its layer's total: its
// length minus the union of its children clipped to it.
func (s *span) selfTimes(totals *[numLayers]int64) {
	slices.SortFunc(s.children, func(a, b *span) int { return cmp.Compare(a.StartNS, b.StartNS) })
	covered, upto := int64(0), s.StartNS
	for _, c := range s.children {
		lo, hi := max(c.StartNS, upto), min(c.EndNS, s.EndNS)
		if hi > lo {
			covered += hi - lo
			upto = hi
		}
		c.selfTimes(totals)
	}
	totals[s.layer] += s.EndNS - s.StartNS - covered
}

// attempt is one transaction attempt as seen on the wire: the request
// frames that carried its operations.
type attempt struct {
	txn    core.TxnID
	conn   int
	frames []*frameTimes
	ops    []wireOp // requests after Begin, in order
}

// frameTimes is one request frame's journey.
type frameTimes struct {
	sent, arrived int64 // client write starts; server read returns
	// answered is when the server began writing the frame's last reply,
	// received when the client's read of it returned.
	answered, received int64
	pending            int // replies still unmatched
}

// budget is the outcome of the join.
type budget struct {
	totals     [numLayers]int64 // self time by layer, ns, over all transactions
	latency    int64            // Σ (done − due), ns
	commits    int
	matched    int // attempts attached to a generator transaction
	unmatched  int
	ackWaitsUS []float64
	queueUS    []float64
	// serverWrites, serverReads and serverBytesOut count the server's
	// system calls on client connections inside the measured window.
	serverWrites, serverReads, serverBytesOut int64
	roots                                     []*span
}

func (b *budget) perCommitUS(l layer) float64 {
	if b.commits == 0 {
		return 0
	}
	return float64(b.totals[l]) / 1e3 / float64(b.commits)
}

func (b *budget) sumErrorPct() float64 {
	if b.latency == 0 {
		return 0
	}
	var sum int64
	for _, t := range b.totals {
		sum += t
	}
	return 100 * float64(abs64(sum-b.latency)) / float64(b.latency)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// joinTrace builds the budget of one traced phase.
func joinTrace(tr *tracer, r *run, p *phaseResult) (*budget, error) {
	if n := tr.dropped.Load(); n > 0 {
		return nil, fmt.Errorf("%d spans did not fit the trace buffers", n)
	}
	// Pair each client connection end with the server end of the same
	// TCP connection.
	type connPair struct {
		client, server int
		out, in        [2]streamEvents // [0] client end, [1] server end
	}
	var pairs []*connPair
	byID := map[int32]*connPair{}
	for ci, c := range tr.conns {
		if !c.clientSide {
			continue
		}
		for si, s := range tr.conns {
			if !s.clientSide && s.remote == c.local && s.local == c.remote {
				cp := &connPair{client: ci, server: si}
				pairs = append(pairs, cp)
				byID[int32(ci)], byID[int32(si)] = cp, cp
			}
		}
	}
	ios := slices.Clone(tr.recordedIOs())
	slices.SortStableFunc(ios, func(a, b ioEvent) int { return cmp.Compare(a.start, b.start) })
	b := &budget{}
	for _, ev := range ios {
		cp := byID[ev.conn]
		if cp == nil {
			continue // the replication feed's connection
		}
		clientEnd := int(ev.conn) == cp.client
		switch {
		case clientEnd && ev.write:
			cp.out[0].add(ev)
		case clientEnd:
			cp.in[0].add(ev)
		case ev.write:
			cp.in[1].add(ev)
			if ev.start >= p.start && ev.start < p.end {
				b.serverWrites++
				b.serverBytesOut += int64(ev.n)
			}
		default:
			cp.out[1].add(ev)
			if ev.start >= p.start && ev.start < p.end && ev.n > 0 {
				b.serverReads++
			}
		}
	}

	// Decode both directions and match replies to requests by tag: a tag
	// is reused only after its reply arrived, so the k-th reply with a
	// tag answers the k-th request with it.
	attempts := map[core.TxnID]*attempt{}
	for pi, cp := range pairs {
		ct := tr.conns[cp.client]
		requests, err := decodeStream(ct.out)
		if err != nil {
			return nil, err
		}
		replies, err := decodeStream(ct.in)
		if err != nil {
			return nil, err
		}
		type pendingOp struct {
			ft *frameTimes
			op wireOp
		}
		waiting := map[uint32][]pendingOp{}
		for _, f := range requests {
			if len(f.ops) == 0 {
				continue
			}
			wi, ri := cp.out[0].covering(f.start+1), cp.out[1].covering(f.end)
			if wi < 0 || ri < 0 {
				continue
			}
			ft := &frameTimes{sent: cp.out[0].start[wi], arrived: cp.out[1].end[ri], pending: len(f.ops)}
			for _, op := range f.ops {
				waiting[op.tag] = append(waiting[op.tag], pendingOp{ft, op})
			}
		}
		for _, f := range replies {
			if len(f.ops) == 0 {
				continue
			}
			wi, ri := cp.in[1].covering(f.start+1), cp.in[0].covering(f.end)
			if wi < 0 || ri < 0 {
				continue
			}
			answered, received := cp.in[1].start[wi], cp.in[0].end[ri]
			for _, reply := range f.ops {
				q := waiting[reply.tag]
				if len(q) == 0 {
					continue
				}
				req := q[0]
				waiting[reply.tag] = q[1:]
				req.ft.pending--
				req.ft.answered, req.ft.received = max(req.ft.answered, answered), max(req.ft.received, received)
				txn := req.op.txn
				if req.op.kind == wire.MsgBegin {
					if reply.kind != wire.MsgBeginOK {
						continue // refused or redirected: no attempt to join
					}
					txn = reply.txn
				}
				a := attempts[txn]
				if a == nil {
					a = &attempt{txn: txn, conn: pi}
					attempts[txn] = a
				}
				if len(a.frames) == 0 || a.frames[len(a.frames)-1] != req.ft {
					a.frames = append(a.frames, req.ft)
				}
				if req.op.kind == wire.MsgRead || req.op.kind == wire.MsgWrite {
					a.ops = append(a.ops, req.op)
				}
			}
		}
	}

	// Engine and log calls by transaction.
	calls := map[core.TxnID][]callSpan{}
	for _, c := range tr.recordedCalls() {
		if c.txn != 0 {
			calls[c.txn] = append(calls[c.txn], c)
		}
		if c.op == opAckWait && c.start >= p.start && c.start < p.end {
			b.ackWaitsUS = append(b.ackWaitsUS, float64(c.end-c.start)/1e3)
		}
	}
	slices.Sort(b.ackWaitsUS)

	// Attach each attempt to the generator's transaction it belongs to.
	byExec := map[int32][]*sample{}
	for i := range p.samples {
		s := &p.samples[i]
		byExec[s.exec] = append(byExec[s.exec], s)
	}
	owner := map[*sample][]*attempt{}
	for _, a := range attempts {
		slices.SortFunc(a.frames, func(x, y *frameTimes) int { return cmp.Compare(x.sent, y.sent) })
		first := a.frames[0].sent
		if first < p.start || first >= p.end+graceAfterPhase {
			continue // set-up, warm-up or verification traffic
		}
		var found *sample
		ambiguous := false
		for _, ex := range r.execs {
			if !r.spec.replica && ex.conn != a.conn {
				continue
			}
			ss := byExec[int32(ex.id)]
			i := sort.Search(len(ss), func(i int) bool { return ss[i].done >= first })
			if i == len(ss) || ss[i].pick > first || !isPrefix(a.ops, ss[i].prog) {
				continue
			}
			if found != nil {
				ambiguous = true
			}
			found = ss[i]
		}
		if found == nil || ambiguous {
			b.unmatched++
			continue
		}
		b.matched++
		owner[found] = append(owner[found], a)
	}

	// Build the trees.
	for i := range p.samples {
		s := &p.samples[i]
		if p.committed(s) {
			b.commits++
		}
		b.latency += s.done - s.due
		b.queueUS = append(b.queueUS, float64(s.pick-s.due)/1e3)
		root := &span{Layer: layerNames[layerLoadgen], Name: "txn", Conn: -1, StartNS: s.due, EndNS: s.done, layer: layerLoadgen}
		root.child(layerLoadgen, "queue", -1, 0, s.due, s.pick)
		call := root.child(layerClient, "call", r.execs[s.exec].conn, 0, s.pick, s.done)
		for _, a := range owner[s] {
			ops := calls[a.txn]
			for _, ft := range a.frames {
				if ft.pending > 0 || ft.received == 0 {
					continue // a reply the capture never saw
				}
				rt := call.child(layerTransit, "round_trip", a.conn, a.txn, ft.sent, ft.received)
				res := rt.child(layerServer, "residency", a.conn, a.txn, ft.arrived, ft.answered)
				for _, c := range ops {
					if c.layer == layerWAL || c.start < ft.arrived || c.start > ft.answered {
						continue
					}
					op := res.child(c.layer, callOpNames[c.op], a.conn, a.txn, c.start, c.end)
					if c.op != opCommit {
						continue
					}
					for _, w := range ops {
						if w.layer == layerWAL && w.start >= c.start && w.end <= c.end {
							op.child(layerWAL, callOpNames[w.op], a.conn, a.txn, w.start, w.end)
						}
					}
				}
			}
		}
		root.selfTimes(&b.totals)
		b.roots = append(b.roots, root)
	}
	slices.Sort(b.queueUS)
	return b, nil
}

// isPrefix reports whether the operations an attempt sent are a prefix
// of the program's, object by object.
func isPrefix(ops []wireOp, p *core.Program) bool {
	if p == nil || len(ops) > len(p.Ops) {
		return false
	}
	for i, op := range ops {
		want := p.Ops[i]
		if op.obj != want.Object || (op.kind == wire.MsgWrite) != (want.Kind == core.OpWrite) {
			return false
		}
	}
	return true
}

// writeSpans writes the trees as one JSON object per line, parents
// before children.
func (b *budget) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := json.NewEncoder(f)
	next := 0
	var walk func(s *span, parent int) error
	walk = func(s *span, parent int) error {
		next++
		s.ID, s.Parent = next, parent
		if err := w.Encode(s); err != nil {
			return err
		}
		for _, c := range s.children {
			if err := walk(c, s.ID); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range b.roots {
		if err := walk(root, 0); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// print writes the "where the microseconds go" table. Shares are of the
// service time — everything after an executor picked the transaction
// up — because time spent queued behind the schedule is the
// generator's, and one stall of the box fills it.
func (b *budget) print(w io.Writer, name string) {
	if b.commits == 0 {
		return
	}
	total := float64(b.latency) / 1e3 / float64(b.commits)
	service := total - b.perCommitUS(layerLoadgen)
	fmt.Fprintf(w, "latency budget of %s: %.1f µs per commit from due time, %.1f µs of it service time; %d commits (%d attempts joined, %d not)\n",
		name, total, service, b.commits, b.matched, b.unmatched)
	for l := layer(0); l < numLayers; l++ {
		us := b.perCommitUS(l)
		if l == layerLoadgen {
			fmt.Fprintf(w, "  %-8s %10.1f µs\n", layerNames[l], us)
			continue
		}
		fmt.Fprintf(w, "  %-8s %10.1f µs  %5.1f %%\n", layerNames[l], us, 100*us/service)
	}
	fmt.Fprintf(w, "  sum error %.2f %%\n", b.sumErrorPct())
}
