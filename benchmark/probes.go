package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/replica"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
	"github.com/epsilondb/epsilondb/internal/wire"
)

// Isolated probes: one goroutine calling a layer's public functions a
// fixed number of times, so the numbers compare two versions of one
// function with nothing else in the way. A time is the median of
// probeBatches batches; an allocation count is exact.

const probeBatches = 9

// timeNS runs f (which performs ops operations) probeBatches times and
// returns the median time per operation in ns.
func timeNS(ops int, f func()) float64 {
	f() // warm caches, pools and lazily built tables
	per := make([]float64, probeBatches)
	for i := range per {
		t0 := time.Now()
		f()
		per[i] = float64(time.Since(t0)) / float64(ops)
	}
	return median(per)
}

// allocsPer counts the heap allocations of one call of f, averaged over
// runs calls, the way testing.AllocsPerRun does.
func allocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink int64

// runProbes measures every isolated probe into m. breakGate "crash"
// corrupts the crash-recovery probe's expectation.
func runProbes(m map[string]float64, seed int64, breakGate string) error {
	probeWire(m)
	if err := probeTSO(m); err != nil {
		return fmt.Errorf("tso probe: %w", err)
	}
	if err := probeCore(m); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := probeStorage(m, seed); err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	if err := probeWAL(m, seed, breakGate); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := probeReplica(m); err != nil {
		return fmt.Errorf("replica probe: %w", err)
	}
	return nil
}

func probeWire(m map[string]float64) {
	batch := &wire.Batch{}
	for i := 0; i < 16; i++ {
		batch.Ops = append(batch.Ops, wire.BatchItem{Tag: uint32(i + 1),
			Msg: &wire.Write{Txn: 7, Object: core.ObjectID(i), Delta: true, Value: 25}})
	}
	var frame bytes.Buffer
	enc := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{nil, &frame})
	_ = enc.WriteMessage(batch) // a bytes.Buffer cannot fail
	m["wire.bytes_per_batched_op"] = float64(frame.Len()) / 16

	const n = 20000
	out := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	m["wire.encode_batch16_ns"] = timeNS(n, func() {
		for i := 0; i < n; i++ {
			_ = out.WriteMessage(batch) // io.Discard cannot fail
		}
	})

	// Decoding reads the same frame over and over.
	rep := &repeatReader{frame: frame.Bytes()}
	in := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{rep, io.Discard})
	m["wire.decode_batch16_ns"] = timeNS(n, func() {
		for i := 0; i < n; i++ {
			msg, err := in.ReadMessage()
			if err != nil {
				panic(err) // our own frame
			}
			wire.Recycle(msg)
		}
	})

	// One tagged operation there and back through the codec alone:
	// encode the request, decode it, encode the reply, decode it.
	conn := wire.NewConn(&bytes.Buffer{}) // writes append, reads drain
	req := &wire.Tagged{Tag: 3, Inner: &wire.Read{Txn: 7, Object: 11}}
	reply := &wire.TaggedReply{Tag: 3, Inner: &wire.Value{Value: 1234}}
	roundTrip := func() {
		for _, msg := range [2]wire.Message{req, reply} {
			_ = conn.WriteMessage(msg) // a bytes.Buffer cannot fail
			got, err := conn.ReadMessage()
			if err != nil {
				panic(err)
			}
			wire.Recycle(got)
		}
	}
	m["wire.roundtrip_op_ns"] = timeNS(n, func() {
		for i := 0; i < n; i++ {
			roundTrip()
		}
	})
	m["wire.allocs_per_roundtrip"] = allocsPer(1000, roundTrip)
}

// repeatReader serves one frame's bytes endlessly.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// probeTSO times each engine call on an uncontended engine: batches of
// transactions that touch disjoint objects, so no call ever waits or
// aborts.
func probeTSO(m map[string]float64) error {
	const txns, opsPer = 256, 8
	st := storage.NewStore(storage.Config{})
	if err := st.Populate(txns*opsPer, 1000, 9999, core.NoLimit, core.NoLimit, core.NoLimit, core.NoLimit, rand.New(rand.NewSource(1))); err != nil {
		return err
	}
	eng := tso.NewEngine(st, tso.Options{})
	tick := int64(0)
	ids := make([]core.TxnID, txns)
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	begin := func(kind core.Kind) {
		for i := range ids {
			tick++
			id, err := eng.Begin(kind, tsgen.Make(tick, 1), core.UnboundedSpec())
			note(err)
			ids[i] = id
		}
	}
	commit := func() {
		for _, id := range ids {
			note(eng.Commit(id))
		}
	}
	var beginNS, readNS, writeNS, commitNS [probeBatches]float64
	for b := -1; b < probeBatches; b++ { // batch -1 warms up
		t0 := time.Now()
		begin(core.Query)
		t1 := time.Now()
		for i, id := range ids {
			for k := 0; k < opsPer; k++ {
				v, err := eng.Read(id, core.ObjectID(i*opsPer+k))
				note(err)
				sink += v
			}
		}
		t2 := time.Now()
		commit()
		begin(core.Update)
		t3 := time.Now()
		for i, id := range ids {
			for k := 0; k < opsPer; k++ {
				_, err := eng.WriteDelta(id, core.ObjectID(i*opsPer+k), 1)
				note(err)
			}
		}
		t4 := time.Now()
		commit()
		t5 := time.Now()
		if b >= 0 {
			beginNS[b] = float64(t1.Sub(t0)) / txns
			readNS[b] = float64(t2.Sub(t1)) / (txns * opsPer)
			writeNS[b] = float64(t4.Sub(t3)) / (txns * opsPer)
			commitNS[b] = float64(t5.Sub(t4)) / txns
		}
	}
	if failed != nil {
		return failed
	}
	m["tso.begin_ns"] = median(beginNS[:])
	m["tso.read_ns"] = median(readNS[:])
	m["tso.write_ns"] = median(writeNS[:])
	m["tso.commit_ns"] = median(commitNS[:])
	m["tso.allocs_per_txn"] = allocsPer(200, func() {
		tick++
		id, err := eng.Begin(core.Update, tsgen.Make(tick, 1), core.UnboundedSpec())
		note(err)
		for k := 0; k < opsPer; k++ {
			_, err := eng.WriteDelta(id, core.ObjectID(k), 1)
			note(err)
		}
		note(eng.Commit(id))
	})
	return failed
}

// probeCore times the epsilon check itself: admitting a charge on the
// flat schema, on a three-level group hierarchy, and refusing one.
func probeCore(m map[string]float64) error {
	const n = 200000
	spec := core.BoundSpec{Transaction: core.NoLimit}
	var flat core.Accumulator
	if err := flat.Init(nil, spec, true); err != nil {
		return err
	}
	var failed error
	admit := func(a *core.Accumulator) func() {
		return func() {
			for i := 0; i < n; i++ {
				if err := a.Admit(core.ObjectID(i&63), 1, core.NoLimit); err != nil {
					failed = err
				}
			}
		}
	}
	m["core.admit_flat_ns"] = timeNS(n, admit(&flat))

	// company → division → team, 64 objects spread over four teams.
	schema := core.NewSchema()
	company := schema.MustAddGroup("company", core.RootGroup)
	deepSpec := spec.WithGroup("company", core.NoLimit)
	for d := 0; d < 2; d++ {
		div := schema.MustAddGroup(fmt.Sprintf("div%d", d), company)
		for t := 0; t < 2; t++ {
			team := schema.MustAddGroup(fmt.Sprintf("team%d%d", d, t), div)
			for o := 0; o < 16; o++ {
				if err := schema.Assign(core.ObjectID((d*2+t)*16+o), team); err != nil {
					return err
				}
			}
		}
	}
	var deep core.Accumulator
	if err := deep.Init(schema, deepSpec, true); err != nil {
		return err
	}
	m["core.admit_depth3_ns"] = timeNS(n, admit(&deep))
	m["core.allocs_per_admit"] = allocsPer(1000, func() {
		if err := deep.Admit(5, 1, core.NoLimit); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}

	var tight core.Accumulator
	if err := tight.Init(nil, core.BoundSpec{Transaction: 10}, true); err != nil {
		return err
	}
	refused := 0
	m["core.admit_refuse_ns"] = timeNS(n/10, func() {
		for i := 0; i < n/10; i++ {
			if tight.Admit(core.ObjectID(i&63), 11, core.NoLimit) != nil {
				refused++
			}
		}
	})
	if refused == 0 {
		return errors.New("a charge above the transaction limit was admitted")
	}
	return nil
}

func probeStorage(m map[string]float64, seed int64) error {
	const lookups = 200000
	rng := rand.New(rand.NewSource(seed))
	build := func(objects int) (*storage.Store, []core.ObjectID, error) {
		st := storage.NewStore(storage.Config{})
		if err := st.Populate(objects, 1000, 9999, core.NoLimit, core.NoLimit, core.NoLimit, core.NoLimit, rng); err != nil {
			return nil, nil, err
		}
		ids := make([]core.ObjectID, lookups)
		for i := range ids {
			ids[i] = core.ObjectID(rng.Intn(objects))
		}
		return st, ids, nil
	}
	get := func(st *storage.Store, ids []core.ObjectID) func() {
		return func() {
			for _, id := range ids {
				o, err := st.Get(id)
				if err != nil {
					panic(err) // an id we created
				}
				sink += int64(o.ID())
			}
		}
	}
	small, ids, err := build(1000)
	if err != nil {
		return err
	}
	m["storage.get_1k_ns"] = timeNS(lookups, get(small, ids))

	// 100k objects: a working set well beyond the CPU's caches. The same
	// store gives bytes per object, measured on the live heap.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	big, ids, err := build(100_000)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["storage.bytes_per_object"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc) - float64(len(ids)*4)) / 100_000
	m["storage.get_100k_ns"] = timeNS(lookups, get(big, ids))

	// A query older than everything in a full write history walks all of
	// it to find its proper value.
	for i := 1; i <= 2*storage.DefaultHistoryDepth; i++ {
		if err := small.ApplyCommitted(0, core.Value(i), tsgen.Make(int64(100+i), 1)); err != nil {
			return err
		}
	}
	o, err := small.Get(0)
	if err != nil {
		return err
	}
	old := tsgen.Make(101, 1)
	m["storage.find_proper_ns"] = timeNS(lookups, func() {
		for i := 0; i < lookups; i++ {
			o.Lock()
			v, _ := o.FindProper(old)
			o.Unlock()
			sink += v
		}
	})
	m["wal.snapshot_s"], err = probeSnapshot(big)
	return err
}

// probeSnapshot times one full-store snapshot of the 100k-object store
// onto an in-memory filesystem.
func probeSnapshot(st *storage.Store) (float64, error) {
	l, err := wal.Open(wal.NewMemFS(), st, wal.Options{})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := l.Snapshot(); err != nil {
		return 0, err
	}
	took := time.Since(t0).Seconds()
	return took, l.Close()
}

// commitRecord builds the log record of a transfer between two objects.
func commitRecord(txn int, objects int) *storage.TxnCommit {
	ts := tsgen.Make(int64(1000+txn), 1)
	from, to := core.ObjectID(txn%objects), core.ObjectID((txn+1)%objects)
	return &storage.TxnCommit{Txn: core.TxnID(txn), Kind: core.Update, TS: ts, Writes: []storage.CommittedWrite{
		{Object: from, Value: core.Value(10_000 - txn), TS: ts}, {Object: to, Value: core.Value(10_000 + txn), TS: ts},
	}}
}

func probeWAL(m map[string]float64, seed int64, breakGate string) error {
	// Appending a commit record to the pending batch, on an in-memory
	// filesystem so that no disk is in the measurement.
	const appends = 20000
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, nil, wal.Options{})
	if err != nil {
		return err
	}
	recs := make([]*storage.TxnCommit, appends)
	for i := range recs {
		recs[i] = commitRecord(i+1, 64)
	}
	publish := func() {}
	var failed error
	m["wal.append_ns"] = timeNS(appends, func() {
		for _, rec := range recs {
			if _, err := l.LogCommit(rec, publish); err != nil {
				failed = err
			}
		}
	})
	if err := errors.Join(failed, l.Close()); err != nil {
		return err
	}
	return probeCrash(seed, breakGate)
}

// probeCrash is the durability gate a process kill cannot give: killing
// a process leaves the operating system's cache intact, so this probe
// itself discards the bytes that were never synced (keeping, as a disk
// would, a random part of the torn tail) and checks that recovery
// brings back a prefix of the log that holds every acknowledged commit.
func probeCrash(seed int64, breakGate string) error {
	const objects, commits = 16, 400
	fs := wal.NewMemFS()
	st, l, _, err := wal.Recover(fs, storage.Config{}, wal.Options{SyncInterval: 200 * time.Microsecond})
	if err != nil {
		return err
	}
	for i := 0; i < objects; i++ {
		if _, err := st.Create(core.ObjectID(i), 10_000); err != nil {
			return err
		}
	}
	recs := make([]*storage.TxnCommit, commits)
	acks := make([]storage.Ack, commits)
	for i := range recs {
		recs[i] = commitRecord(i+1, objects)
		if acks[i], err = l.LogCommit(recs[i], func() {}); err != nil {
			return err
		}
	}
	// Acknowledge the first half, then crash with the rest in flight.
	acked := commits / 2
	for _, ack := range acks[:acked] {
		if err := ack.Wait(); err != nil {
			return err
		}
	}
	l.Kill()
	fs.Crash(rand.New(rand.NewSource(seed)))
	got, l2, info, err := wal.Recover(fs, storage.Config{}, wal.Options{})
	if err != nil {
		return fmt.Errorf("recover after crash: %w", err)
	}
	defer l2.Close()
	if breakGate == "crash" {
		acked = commits + 1
	}
	if info.Commits < acked {
		return fmt.Errorf("crash recovery brought back %d commits, %d were acknowledged", info.Commits, acked)
	}
	want := make([]core.Value, objects)
	for i := range want {
		want[i] = 10_000
	}
	for _, rec := range recs[:info.Commits] {
		for _, w := range rec.Writes {
			want[w.Object] = w.Value
		}
	}
	for obj, v := range want {
		o, err := got.Get(core.ObjectID(obj))
		if err != nil {
			return fmt.Errorf("crash recovery lost object %d: %w", obj, err)
		}
		o.Lock()
		have := o.CommittedValue()
		o.Unlock()
		if have != v {
			return fmt.Errorf("crash recovery: object %d holds %d, the log's first %d commits leave %d", obj, have, info.Commits, v)
		}
	}
	return nil
}

func probeReplica(m map[string]float64) error {
	// A primary's log of transfers, then a follower ingesting it.
	const objects, commits = 256, 20000
	fs := wal.NewMemFS()
	st, l, _, err := wal.Recover(fs, storage.Config{}, wal.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < objects; i++ {
		if _, err := st.Create(core.ObjectID(i), 10_000); err != nil {
			return err
		}
	}
	image := wal.EncodeSnapshotImage(l.Head(), st.CaptureState())
	tail, _, err := l.SubscribeFrom(l.Head())
	if err != nil {
		return err
	}
	for i := 1; i <= commits; i++ {
		rec := commitRecord(i, objects)
		if _, err := l.LogCommit(rec, func() {
			for _, w := range rec.Writes {
				_ = st.ApplyCommitted(w.Object, w.Value, w.TS) // objects created above
			}
		}); err != nil {
			return err
		}
	}
	if err := l.Sync(); err != nil {
		return err
	}
	var frames []byte
	head := l.Head()
	for last := uint64(0); last < head; {
		chunk, _, err := tail.Next()
		if err != nil {
			return err
		}
		if err := wal.DecodeFrames(chunk, func(rec wal.Record) error { last = rec.LSN; return nil }); err != nil {
			return err
		}
		frames = append(frames, chunk...)
	}
	tail.Close()
	if err := l.Close(); err != nil {
		return err
	}
	state, lsn, err := wal.DecodeSnapshotImage(image)
	if err != nil {
		return err
	}
	var f *replica.Follower
	var failed error
	perRecord := timeNS(commits, func() {
		f = replica.NewFollower(storage.Config{})
		if err := errors.Join(f.Bootstrap(state, lsn), f.Ingest(frames, head)); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	if f.AppliedLSN() != head {
		return fmt.Errorf("follower applied lsn %d of %d", f.AppliedLSN(), head)
	}
	m["replica.ingest_records_per_s"] = 1e9 / perRecord

	const views = 100000
	ts := tsgen.Make(int64(1000+commits/2), 2)
	m["replica.read_view_ns"] = timeNS(views, func() {
		for i := 0; i < views; i++ {
			v, err := f.ReadView(core.ObjectID(i&(objects-1)), ts)
			if err != nil {
				failed = err
			}
			sink += v.Value
		}
	})
	return failed
}
