// Package wal is the durability layer (DESIGN.md §10): an append-only,
// segmented, CRC-framed write-ahead log with batched-fsync group commit,
// periodic full-store snapshots with log truncation, and crash recovery
// that rebuilds the store, the bounded per-object history, and the
// accumulated epsilon accounting exactly.
//
// Group commit is self-clocked: appenders encode their record into the
// pending batch under the log mutex, receive an Ack and nudge a single
// committer goroutine. An idle committer flushes at once — one write,
// one fsync — and releases every waiting Ack. Appends that arrive while
// an fsync is in flight form the next batch, flushed right after it, so
// the fsync itself is the batching window: a lone commit pays one
// fsync and no timer, and under load one fsync covers everything that
// queued behind the previous one, which keeps durable throughput within
// sight of the in-memory engine instead of collapsing to the disk's
// sync rate (BenchmarkWALCommit: group vs fsync-per-txn).
//
// Atomicity contract: LogCommit appends the record and runs the
// caller's publish callback (which makes the writes visible) under one
// mutex. Log order therefore respects inter-transaction dependency
// order — a transaction that read another's committed write always
// appears later in the log — and a snapshot captured under the same
// mutex corresponds exactly to a log prefix [.., LSN].
//
// Read-only commits (storage.TxnCommit.ReadOnly) append nothing: they
// consume no LSN and wait only until their read horizon is durable —
// not at all when it already is.
package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
)

// DefaultSegmentBytes is the segment size when Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// ErrLogClosed is returned for appends after Close.
var ErrLogClosed = errors.New("wal: log closed")

// ErrLogKilled resolves in-flight acks when the log is killed mid-run
// (crash simulation): the commit may or may not be durable.
var ErrLogKilled = errors.New("wal: log killed before batch was synced")

// Options configures a Log.
type Options struct {
	// SyncInterval selects the commit mode by its sign only. Zero or
	// positive is self-clocked group commit, which has no timer: the
	// magnitude is ignored. Negative fsyncs after every record (the
	// per-transaction baseline the benchmarks compare against).
	SyncInterval time.Duration
	// SegmentBytes rolls to a new segment file once the active one
	// reaches this size. Zero means DefaultSegmentBytes.
	SegmentBytes int
	// SnapshotEvery takes a store snapshot (and truncates the log) after
	// this many records. Zero disables automatic snapshots; Snapshot can
	// still be called explicitly.
	SnapshotEvery int
	// Collector receives fsync latency and batch-size histograms.
	Collector *metrics.Collector
	// Logf receives diagnostics (snapshot failures); nil discards them.
	Logf func(format string, args ...any)
}

// ack is the durability ticket: closed by the committer once the
// record's batch is synced (or failed).
type ack struct {
	ch  chan struct{}
	err error
}

// Wait implements storage.Ack.
func (a *ack) Wait() error {
	<-a.ch
	return a.err
}

// Log is a write-ahead log over one FS directory. It implements
// storage.Durability. All appends are safe for concurrent use; the
// committer goroutine owns the segment files.
type Log struct {
	fs   FS
	opts Options
	// source is the store snapshots capture; set by Open/Recover.
	source *storage.Store

	// mu guards the pending batch and LSN state. Lock order: mu before
	// store/object locks (the publish callbacks), never the reverse.
	mu        sync.Mutex
	buf       []byte // encoded frames awaiting flush
	spare     []byte // previous batch's buffer, reused
	scratch   []byte // payload staging, reused per append
	pending   []*ack // acks awaiting the next flush
	pendSpare []*ack
	// inflight holds the acks of the batch the committer is writing and
	// inflightLSN the highest LSN in it. A read-only commit whose horizon
	// that batch covers joins it rather than waiting for the next one.
	inflight    []*ack
	inflightLSN uint64
	nextLSN     uint64
	records     int // records in the pending batch
	sinceSnap   int // records appended since the last snapshot
	closed      bool
	err         error // sticky: first sync failure poisons the log

	// durable is the highest LSN known synced, and down is set once the
	// log is closed, killed or poisoned. The read-only fast path reads
	// both without mu: writeSnapshot holds mu across CaptureState.
	durable atomic.Uint64
	down    atomic.Bool

	// Committer-owned segment state. seg/segSeq/segBytes need no mu
	// (single goroutine after startup); segNames and snapLSN are also
	// read by SubscribeFrom, so their mutations happen under mu.
	seg      File
	segSeq   uint64
	segBytes int
	segNames []string
	snapLSN  uint64

	// Subscriber state (mu): live tails, per-segment pin counts held by
	// catch-up readers, and segments a snapshot wanted to remove while
	// pinned (removed at last unpin instead).
	tails  []*Tail
	pins   map[string]int
	doomed map[string]bool

	flushCh chan struct{}
	snapCh  chan chan error
	quit    chan struct{}
	killCh  chan struct{}
	done    chan struct{}
}

// Open creates or resumes a log over fs without replaying (use Recover
// for the full open-with-replay path). source is the store snapshots
// capture; it may be nil for logs that never snapshot (tests).
func Open(fs FS, source *storage.Store, opts Options) (*Log, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	segs, _, err := classify(names)
	if err != nil {
		return nil, err
	}
	info := RecoveryInfo{NextLSN: 1}
	for _, s := range segs {
		info.segments = append(info.segments, s.name)
		info.lastSegSeq = s.seq
	}
	return newLog(fs, source, info, opts)
}

// newLog builds the Log and starts its committer.
func newLog(fs FS, source *storage.Store, info RecoveryInfo, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	nextLSN := info.NextLSN
	if nextLSN == 0 {
		nextLSN = 1
	}
	l := &Log{
		fs:       fs,
		opts:     opts,
		source:   source,
		nextLSN:  nextLSN,
		segSeq:   info.lastSegSeq,
		segNames: append([]string(nil), info.segments...),
		snapLSN:  info.SnapshotLSN,
		pins:     make(map[string]int),
		doomed:   make(map[string]bool),
		flushCh:  make(chan struct{}, 1),
		snapCh:   make(chan chan error),
		quit:     make(chan struct{}),
		killCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	// Everything recovery read back from the segments is on disk.
	l.durable.Store(nextLSN - 1)
	// The committer is not running yet, so rolling here is single-
	// threaded; every pre-existing segment stays listed for truncation
	// by the next snapshot.
	if err := l.rollSegment(); err != nil {
		return nil, err
	}
	go l.run()
	return l, nil
}

// LogCommit implements storage.Durability: the record is framed into the
// pending batch and publish runs, atomically with respect to other
// appends and snapshot captures. The record's LSN is written into rec
// before publish runs. The returned Ack resolves when the batch is
// synced. On error (closed or poisoned log) publish has NOT run; the
// caller decides whether to publish anyway. A read-only record is not
// appended at all (logReadOnly).
func (l *Log) LogCommit(rec *storage.TxnCommit, publish func()) (storage.Ack, error) {
	if rec.ReadOnly() {
		return l.logReadOnly(rec.ReadHorizon, publish)
	}
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	lsn := l.nextLSN
	l.nextLSN++
	rec.LSN = lsn
	l.scratch = appendCommitPayload(l.scratch[:0], lsn, rec)
	l.appendLocked()
	if publish != nil {
		publish()
	}
	a := l.enqueueAckLocked()
	l.mu.Unlock()
	l.nudge()
	return a, nil
}

// logReadOnly acknowledges a commit that changes no durable state. It
// appends no frame and consumes no LSN: it only has to wait until the
// versions it read are durable, and an unknown horizon stands for
// everything appended so far. When the horizon is already durable the
// Ack is nil and the log mutex is never taken. Otherwise the Ack joins
// the batch that makes the horizon durable — the one in flight when it
// covers the horizon, else the pending one — and no later batch.
//
// On the fast path publish runs without the mutex: a commit with no
// record has no log position to be ordered against.
func (l *Log) logReadOnly(h storage.ReadHorizon, publish func()) (storage.Ack, error) {
	if h.Known && h.LSN <= l.durable.Load() && !l.down.Load() {
		if publish != nil {
			publish()
		}
		l.opts.Collector.ReadOnlyCommit(false)
		return nil, nil
	}
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	// Every version a reader can see was appended before it got here, so
	// the horizon never needs to reach past the last appended LSN.
	target := l.nextLSN - 1
	if h.Known && h.LSN < target {
		target = h.LSN
	}
	var a *ack
	switch {
	case target <= l.durable.Load():
	case target <= l.inflightLSN:
		// Between flushes inflightLSN is at most durable, so only a batch
		// still in flight gets here.
		a = &ack{ch: make(chan struct{})}
		l.inflight = append(l.inflight, a)
	default:
		a = l.enqueueAckLocked()
		defer l.nudge() // runs after the unlock below
	}
	if publish != nil {
		publish()
	}
	l.mu.Unlock()
	l.opts.Collector.ReadOnlyCommit(a != nil)
	if a == nil {
		return nil, nil
	}
	return a, nil
}

// LogCreate implements storage.Durability: apply runs under the log
// mutex first; only if it succeeds is the create record appended. The
// call returns once the record is durable.
func (l *Log) LogCreate(id core.ObjectID, initial core.Value, oil, oel core.Distance, apply func() error) error {
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if apply != nil {
		if err := apply(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.scratch = appendCreatePayload(l.scratch[:0], lsn, id, initial, oil, oel)
	l.appendLocked()
	a := l.enqueueAckLocked()
	l.mu.Unlock()
	l.nudge()
	return a.Wait()
}

// LogSetAllLimits implements storage.Durability.
func (l *Log) LogSetAllLimits(oil, oel core.Distance, apply func()) error {
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		if apply != nil {
			// The in-memory sweep must happen even when it cannot be
			// made durable.
			apply()
		}
		return err
	}
	if apply != nil {
		apply()
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.scratch = appendLimitsPayload(l.scratch[:0], lsn, oil, oel)
	l.appendLocked()
	a := l.enqueueAckLocked()
	l.mu.Unlock()
	l.nudge()
	return a.Wait()
}

// Sync is a durability barrier: it returns once everything appended
// before the call is synced.
func (l *Log) Sync() error {
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	a := l.enqueueAckLocked()
	l.mu.Unlock()
	l.nudge()
	return a.Wait()
}

// Snapshot captures the store and truncates the log, synchronously.
func (l *Log) Snapshot() error {
	done := make(chan error, 1)
	select {
	case l.snapCh <- done:
	case <-l.done:
		return ErrLogClosed
	}
	select {
	case err := <-done:
		return err
	case <-l.done:
		return ErrLogClosed
	}
}

// Close flushes the pending batch, stops the committer and closes the
// active segment. Further appends fail with ErrLogClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.down.Store(true)
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.closeTails(ErrLogClosed)
	var err error
	if l.seg != nil {
		err = l.seg.Close()
	}
	l.mu.Lock()
	if l.err != nil {
		err = l.err
	}
	l.mu.Unlock()
	return err
}

// Kill stops the committer WITHOUT flushing the pending batch —
// simulating the process dying mid-run. In-flight acks resolve with
// ErrLogKilled; the segment file is left exactly as the last completed
// flush left it, ready for MemFS.Crash to shear the unsynced tail.
func (l *Log) Kill() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	if l.err == nil {
		l.err = ErrLogKilled
	}
	l.down.Store(true)
	l.mu.Unlock()
	close(l.killCh)
	<-l.done
	l.closeTails(ErrLogKilled)
}

// Err returns the sticky log error (nil while healthy).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// usableLocked gates appends; requires mu.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrLogClosed
	}
	return l.err
}

// appendLocked frames the payload staged in scratch into the pending
// batch. Records, not acks, count toward the batch size and
// SnapshotEvery: a Sync barrier or a read-only commit adds nothing to
// replay. Requires mu.
func (l *Log) appendLocked() {
	l.buf = appendFrame(l.buf, l.scratch)
	l.records++
	l.sinceSnap++
}

// enqueueAckLocked registers an ack on the pending batch; requires mu.
func (l *Log) enqueueAckLocked() *ack {
	a := &ack{ch: make(chan struct{})}
	l.pending = append(l.pending, a)
	return a
}

// nudge asks the committer to flush as soon as it is idle. Every append
// that registers an ack on the pending batch nudges; the one-slot
// channel coalesces the nudges that arrive during an fsync into the one
// flush that follows it.
func (l *Log) nudge() {
	select {
	case l.flushCh <- struct{}{}:
	default:
	}
}

// poison records the first fatal I/O error; every later append and ack
// fails with it.
func (l *Log) poison(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.down.Store(true)
	l.mu.Unlock()
	l.closeTails(err)
}

// run is the committer goroutine: the only place segment writes, fsyncs,
// rolls and snapshots happen (the locksafe analyzer enforces this).
func (l *Log) run() {
	defer close(l.done)
	for {
		select {
		case <-l.killCh:
			l.failPending(ErrLogKilled)
			return
		case <-l.quit:
			l.flushOnce()
			return
		case <-l.flushCh:
			l.flushOnce()
		case done := <-l.snapCh:
			l.flushOnce()
			done <- l.writeSnapshot()
			continue
		}
		if l.opts.SnapshotEvery > 0 {
			l.mu.Lock()
			due := l.sinceSnap >= l.opts.SnapshotEvery
			l.mu.Unlock()
			if due {
				if err := l.writeSnapshot(); err != nil && l.opts.Logf != nil {
					l.opts.Logf("wal: snapshot failed: %v", err)
				}
			}
		}
	}
}

// flushOnce swaps the pending batch out under the mutex, writes and
// fsyncs it outside, then releases every waiting ack — one fsync for
// the whole batch. While the batch is in flight, read-only commits it
// covers may still join its acks.
func (l *Log) flushOnce() {
	l.mu.Lock()
	buf := l.buf
	l.buf = l.spare[:0]
	l.spare = buf
	if len(buf) == 0 && len(l.pending) == 0 {
		l.mu.Unlock()
		return
	}
	l.inflight = l.pending
	l.inflightLSN = l.nextLSN - 1
	l.pending = l.pendSpare[:0]
	records := l.records
	l.records = 0
	err := l.err
	l.mu.Unlock()
	if err == nil {
		if l.opts.SyncInterval < 0 {
			err = l.writeEachSynced(buf)
		} else {
			err = l.writeBatchSynced(buf, records)
		}
	}
	if err != nil {
		l.poison(err)
	}
	l.mu.Lock()
	if err == nil {
		// The batch is durable: hand it to subscribers before releasing
		// the acks, under mu so registration in SubscribeFrom is ordered
		// against delivery (a new subscriber either receives this batch
		// on its queue or reads it from the segment file).
		l.durable.Store(l.inflightLSN)
		l.deliverLocked(buf)
	}
	pending := l.inflight
	l.inflight = nil
	l.pendSpare = pending
	l.mu.Unlock()
	for i, a := range pending {
		a.err = err
		close(a.ch)
		pending[i] = nil
	}
	if err == nil && l.segBytes >= l.opts.SegmentBytes {
		if rerr := l.rollSegment(); rerr != nil {
			l.poison(rerr)
		}
	}
}

// writeBatchSynced writes the whole batch and fsyncs once — the group
// commit path: one disk flush covers every record in the batch.
func (l *Log) writeBatchSynced(buf []byte, records int) error {
	start := time.Now()
	if len(buf) > 0 {
		if _, err := l.seg.Write(buf); err != nil {
			return err
		}
	}
	if err := l.seg.Sync(); err != nil {
		return err
	}
	l.opts.Collector.ObserveLatency(metrics.LatFsync, time.Since(start))
	l.opts.Collector.ObserveWALBatch(int64(records))
	l.segBytes += len(buf)
	return nil
}

// writeEachSynced writes and fsyncs frame by frame: the per-transaction
// baseline pays one fsync per record even when appends arrive
// concurrently, so the group-commit comparison measures batching rather
// than accidental nudge coalescing.
func (l *Log) writeEachSynced(buf []byte) error {
	for off := 0; off < len(buf); {
		_, next, ok, _ := nextFrame(buf, off)
		if !ok {
			// Impossible for frames we encoded ourselves; flush the rest
			// in one piece rather than lose bytes.
			next = len(buf)
		}
		start := time.Now()
		if _, err := l.seg.Write(buf[off:next]); err != nil {
			return err
		}
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.opts.Collector.ObserveLatency(metrics.LatFsync, time.Since(start))
		l.opts.Collector.ObserveWALBatch(1)
		l.segBytes += next - off
		off = next
	}
	return nil
}

// failPending resolves every waiting ack with err (Kill path: the batch
// is abandoned, not flushed).
func (l *Log) failPending(err error) {
	l.mu.Lock()
	pending := l.pending
	l.pending = nil
	l.mu.Unlock()
	for _, a := range pending {
		a.err = err
		close(a.ch)
	}
}

// rollSegment closes the active segment and opens the next one.
func (l *Log) rollSegment() error {
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			return err
		}
	}
	l.segSeq++
	return l.openSegment(l.segSeq)
}

// openSegment creates and syncs a fresh segment file with its header.
func (l *Log) openSegment(seq uint64) error {
	name := segName(seq)
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := l.fs.SyncDir(); err != nil {
		f.Close()
		return err
	}
	l.seg = f
	l.segBytes = len(segMagic)
	l.mu.Lock()
	l.segNames = append(l.segNames, name)
	l.mu.Unlock()
	return nil
}
