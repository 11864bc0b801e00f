// Package metrics collects the performance counters the paper's
// evaluation reports: commits, aborts (retries) broken down by cause,
// executed read and write operations, successful inconsistent operations,
// wasted operations from aborted attempts, and waits (§7–8).
//
// Counters are updated with atomic increments from many goroutines and
// read via consistent-enough snapshots; the experiment harness works with
// snapshot deltas over timed intervals to derive throughput.
package metrics

import (
	"sync/atomic"
	"time"
)

// Collector accumulates counters for one engine instance. The zero value
// is ready to use. A nil *Collector is also valid and drops all updates,
// so components can make metrics optional without branching.
type Collector struct {
	commits atomic.Int64
	begins  atomic.Int64

	abortLateRead      atomic.Int64
	abortLateWrite     atomic.Int64
	abortImportLimit   atomic.Int64
	abortExportLimit   atomic.Int64
	abortWaitTimeout   atomic.Int64
	abortMissingObject atomic.Int64
	abortExplicit      atomic.Int64
	abortOther         atomic.Int64

	readsExecuted  atomic.Int64
	writesExecuted atomic.Int64

	inconsistentReads  atomic.Int64
	inconsistentWrites atomic.Int64

	wastedOps atomic.Int64
	waits     atomic.Int64

	dirtySourceAborted atomic.Int64

	readOnlyCommits atomic.Int64
	readOnlyWaits   atomic.Int64

	lat [NumLatencyKinds]Histogram

	// walBatch is the distribution of group-commit batch sizes: how many
	// records each WAL fsync covered.
	walBatch Histogram
}

// AbortReason classifies why the engine aborted a transaction attempt.
type AbortReason uint8

const (
	// AbortLateRead is a read arriving after a conflicting newer write
	// that ESR could not admit.
	AbortLateRead AbortReason = iota
	// AbortLateWrite is a write arriving after a conflicting newer read
	// or write.
	AbortLateWrite
	// AbortImportLimit is a violated import bound (OIL, group, or TIL).
	AbortImportLimit
	// AbortExportLimit is a violated export bound (OEL, group, or TEL).
	AbortExportLimit
	// AbortWaitTimeout is a strict-ordering wait that exceeded the
	// engine's safety-valve timeout.
	AbortWaitTimeout
	// AbortMissingObject is an operation on an object that does not exist.
	AbortMissingObject
	// AbortExplicit is a client-requested abort.
	AbortExplicit
	// AbortOther covers internal errors.
	AbortOther

	numAbortReasons
)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case AbortLateRead:
		return "late-read"
	case AbortLateWrite:
		return "late-write"
	case AbortImportLimit:
		return "import-limit"
	case AbortExportLimit:
		return "export-limit"
	case AbortWaitTimeout:
		return "wait-timeout"
	case AbortMissingObject:
		return "missing-object"
	case AbortExplicit:
		return "explicit"
	default:
		return "other"
	}
}

// Begin records a transaction attempt starting.
func (c *Collector) Begin() {
	if c != nil {
		c.begins.Add(1)
	}
}

// Commit records a transaction attempt committing.
func (c *Collector) Commit() {
	if c != nil {
		c.commits.Add(1)
	}
}

// Abort records a transaction attempt aborting for the given reason,
// together with the number of operations the attempt had already
// executed, which become wasted work (Fig 10's "useless operations").
func (c *Collector) Abort(reason AbortReason, opsExecuted int64) {
	if c == nil {
		return
	}
	switch reason {
	case AbortLateRead:
		c.abortLateRead.Add(1)
	case AbortLateWrite:
		c.abortLateWrite.Add(1)
	case AbortImportLimit:
		c.abortImportLimit.Add(1)
	case AbortExportLimit:
		c.abortExportLimit.Add(1)
	case AbortWaitTimeout:
		c.abortWaitTimeout.Add(1)
	case AbortMissingObject:
		c.abortMissingObject.Add(1)
	case AbortExplicit:
		c.abortExplicit.Add(1)
	default:
		c.abortOther.Add(1)
	}
	c.wastedOps.Add(opsExecuted)
}

// ReadExecuted records one successful read; inconsistent says whether it
// went through an ESR relaxation viewing nonzero inconsistency.
func (c *Collector) ReadExecuted(inconsistent bool) {
	if c == nil {
		return
	}
	c.readsExecuted.Add(1)
	if inconsistent {
		c.inconsistentReads.Add(1)
	}
}

// WriteExecuted records one successful write; inconsistent says whether
// it exported nonzero inconsistency through ESR case 3.
func (c *Collector) WriteExecuted(inconsistent bool) {
	if c == nil {
		return
	}
	c.writesExecuted.Add(1)
	if inconsistent {
		c.inconsistentWrites.Add(1)
	}
}

// Waited records one strict-ordering wait.
func (c *Collector) Waited() {
	if c != nil {
		c.waits.Add(1)
	}
}

// DirtySourceAborted records that an update whose uncommitted value had
// been read by a query later aborted — the §5.1 corner the paper chooses
// not to guard against; we count it for observability.
func (c *Collector) DirtySourceAborted() { c.AddDirtySourceAborted(1) }

// AddDirtySourceAborted records n dirty-source-abort occurrences at once
// (an aborting update may have had several query readers).
func (c *Collector) AddDirtySourceAborted(n int64) {
	if c != nil && n > 0 {
		c.dirtySourceAborted.Add(n)
	}
}

// ReadOnlyCommit records a commit the write-ahead log acknowledged
// without appending a record; waited says it had to wait for the
// versions it read to become durable.
func (c *Collector) ReadOnlyCommit(waited bool) {
	if c == nil {
		return
	}
	c.readOnlyCommits.Add(1)
	if waited {
		c.readOnlyWaits.Add(1)
	}
}

// ObserveLatency records one duration on the given engine path.
func (c *Collector) ObserveLatency(k LatencyKind, d time.Duration) {
	if c != nil && k < NumLatencyKinds {
		c.lat[k].ObserveDuration(d)
	}
}

// ObserveWALBatch records the number of records one WAL fsync covered —
// the group-commit batch size.
func (c *Collector) ObserveWALBatch(records int64) {
	if c != nil {
		c.walBatch.Observe(records)
	}
}

// WALBatchSnapshot copies the group-commit batch-size histogram. A nil
// Collector snapshots as empty.
func (c *Collector) WALBatchSnapshot() HistogramSnapshot {
	if c == nil {
		return HistogramSnapshot{}
	}
	return c.walBatch.Snapshot()
}

// LatencySnapshot copies the per-path latency histograms. A nil Collector
// snapshots as empty.
func (c *Collector) LatencySnapshot() LatencySet {
	var s LatencySet
	if c == nil {
		return s
	}
	for i := range c.lat {
		s[i] = c.lat[i].Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	Begins  int64
	Commits int64

	AbortLateRead      int64
	AbortLateWrite     int64
	AbortImportLimit   int64
	AbortExportLimit   int64
	AbortWaitTimeout   int64
	AbortMissingObject int64
	AbortExplicit      int64
	AbortOther         int64

	ReadsExecuted  int64
	WritesExecuted int64

	InconsistentReads  int64
	InconsistentWrites int64

	WastedOps int64
	Waits     int64

	DirtySourceAborted int64

	// ReadOnlyCommits counts commits the log acknowledged without a
	// record; ReadOnlyWaits those among them that waited for durability.
	// The wire Stats frame does not carry them.
	ReadOnlyCommits int64
	ReadOnlyWaits   int64
}

// Snapshot returns a copy of the current counter values. A nil Collector
// snapshots as all zeros.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Begins:             c.begins.Load(),
		Commits:            c.commits.Load(),
		AbortLateRead:      c.abortLateRead.Load(),
		AbortLateWrite:     c.abortLateWrite.Load(),
		AbortImportLimit:   c.abortImportLimit.Load(),
		AbortExportLimit:   c.abortExportLimit.Load(),
		AbortWaitTimeout:   c.abortWaitTimeout.Load(),
		AbortMissingObject: c.abortMissingObject.Load(),
		AbortExplicit:      c.abortExplicit.Load(),
		AbortOther:         c.abortOther.Load(),
		ReadsExecuted:      c.readsExecuted.Load(),
		WritesExecuted:     c.writesExecuted.Load(),
		InconsistentReads:  c.inconsistentReads.Load(),
		InconsistentWrites: c.inconsistentWrites.Load(),
		WastedOps:          c.wastedOps.Load(),
		Waits:              c.waits.Load(),
		DirtySourceAborted: c.dirtySourceAborted.Load(),
		ReadOnlyCommits:    c.readOnlyCommits.Load(),
		ReadOnlyWaits:      c.readOnlyWaits.Load(),
	}
}

// AbortBreakdown returns the nonzero abort counters keyed by reason name
// — the shape the debug endpoint and the bench's per-cell JSON report.
func (s Snapshot) AbortBreakdown() map[string]int64 {
	out := make(map[string]int64)
	for reason, v := range map[AbortReason]int64{
		AbortLateRead:      s.AbortLateRead,
		AbortLateWrite:     s.AbortLateWrite,
		AbortImportLimit:   s.AbortImportLimit,
		AbortExportLimit:   s.AbortExportLimit,
		AbortWaitTimeout:   s.AbortWaitTimeout,
		AbortMissingObject: s.AbortMissingObject,
		AbortExplicit:      s.AbortExplicit,
		AbortOther:         s.AbortOther,
	} {
		if v != 0 {
			out[reason.String()] = v
		}
	}
	return out
}

// Aborts sums all abort reasons — the paper's "number of retries".
func (s Snapshot) Aborts() int64 {
	return s.AbortLateRead + s.AbortLateWrite + s.AbortImportLimit +
		s.AbortExportLimit + s.AbortWaitTimeout + s.AbortMissingObject +
		s.AbortExplicit + s.AbortOther
}

// TotalOps is the total number of executed operations, reads plus writes,
// including those of attempts that later aborted (Fig 10).
func (s Snapshot) TotalOps() int64 { return s.ReadsExecuted + s.WritesExecuted }

// InconsistentOps is the number of successful inconsistent operations
// (Fig 8).
func (s Snapshot) InconsistentOps() int64 {
	return s.InconsistentReads + s.InconsistentWrites
}

// OpsPerCommit is the average number of executed operations per committed
// transaction (Fig 13); zero commits yield zero.
func (s Snapshot) OpsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.TotalOps()) / float64(s.Commits)
}

// Sub returns the counter-wise difference s − t, used to confine a
// measurement to a timed interval.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		Begins:             s.Begins - t.Begins,
		Commits:            s.Commits - t.Commits,
		AbortLateRead:      s.AbortLateRead - t.AbortLateRead,
		AbortLateWrite:     s.AbortLateWrite - t.AbortLateWrite,
		AbortImportLimit:   s.AbortImportLimit - t.AbortImportLimit,
		AbortExportLimit:   s.AbortExportLimit - t.AbortExportLimit,
		AbortWaitTimeout:   s.AbortWaitTimeout - t.AbortWaitTimeout,
		AbortMissingObject: s.AbortMissingObject - t.AbortMissingObject,
		AbortExplicit:      s.AbortExplicit - t.AbortExplicit,
		AbortOther:         s.AbortOther - t.AbortOther,
		ReadsExecuted:      s.ReadsExecuted - t.ReadsExecuted,
		WritesExecuted:     s.WritesExecuted - t.WritesExecuted,
		InconsistentReads:  s.InconsistentReads - t.InconsistentReads,
		InconsistentWrites: s.InconsistentWrites - t.InconsistentWrites,
		WastedOps:          s.WastedOps - t.WastedOps,
		Waits:              s.Waits - t.Waits,
		DirtySourceAborted: s.DirtySourceAborted - t.DirtySourceAborted,
		ReadOnlyCommits:    s.ReadOnlyCommits - t.ReadOnlyCommits,
		ReadOnlyWaits:      s.ReadOnlyWaits - t.ReadOnlyWaits,
	}
}
