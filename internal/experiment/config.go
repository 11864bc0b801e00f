// Package experiment reproduces the paper's performance evaluation: it
// runs closed-loop multiprogramming experiments against the epsilon-TO
// engine and derives the series behind every figure of §8.
//
//	Figure  7 — throughput vs multiprogramming level (four epsilon levels)
//	Figure  8 — successful inconsistent operations vs MPL
//	Figure  9 — number of aborts (retries) vs MPL
//	Figure 10 — total operations executed (R+W) vs MPL
//	Figure 11 — throughput vs TIL at MPL 4 (TEL held at three levels)
//	Figure 12 — throughput vs OIL at MPL 4 (TIL held at three levels)
//	Figure 13 — average operations per transaction vs OIL (TIL varies)
//
// The multiprogramming level is the number of concurrent closed-loop
// clients, each synchronously submitting one operation at a time and
// resubmitting aborted transactions with fresh timestamps until they
// commit — exactly the prototype's client behaviour (§6). A configurable
// per-operation latency stands in for the prototype's RPC cost; scaling
// it uniformly preserves the relative shapes the figures report.
package experiment

import (
	"fmt"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/workload"
)

// Config is one experiment cell.
type Config struct {
	// MPL is the multiprogramming level: the number of client goroutines.
	MPL int
	// Duration is the measurement window.
	Duration time.Duration
	// Warmup runs before measurement begins; counters reset after it.
	Warmup time.Duration
	// Workload configures the transaction generator.
	Workload workload.Params
	// OILMin/OILMax and OELMin/OELMax bound the per-object limits drawn
	// at load time (§6: "the values of OIL and OEL are randomly
	// generated within a specified range").
	OILMin, OILMax core.Distance
	OELMin, OELMax core.Distance
	// OpLatency is the simulated per-operation server service time (the
	// part of the prototype's 17–20 ms RPC spent in the server).
	// Operation service occupies one of the ServerThreads slots, so the
	// server's total capacity is ServerThreads/OpLatency operations per
	// second.
	OpLatency time.Duration
	// NetLatency is the per-operation network/client time — the
	// prototype's ~11 ms null-RPC cost — which elapses outside the
	// server slots and therefore does not consume shared capacity.
	NetLatency time.Duration
	// ServerThreads is the number of operations the server can service
	// concurrently — the capacity of the paper's single multithreaded
	// DECstation server. Work wasted on aborted attempts consumes this
	// shared capacity, which is what makes throughput thrash beyond the
	// saturation point. Zero means 3.
	ServerThreads int
	// HistoryDepth is the per-object committed-write history length
	// (paper: 20).
	HistoryDepth int
	// Seed makes the database load and workloads reproducible.
	Seed int64
	// MaxAttempts caps retries per transaction as a hang guard; zero
	// means 10,000.
	MaxAttempts int
	// Reps repeats the cell and reports the median-throughput run,
	// suppressing scheduler noise the way the paper repeated its tests
	// ("the tests were repeated a few times to eliminate any
	// disturbances"). Zero means 1.
	Reps int
	// RealTime runs the cell against the wall clock instead of the
	// default virtual timeline. Virtual cells are noise-free and
	// complete in milliseconds regardless of Duration; real-time cells
	// reproduce the prototype's wall-clock regime (use with
	// paper-scale latencies).
	RealTime bool
}

// DefaultConfig is the scaled-down version of the paper's setup: the
// same workload shape with a ~1 ms effective operation latency (the
// prototype's RPC cost was 17–20 ms) so a full sweep finishes in
// seconds while keeping the 50–60 txn/s single-client regime.
func DefaultConfig(level workload.Level) Config {
	return Config{
		MPL:           4,
		Duration:      time.Second,
		Warmup:        200 * time.Millisecond,
		Workload:      workload.DefaultParams(level),
		OILMin:        core.NoLimit,
		OILMax:        core.NoLimit,
		OELMin:        core.NoLimit,
		OELMax:        core.NoLimit,
		OpLatency:     time.Millisecond,
		NetLatency:    0,
		ServerThreads: 3,
		HistoryDepth:  20,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MPL <= 0 {
		return fmt.Errorf("experiment: MPL must be positive, got %d", c.MPL)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("experiment: Duration must be positive, got %v", c.Duration)
	}
	return c.Workload.Validate()
}

// Result is the outcome of one cell.
type Result struct {
	// Config echoes the cell's key parameters.
	MPL int
	// Elapsed is the actual measurement duration.
	Elapsed time.Duration
	// Commits, Aborts, TotalOps, InconsistentOps and OpsPerCommit are
	// the paper's metrics over the measurement window.
	Commits         int64
	Aborts          int64
	TotalOps        int64
	InconsistentOps int64
	WastedOps       int64
	Waits           int64
	OpsPerCommit    float64
	// Throughput is committed transactions per second.
	Throughput float64
	// ProperMisses counts inexact proper-value lookups (history depth
	// exceeded) during the whole run including warmup.
	ProperMisses int64
	// Label names the sweep cell this result came from (set by the
	// interleaved sweep driver).
	Label string
	// AbortBreakdown maps abort-reason names to counts over the window.
	AbortBreakdown map[string]int64
	// OpP50/95/99 are operation-latency percentiles (reads and writes
	// merged) over the measurement window, on the run's timeline —
	// virtual durations for vclock runs, wall durations for -realtime.
	// WaitP* and CommitP* cover the strict-ordering wait and commit
	// paths.
	OpP50, OpP95, OpP99             time.Duration
	WaitP50, WaitP95, WaitP99       time.Duration
	CommitP50, CommitP95, CommitP99 time.Duration
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("mpl=%d tput=%.1f txn/s commits=%d aborts=%d ops=%d incons=%d ops/txn=%.1f",
		r.MPL, r.Throughput, r.Commits, r.Aborts, r.TotalOps, r.InconsistentOps, r.OpsPerCommit)
}
