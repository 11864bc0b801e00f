package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/epsilondb/epsilondb/internal/client"
	"github.com/epsilondb/epsilondb/internal/esrcheck"
	"github.com/epsilondb/epsilondb/internal/metrics"
)

// The per-layer run has two parts, in this order:
//
//  1. a shortened untraced run against real esr-server processes whose
//     connections only count system calls and bytes — the source of
//     every counter read through a public surface (C);
//  2. the traced run: the same workload at the same paced rate against
//     servers built in-process with the timing decorators of trace.go
//     between the layers (T);
//
// The isolated probes (P, probes.go) follow.
//
// The traced run shares one process with the servers, so for it and the
// probes the benchmark gives up its pinning and runs on every CPU it is
// allowed; trace.overhead_pct states what tracing and co-location cost
// against part 1.

// traceCalls and traceCapture size the traced run's buffers: engine
// calls and socket calls recorded, and bytes kept per connection
// direction. They hold several times what the heaviest workload needs.
const (
	traceCalls   = 1 << 20
	traceCapture = 16 << 20
)

func perLayerRun(e *env, spec *workloadSpec, seed int64, seconds float64, outDir string) (*report, error) {
	rep := &report{metrics: map[string]float64{}, counts: map[string]int{}}
	m := rep.metrics
	total := time.Duration(seconds * float64(time.Second))
	warm := min(500*time.Millisecond, total/20)

	untracedP50, err := countersRun(e, spec, seed, warm, total*3/10, total/10, rep)
	if err != nil {
		return nil, fmt.Errorf("untraced companion run: %w", err)
	}
	if err := e.pl.unpin(); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(numConns())
	tracedP50, err := tracedRun(e, spec, seed, warm, total/4, rep, outDir)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if untracedP50 > 0 {
		m["trace.overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
	}
	return rep, nil
}

// allLatencyUS returns the sorted latencies, from due time, of every
// committed transaction of a phase.
func allLatencyUS(p *phaseResult) []float64 {
	q, _ := p.latencyUS(true, 1)
	u, _ := p.latencyUS(false, 1)
	all := append(q, u...)
	slices.Sort(all)
	return all
}

// dirGrowth polls a directory and sums how much its files grew: the
// bytes the write-ahead log wrote, snapshots included, whatever it
// later truncated.
type dirGrowth struct {
	dir   string
	sizes map[string]int64
	total int64
	stop  chan struct{}
	wg    sync.WaitGroup
}

func watchDir(dir string) *dirGrowth {
	d := &dirGrowth{dir: dir, sizes: map[string]int64{}, stop: make(chan struct{})}
	d.scan(true)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
				d.scan(false)
			}
		}
	}()
	return d
}

func (d *dirGrowth) scan(baseline bool) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return // no log directory: nothing grows
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue // removed between the listing and the stat
		}
		if grew := info.Size() - d.sizes[ent.Name()]; grew > 0 {
			if !baseline {
				d.total += grew
			}
			d.sizes[ent.Name()] = info.Size()
		}
	}
}

func (d *dirGrowth) finish() int64 {
	close(d.stop)
	d.wg.Wait()
	d.scan(false)
	return d.total
}

// countersRun is part 1. It returns the paced phase's median latency.
func countersRun(e *env, spec *workloadSpec, seed int64, warm, paced, sat time.Duration, rep *report) (float64, error) {
	m := rep.metrics
	var counters connCounters
	r, err := startRun(e, spec, seed, nil, counters.dial)
	if err != nil {
		return 0, err
	}
	defer r.close()
	m["replica.bootstrap_s"] = r.cl.bootstrap.Seconds()
	// Counters exclude set-up: differences are taken from here.
	reads0, writes0 := counters.reads.Load(), counters.writes.Load()
	in0, out0 := counters.bytesIn.Load(), counters.bytesOut.Load()
	grown := watchDir(r.cl.walDir())
	res, err := r.drive(e, warm, paced, sat, false)
	logBytes := grown.finish()
	if err != nil {
		return 0, err
	}
	reads, writes := counters.reads.Load()-reads0, counters.writes.Load()-writes0
	in, out := counters.bytesIn.Load()-in0, counters.bytesOut.Load()-out0

	pa, pf, _, _ := res.paced.tally()
	sa, sf, _, _ := res.sat.tally()
	rep.attempted, rep.failed = pa+sa, pf+sf
	// The warm-up's commits moved bytes too; the servers' own commit
	// counter covers all three phases and the audits.
	var snap metrics.Snapshot
	var lat metrics.LatencySet
	for i, st := range res.stats {
		if i == 0 {
			snap, lat = st.Snapshot, st.Latencies
			continue
		}
		snap = addSnapshots(snap, st.Snapshot)
	}
	commits := float64(max(snap.Commits, 1))
	m["client.reads_per_txn"] = float64(reads) / commits
	m["client.writes_per_txn"] = float64(writes) / commits
	m["client.bytes_in_per_txn"] = float64(in) / commits
	m["client.bytes_out_per_txn"] = float64(out) / commits

	late := durationsUS(res.paced.late)
	m["loadgen.late_p95_us"] = quantile(late, 0.95)
	if n := len(res.paced.late); n > 0 {
		m["loadgen.behind_ratio"] = float64(res.paced.behind) / float64(n)
	}
	all := allLatencyUS(res.paced)
	m["loadgen.txn_p99_us"] = quantile(all, 0.99)
	rep.counts["loadgen.txn_p99_us"] = len(all)
	m["loadgen.failed_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	begins := float64(max(snap.Begins, 1))
	ops := float64(max(snap.TotalOps(), 1))
	m["tso.abort_ratio"] = float64(snap.Aborts()) / begins
	m["tso.abort_late_ratio"] = float64(snap.AbortLateRead+snap.AbortLateWrite) / begins
	m["tso.abort_limit_ratio"] = float64(snap.AbortImportLimit+snap.AbortExportLimit) / begins
	m["tso.wasted_op_ratio"] = float64(snap.WastedOps) / ops
	m["tso.inconsistent_op_ratio"] = float64(snap.InconsistentOps()) / ops
	m["tso.waits_per_commit"] = float64(snap.Waits) / commits
	m["tso.wait_p50_us"] = float64(lat[metrics.LatWait].Quantile(0.5)) / 1e3

	if fsyncs := lat[metrics.LatFsync].Count; fsyncs > 0 {
		// Only the primary logs; its own commits are what its fsyncs cover.
		m["wal.commits_per_fsync"] = float64(res.stats[0].Snapshot.Commits) / float64(fsyncs)
		m["wal.fsync_p50_us"] = float64(lat[metrics.LatFsync].Quantile(0.5)) / 1e3
		m["wal.bytes_per_commit"] = float64(logBytes) / float64(max(res.stats[0].Snapshot.Commits, 1))
	}
	if res.recoverTook > 0 {
		m["wal.recover_s"] = res.recoverTook.Seconds()
		m["wal.recover_records_per_s"] = float64(res.recoverRecords) / res.recoverTook.Seconds()
	}
	return quantile(all, 0.5), nil
}

// addSnapshots sums two servers' counters: a − (0 − b), with the
// subtraction Snapshot already has.
func addSnapshots(a, b metrics.Snapshot) metrics.Snapshot {
	var zero metrics.Snapshot
	return a.Sub(zero.Sub(b))
}

// tracedRun is part 2. It returns the paced phase's median latency.
func tracedRun(e *env, spec *workloadSpec, seed int64, warm, paced time.Duration, rep *report, outDir string) (float64, error) {
	m := rep.metrics
	inproc := *e
	inproc.serverBin = ""
	tr := newTracer(traceCalls, traceCapture)
	r, err := startRun(&inproc, spec, seed, tr, tr.dial)
	if err != nil {
		return 0, err
	}
	defer r.close()

	var lags []float64
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if f := r.cl.in.follower; f != nil {
		// How far behind the primary's log the follower is, every
		// millisecond of the run.
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-tick.C:
					lags = append(lags, float64(f.Lag()))
				}
			}
		}()
	}
	res, err := r.drive(&inproc, warm, paced, 0, true)
	close(stopLag)
	lagWG.Wait()
	if err != nil {
		return 0, err
	}
	// Everything that recorded into the tracer has to have stopped before
	// the join reads it: close the connections and the servers first.
	in, routed := r.cl.in, client.RouterStats{}
	if r.router != nil {
		routed = r.router.Stats()
	}
	r.close()
	b, err := joinTrace(tr, r, res.paced)
	if err != nil {
		return 0, err
	}
	b.print(os.Stdout, spec.name)
	if outDir != "" {
		if err := b.writeSpans(filepath.Join(outDir, "trace-"+spec.name+".jsonl")); err != nil {
			return 0, err
		}
	}
	commits := float64(max(b.commits, 1))
	m["loadgen.queue_p50_us"] = quantile(b.queueUS, 0.5)
	m["client.self_us_per_txn"] = b.perCommitUS(layerClient)
	m["server.self_us_per_txn"] = b.perCommitUS(layerServer)
	m["tso.busy_us_per_txn"] = b.perCommitUS(layerTSO)
	m["trace.transit_us_per_txn"] = b.perCommitUS(layerTransit)
	m["trace.sum_error_pct"] = b.sumErrorPct()
	m["wal.ack_wait_p50_us"] = quantile(b.ackWaitsUS, 0.5)
	m["server.writes_per_txn"] = float64(b.serverWrites) / commits
	m["server.reads_per_txn"] = float64(b.serverReads) / commits
	if b.serverWrites > 0 {
		m["server.bytes_per_write"] = float64(b.serverBytesOut) / float64(b.serverWrites)
	}

	if in.reng != nil {
		slices.Sort(lags)
		m["replica.lag_lsn_p50"] = quantile(lags, 0.5)
		m["replica.lag_lsn_p95"] = quantile(lags, 0.95)
		if served := in.reng.ReadsServed(); served > 0 {
			m["replica.lag_charge_per_read"] = float64(in.reng.ImportedTotal()) / float64(served)
		}
		if offered := routed.ReplicaRuns + routed.Redirects; offered > 0 {
			m["replica.redirect_ratio"] = float64(routed.Redirects) / float64(offered)
		}
	}

	// The engines' own event trace of the whole traced run — primary and
	// follower as one history — must certify.
	events := in.rec.Events()
	t0 := time.Now()
	oracle := esrcheck.Check(events)
	if took := time.Since(t0).Seconds(); took > 0 {
		m["esrcheck.events_per_s"] = float64(len(events)) / took
	}
	// One refutation is the seed's own and does not fail the run: the
	// engine checks a late write's export limit against the queries still
	// open when it arrives (§5.2), while the oracle also counts readers
	// that had already committed. Under contention with finite OEL —
	// hot-mixed in its saturated moments — the two disagree. Everything
	// else the oracle can refute stays a hard gate.
	known := 0
	for _, v := range oracle.Violations {
		if v.Code == "object-export" {
			known++
			continue
		}
		return 0, fmt.Errorf("esrcheck refuted the traced history: %s: %s", v.Code, v.Msg)
	}
	fmt.Printf("esrcheck certified %d transactions of the traced run (%d relaxed reads, %d known object-export refutations)\n",
		oracle.Txns, oracle.RelaxedReads, known)
	if e.breakGate == "certify" {
		return 0, fmt.Errorf("esrcheck certified %d transactions, and the gate was told to expect a refutation", oracle.Txns)
	}
	return quantile(allLatencyUS(res.paced), 0.5), nil
}
