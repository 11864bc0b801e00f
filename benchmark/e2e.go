package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/epsilondb/epsilondb/internal/client"
)

// defaultRounds is how many times a run sets the system up from
// nothing and drives it; every metric, setup_s included, is the median
// of the rounds.
const defaultRounds = 5

// env is what every mode of the benchmark needs to run a workload.
type env struct {
	serverBin string // esr-server; empty builds the servers in-process
	workDir   string
	pl        placement
	breakGate string
}

// phaseLengths splits a run's measuring time: a short discarded warm-up
// first, then 60 % paced and 40 % saturated.
func phaseLengths(seconds float64) (warm, paced, sat time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return min(time.Second, total/10), total * 6 / 10, total * 4 / 10
}

// report is one run's outcome.
type report struct {
	metrics   map[string]float64
	counts    map[string]int // latency sample counts, printed beside the metric
	attempted int
	failed    int
	// invalid says the generator itself ran too late for the latencies
	// to be the system's.
	invalid string
}

// loadResult is what driving one started run through its phases gives.
type loadResult struct {
	paced, sat  *phaseResult // sat is nil when the saturation phase was skipped
	cpuPerTxnUS float64
	rssMB       float64
	// stats are the servers' own counters just before verification,
	// primary first.
	stats          []client.ServerStats
	recoverTook    time.Duration
	recoverRecords int
}

// drive runs warm-up, the paced phase and (when sat > 0) the saturation
// phase against a started run, then quiesces and verifies.
func (r *run) drive(e *env, warm, paced, sat time.Duration, keepProg bool) (*loadResult, error) {
	if err := r.newExecutors(keepProg); err != nil {
		return nil, err
	}
	if _, err := r.phase(warm, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	out := &loadResult{}
	// In-process servers have no processes to account: both read zero.
	cpu0, err := r.cl.cpuTime()
	if err != nil {
		return nil, err
	}
	if out.paced, err = r.phase(paced, false); err != nil {
		return nil, fmt.Errorf("paced phase: %w", err)
	}
	cpu1, err := r.cl.cpuTime()
	if err != nil {
		return nil, err
	}
	if _, _, commits, _ := out.paced.tally(); commits > 0 {
		out.cpuPerTxnUS = float64(cpu1-cpu0) / 1e3 / float64(commits)
	}
	if sat > 0 {
		if out.sat, err = r.phase(sat, true); err != nil {
			return nil, fmt.Errorf("saturation phase: %w", err)
		}
	}
	if out.rssMB, err = r.cl.peakRSSMB(); err != nil {
		return nil, err
	}
	for _, c := range r.conns[:len(r.cl.addrs)] {
		st, err := c.StatsFull()
		if err != nil {
			return nil, err
		}
		out.stats = append(out.stats, st)
	}
	if out.recoverTook, out.recoverRecords, err = r.verify(e.breakGate); err != nil {
		return nil, err
	}
	return out, nil
}

// endToEndRun measures the end-to-end metrics of one workload against
// real esr-server processes with no tracing and no wrappers. The run is
// split into rounds, each on a system set up from nothing: a metric is
// the median of its rounds, so the luck of one process — how its heap
// grew, what else the machine was doing — moves one round, not the
// result.
func endToEndRun(e *env, spec *workloadSpec, seed int64, seconds float64, nRounds int) (*report, error) {
	rep := &report{metrics: map[string]float64{}, counts: map[string]int{}}
	rounds := map[string][]float64{}
	var late []time.Duration
	for i := 0; i < nRounds; i++ {
		t0 := time.Now()
		r, err := startRun(e, spec, seed+int64(i)*7919, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rounds["setup_s"] = append(rounds["setup_s"], time.Since(t0).Seconds())
		warm, paced, sat := phaseLengths(seconds / float64(nRounds))
		res, err := r.drive(e, warm, paced, sat, false)
		r.close()
		if err != nil {
			return nil, err
		}
		for _, kind := range []struct {
			name  string
			query bool
		}{{"query", true}, {"update", false}} {
			all, per := res.paced.latencyUS(kind.query, pacedWindows)
			rounds[kind.name+"_p50_us"] = append(rounds[kind.name+"_p50_us"], windowedQuantile(all, per, 0.50))
			rounds[kind.name+"_p95_us"] = append(rounds[kind.name+"_p95_us"], windowedQuantile(all, per, 0.95))
			rep.counts[kind.name+"_p50_us"] += len(all)
			rep.counts[kind.name+"_p95_us"] += len(all)
		}
		rounds["commit_txn_per_s"] = append(rounds["commit_txn_per_s"], res.sat.commitRate(satWindows))
		pa, pf, _, _ := res.paced.tally()
		sa, sf, commits, attempts := res.sat.tally()
		rep.attempted += pa + sa
		rep.failed += pf + sf
		if commits > 0 {
			rounds["attempts_per_commit"] = append(rounds["attempts_per_commit"], float64(attempts)/float64(commits))
		}
		rounds["server_cpu_us_per_txn"] = append(rounds["server_cpu_us_per_txn"], res.cpuPerTxnUS)
		rounds["server_rss_mb"] = append(rounds["server_rss_mb"], res.rssMB)
		late = append(late, res.paced.late...)
	}
	for name, vs := range rounds {
		rep.metrics[name] = median(vs)
	}
	rep.invalid = lateCheck(late, rep.metrics)
	return rep, nil
}

// lateCheck reports when the generator's own lateness is more than a
// tenth of the smallest median latency it measured.
func lateCheck(lates []time.Duration, m map[string]float64) string {
	late := quantile(durationsUS(lates), 0.95)
	floor := min(m["query_p50_us"], m["update_p50_us"])
	if late > floor/10 {
		return fmt.Sprintf("generator lateness p95 %.1fµs exceeds a tenth of the smallest median latency %.1fµs", late, floor)
	}
	return ""
}

// runDir is this process's scratch directory under the work directory.
func runDir(e *env) string {
	return filepath.Join(e.workDir, fmt.Sprintf("run-%d", os.Getpid()))
}
