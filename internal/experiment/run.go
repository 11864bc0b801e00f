package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/vclock"
	"github.com/epsilondb/epsilondb/internal/workload"
)

// Run executes one experiment cell: populate a database, start MPL
// closed-loop clients, measure the counters over the configured window.
// With Reps > 1 the cell runs repeatedly and the median-throughput run
// is reported. Sweeps should prefer runCellsInterleaved, which
// decorrelates periodic machine noise from cell identity.
func Run(cfg Config) (Result, error) {
	reps := cfg.Reps
	if reps <= 1 {
		return runOnce(cfg)
	}
	results := make([]Result, 0, reps)
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1_000_003
		r, err := runOnce(c)
		if err != nil {
			return Result{}, err
		}
		results = append(results, r)
	}
	return medianResult(results), nil
}

// medianResult picks the run with the median throughput.
func medianResult(results []Result) Result {
	sort.Slice(results, func(i, j int) bool { return results[i].Throughput < results[j].Throughput })
	return results[len(results)/2]
}

// cell is one labelled sweep configuration.
type cell struct {
	label string
	cfg   Config
}

// runCell executes a single repetition of a cell. It is a variable so
// orchestration tests can stub the (expensive, internally concurrent)
// cell body and observe scheduling behaviour in isolation.
var runCell = runOnce

// sweepPar holds the sweep worker count; see SetSweepParallelism.
var sweepPar struct {
	mu sync.Mutex
	n  int
}

// SetSweepParallelism sets how many sweep cells run concurrently and
// returns the previous setting. n <= 0 restores the default, GOMAXPROCS;
// n == 1 forces the sequential path (the esr-bench -seq escape hatch).
// Cells are self-contained — each builds its own store, engine, virtual
// timeline and RNGs from the cell seed — so concurrent cells share no
// state and per-cell results are identical to a sequential run.
func SetSweepParallelism(n int) int {
	sweepPar.mu.Lock()
	defer sweepPar.mu.Unlock()
	prev := sweepPar.n
	if n < 0 {
		n = 0
	}
	sweepPar.n = n
	return prev
}

// sweepParallelism reports the effective worker count.
func sweepParallelism() int {
	sweepPar.mu.Lock()
	defer sweepPar.mu.Unlock()
	if sweepPar.n > 0 {
		return sweepPar.n
	}
	return runtime.GOMAXPROCS(0)
}

// runCellsInterleaved executes every cell once per repetition pass —
// visiting all cells before repeating any — and reports the per-cell
// median-throughput result. Interleaving matters on shared machines:
// periodic background load would otherwise always hit the same cells,
// biasing whole regions of a figure. The repetition count is taken from
// the first cell's Reps (minimum 1).
//
// Up to SetSweepParallelism cells run concurrently. Parallelism does not
// change the output: each (cell, rep) derives its seed from the cell
// config and rep index alone, results land in a preassigned slot so the
// median sees them in rep order, progress lines are buffered and emitted
// in the sequential order, and on failure the error reported is the one
// the sequential schedule would have hit first.
func runCellsInterleaved(cells []cell, progress func(string)) ([]Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	reps := cells[0].cfg.Reps
	if reps < 1 {
		reps = 1
	}
	all := make([][]Result, len(cells))
	for i := range all {
		all[i] = make([]Result, reps)
	}
	// Job j is rep j/len(cells) of cell j%len(cells): rep-major, the
	// sequential interleaving order.
	total := len(cells) * reps
	run := func(j int) (Result, error) {
		rep, i := j/len(cells), j%len(cells)
		cfg := cells[i].cfg
		cfg.Reps = 1
		cfg.Seed += int64(rep) * 1_000_003
		r, err := runCell(cfg)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", cells[i].label, err)
		}
		r.Label = cells[i].label
		return r, nil
	}
	line := func(j int, r Result) string {
		rep, i := j/len(cells), j%len(cells)
		return fmt.Sprintf("[rep %d/%d] %s %s", rep+1, reps, cells[i].label, r)
	}

	workers := sweepParallelism()
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		for j := 0; j < total; j++ {
			r, err := run(j)
			if err != nil {
				return nil, err
			}
			all[j%len(cells)][j/len(cells)] = r
			if progress != nil {
				progress(line(j, r))
			}
		}
	} else {
		var (
			mu       sync.Mutex
			done     = make([]bool, total)
			lines    = make([]string, total)
			emitted  int
			firstErr error
			errJob   = total
		)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					r, err := run(j)
					mu.Lock()
					if err != nil {
						if j < errJob {
							firstErr, errJob = err, j
						}
					} else {
						all[j%len(cells)][j/len(cells)] = r
						lines[j] = line(j, r)
						done[j] = true
						for progress != nil && emitted < total && done[emitted] {
							progress(lines[emitted])
							emitted++
						}
					}
					mu.Unlock()
				}
			}()
		}
		for j := 0; j < total; j++ {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}

	out := make([]Result, len(cells))
	for i := range cells {
		out[i] = medianResult(all[i])
	}
	return out, nil
}

// runOnce executes a single repetition of a cell.
func runOnce(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 10_000
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	store := storage.NewStore(storage.Config{HistoryDepth: cfg.HistoryDepth})
	if err := store.Populate(cfg.Workload.NumObjects, 1000, 9999,
		cfg.OILMin, cfg.OILMax, cfg.OELMin, cfg.OELMax, rng); err != nil {
		return Result{}, err
	}
	// The timeline: virtual by default (noise-free, runs in milliseconds
	// of CPU regardless of the configured Duration), wall clock when
	// RealTime is set.
	var timeline vclock.Timeline
	if cfg.RealTime {
		timeline = vclock.NewReal()
	} else {
		timeline = vclock.NewVirtual()
	}

	col := &metrics.Collector{}
	engine := tso.NewEngine(store, tso.Options{Collector: col, Parker: timeline, Now: timeline.Now})
	// latCol records client-perceived operation latencies — network,
	// server queueing, service time, and engine waits together, measured
	// on the run's timeline. It is separate from col because the TO
	// engine also records its internal (engine-only) latencies there, and
	// the two views must not blend in one histogram.
	latCol := &metrics.Collector{}

	// One logical clock shared by all sites: timestamp order equals
	// Begin order, the deterministic stand-in for the prototype's
	// virtually synchronized workstation clocks.
	clock := &tsgen.LogicalClock{}

	// The server's shared capacity: every operation occupies one slot
	// for OpLatency. Wasted operations from aborted attempts consume
	// the same slots as useful ones, coupling the clients the way the
	// prototype's single server did.
	threads := cfg.ServerThreads
	if threads <= 0 {
		threads = 3
	}
	slots := vclock.NewSemaphore(threads)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Register the coordinator and every client before any goroutine
	// starts, so the virtual clock cannot advance prematurely.
	timeline.Enter()
	clients := make([]func(), 0, cfg.MPL)
	for site := 0; site < cfg.MPL; site++ {
		gen := tsgen.NewGenerator(site, clock)
		wl, err := workload.NewGenerator(cfg.Workload, cfg.Seed+int64(site)*9973+7)
		if err != nil {
			timeline.Exit()
			close(stop)
			return Result{}, err
		}
		timeline.Enter()
		jitter := rand.New(rand.NewSource(cfg.Seed ^ int64(site)*7919 ^ 0x5eed))
		clients = append(clients, func() {
			defer timeline.Exit()
			runClient(engine, timeline, gen, wl, cfg.OpLatency, cfg.NetLatency, jitter, slots, maxAttempts, latCol, stop)
		})
	}
	for _, c := range clients {
		wg.Add(1)
		go func(run func()) {
			defer wg.Done()
			run()
		}(c)
	}

	timeline.Sleep(cfg.Warmup)
	before := col.Snapshot()
	engLatBefore := col.LatencySnapshot()
	cliLatBefore := latCol.LatencySnapshot()
	start := timeline.Now()
	timeline.Sleep(cfg.Duration)
	after := col.Snapshot()
	engLatAfter := col.LatencySnapshot()
	cliLatAfter := latCol.LatencySnapshot()
	elapsed := timeline.Now() - start
	close(stop)
	timeline.Exit()
	wg.Wait()

	delta := after.Sub(before)
	engLat := engLatAfter.Sub(engLatBefore)
	cliLat := cliLatAfter.Sub(cliLatBefore)
	ops := cliLat.Ops()
	res := Result{
		MPL:             cfg.MPL,
		Elapsed:         elapsed,
		Commits:         delta.Commits,
		Aborts:          delta.Aborts(),
		TotalOps:        delta.TotalOps(),
		InconsistentOps: delta.InconsistentOps(),
		WastedOps:       delta.WastedOps,
		Waits:           delta.Waits,
		OpsPerCommit:    delta.OpsPerCommit(),
		Throughput:      float64(delta.Commits) / elapsed.Seconds(),
		ProperMisses:    store.ProperMisses(),
		AbortBreakdown:  delta.AbortBreakdown(),
		OpP50:           time.Duration(ops.Quantile(0.50)),
		OpP95:           time.Duration(ops.Quantile(0.95)),
		OpP99:           time.Duration(ops.Quantile(0.99)),
		WaitP50:         time.Duration(engLat[metrics.LatWait].Quantile(0.50)),
		WaitP95:         time.Duration(engLat[metrics.LatWait].Quantile(0.95)),
		WaitP99:         time.Duration(engLat[metrics.LatWait].Quantile(0.99)),
		CommitP50:       time.Duration(cliLat[metrics.LatCommit].Quantile(0.50)),
		CommitP95:       time.Duration(cliLat[metrics.LatCommit].Quantile(0.95)),
		CommitP99:       time.Duration(cliLat[metrics.LatCommit].Quantile(0.99)),
	}
	return res, nil
}

// runClient is one closed-loop client: generate a transaction, submit it
// operation by operation with the simulated per-operation latency, and
// on abort resubmit with a fresh timestamp until it commits (§6).
func runClient(e *tso.Engine, timeline vclock.Timeline, gen *tsgen.Generator, wl *workload.Generator, opLatency, netLatency time.Duration, jitter *rand.Rand, slots *vclock.Semaphore, maxAttempts int, latCol *metrics.Collector, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		p := wl.Next()
		for attempt := 0; attempt < maxAttempts; attempt++ {
			ok, fatal := runAttempt(e, timeline, gen, p, opLatency, netLatency, jitter, slots, latCol, stop)
			if ok || fatal {
				break
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}
}

// runAttempt executes one attempt; ok reports commit, fatal reports a
// non-retryable condition (engine rejected Begin, or shutdown). Each
// successful operation's client-perceived latency — network time, server
// queueing, service time, and any engine wait — is recorded into latCol
// on the run's timeline.
func runAttempt(e *tso.Engine, timeline vclock.Timeline, gen *tsgen.Generator, p *core.Program, opLatency, netLatency time.Duration, jitter *rand.Rand, slots *vclock.Semaphore, latCol *metrics.Collector, stop <-chan struct{}) (ok, fatal bool) {
	txn, err := e.Begin(p.Kind, gen.Next(), p.Bounds)
	if err != nil {
		return false, true
	}
	for _, op := range p.Ops {
		select {
		case <-stop:
			_ = e.Abort(txn)
			return false, true
		default:
		}
		opStart := timeline.Now()
		// The network/client component of the RPC elapses outside the
		// server, then the service component occupies one server slot —
		// queueing there is the saturation behaviour of the shared
		// server. Both components carry ±50% uniform jitter: constant
		// times phase-lock the closed-loop clients into convoys that no
		// real system exhibits.
		if netLatency > 0 {
			timeline.Sleep(netLatency/2 + time.Duration(jitter.Int63n(int64(netLatency))))
		}
		if opLatency > 0 {
			d := opLatency/2 + time.Duration(jitter.Int63n(int64(opLatency)))
			slots.Acquire(timeline)
			timeline.Sleep(d)
			slots.Release(timeline)
		}
		switch op.Kind {
		case core.OpRead:
			if _, err := e.Read(txn, op.Object); err != nil {
				return false, false
			}
			latCol.ObserveLatency(metrics.LatRead, timeline.Now()-opStart)
		case core.OpWrite:
			if _, err := e.WriteDelta(txn, op.Object, op.Delta); err != nil {
				return false, false
			}
			latCol.ObserveLatency(metrics.LatWrite, timeline.Now()-opStart)
		}
	}
	commitStart := timeline.Now()
	if err := e.Commit(txn); err != nil {
		return false, false
	}
	latCol.ObserveLatency(metrics.LatCommit, timeline.Now()-commitStart)
	return true, false
}
