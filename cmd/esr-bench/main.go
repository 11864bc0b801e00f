// Command esr-bench reruns the paper's performance evaluation and prints
// the series behind every figure of §8 as aligned tables (and optionally
// CSV files).
//
// Usage:
//
//	esr-bench -fig all                 # every figure, virtual timeline
//	esr-bench -fig 7 -duration 2s      # throughput vs MPL, longer cells
//	esr-bench -fig 12 -csv out/        # OIL sweep, also write CSV
//	esr-bench -paper-scale             # the prototype's wall-clock RPC regime
//	esr-bench -soak                    # banking soak through a faulty network
//
// By default cells run on a deterministic virtual timeline (noise-free
// and fast regardless of -duration); -paper-scale switches to the wall
// clock with the prototype's 11 ms network + 6 ms service per operation,
// reproducing the absolute tens-of-transactions-per-second regime.
//
// The figure sweeps are closed-loop measurements of a model (each
// simulated client waits for its transaction before issuing the next,
// and server capacity is a modelled per-operation service time) and are
// labeled as such. Open-loop throughput and latency of the real server
// over TCP are measured by the benchmark module (benchmark/README.md).
//
// -soak runs the robustness soak instead of a figure: a zero-sum banking
// workload over real TCP connections wrapped with the -fault-* schedule
// (see internal/faultnet), ending in a graceful server shutdown and an
// invariant check (no leaked transactions, conserved total balance).
// With no -fault-* flags set it uses the default mixed-fault schedule;
// -soak-pipeline drives it over the pipelined batched protocol.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/experiment"
	"github.com/epsilondb/epsilondb/internal/faultnet"
	"github.com/epsilondb/epsilondb/internal/soak"
	"github.com/epsilondb/epsilondb/internal/workload"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to reproduce: 7, 8, 9, 10, 11, 12, 13, table, hist, hier, or all")
		duration   = flag.Duration("duration", time.Second, "measurement window per cell")
		warmup     = flag.Duration("warmup", 200*time.Millisecond, "warmup before each measurement")
		opLatency  = flag.Duration("oplatency", time.Millisecond, "simulated per-operation server service time")
		netLatency = flag.Duration("netlatency", 0, "simulated per-operation network/client time (outside server capacity)")
		realTime   = flag.Bool("realtime", false, "run on the wall clock instead of the virtual timeline")
		paperScale = flag.Bool("paper-scale", false, "reproduce the prototype's RPC regime: 6 ms service + 11 ms network per op, wall clock")
		mplMax     = flag.Int("mpl-max", 10, "largest multiprogramming level in the MPL sweeps")
		seed       = flag.Int64("seed", 1, "workload and database seed")
		reps       = flag.Int("reps", 3, "repetitions per cell (median reported)")
		csvDir     = flag.String("csv", "", "directory to also write per-figure CSV files into")
		quiet      = flag.Bool("quiet", false, "suppress per-cell progress lines")
		seq        = flag.Bool("seq", false, "run sweep cells sequentially (disable the parallel worker pool)")
		workers    = flag.Int("workers", 0, "sweep cells to run concurrently; 0 means GOMAXPROCS")

		soakMode    = flag.Bool("soak", false, "run the fault-injection banking soak instead of a figure")
		soakClients = flag.Int("soak-clients", 0, "soak: concurrent clients (0 means default)")
		soakTxns    = flag.Int("soak-txns", 0, "soak: committed programs per client (0 means default)")
		soakPipe    = flag.Int("soak-pipeline", 0, "soak: pipeline depth per connection (<=1 means the synchronous protocol)")
		soakBatch   = flag.Int("soak-batch", 0, "soak: ops per Batch frame when pipelined (<=0 means whole program per frame)")
	)
	faultCfg := faultnet.RegisterFlags(flag.CommandLine, "fault")
	flag.Parse()

	if *soakMode {
		if err := runSoak(*faultCfg, *soakClients, *soakTxns, *soakPipe, *soakBatch, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "esr-bench:", err)
			os.Exit(1)
		}
		return
	}

	switch {
	case *seq:
		experiment.SetSweepParallelism(1)
	case *realTime || *paperScale:
		// Wall-clock cells contend for real CPU time; running them
		// concurrently would perturb the latencies being measured.
		// Honour an explicit -workers, otherwise force sequential.
		if *workers > 1 {
			experiment.SetSweepParallelism(*workers)
		} else {
			experiment.SetSweepParallelism(1)
		}
	default:
		experiment.SetSweepParallelism(*workers)
	}

	if *paperScale {
		*opLatency = 6 * time.Millisecond
		*netLatency = 11 * time.Millisecond
		*realTime = true
	}
	base := experiment.DefaultConfig(workload.LevelHigh)
	base.Duration = *duration
	base.Warmup = *warmup
	base.OpLatency = *opLatency
	base.NetLatency = *netLatency
	base.RealTime = *realTime
	base.Seed = *seed
	base.Reps = *reps

	progress := func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	if *quiet {
		progress = nil
	}

	r := &runner{base: base, mplMax: *mplMax, progress: progress, csvDir: *csvDir}
	var err error
	switch strings.ToLower(*fig) {
	case "table":
		err = r.table()
	case "7", "8", "9", "10":
		err = r.mplSweep(*fig)
	case "11":
		err = r.tilSweep()
	case "12", "13":
		err = r.oilSweep(*fig)
	case "hist":
		err = r.historyAblation()
	case "hier":
		err = r.hierarchyAblation()
	case "all":
		err = r.all()
	default:
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "esr-bench:", err)
		os.Exit(1)
	}
}

// runSoak drives the shared soak harness (internal/soak) from the
// command line: the same schedule a test asserts on can be rerun — and
// scaled up — against a binary.
func runSoak(faults faultnet.Config, clients, txns, pipeline, batch int, seed int64) error {
	if err := faults.Validate(); err != nil {
		return err
	}
	cfg := soak.DefaultConfig()
	cfg.Seed = seed
	if faults.Enabled() {
		cfg.Faults = faults
	}
	if clients > 0 {
		cfg.Clients = clients
	}
	if txns > 0 {
		cfg.TxnsPerClient = txns
	}
	cfg.Pipeline = pipeline
	cfg.BatchOps = batch
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
	}
	report, err := soak.Run(cfg)
	if report != nil {
		fmt.Println(report.String())
	}
	if err != nil {
		return err
	}
	return report.Err()
}

type runner struct {
	base     experiment.Config
	mplMax   int
	progress func(string)
	csvDir   string
}

// emit prints a figure and optionally writes its CSV.
func (r *runner) emit(f experiment.Figure) error {
	if err := experiment.WriteTable(os.Stdout, f); err != nil {
		return err
	}
	fmt.Println()
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.csvDir, f.ID+".csv")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	return experiment.WriteCSV(file, f)
}

// emitCells prints the per-cell JSON records accompanying a figure (one
// object per line: counters, abort mix, p50/p95/p99 latencies) and, with
// -csv, also writes them to <dir>/<figID>-cells.jsonl.
func (r *runner) emitCells(figID string, results []experiment.Result) error {
	if len(results) == 0 {
		return nil
	}
	if err := experiment.WriteCellsJSON(os.Stdout, figID, results); err != nil {
		return err
	}
	fmt.Println()
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	file, err := os.Create(filepath.Join(r.csvDir, figID+"-cells.jsonl"))
	if err != nil {
		return err
	}
	defer file.Close()
	return experiment.WriteCellsJSON(file, figID, results)
}

func (r *runner) mpls() []int {
	out := make([]int, 0, r.mplMax)
	for i := 1; i <= r.mplMax; i++ {
		out = append(out, i)
	}
	return out
}

func (r *runner) table() error {
	return r.emit(experiment.BoundLevelsTable())
}

// mplSweep runs the first test set and prints the requested figure(s).
func (r *runner) mplSweep(which string) error {
	s, err := experiment.RunMPLSweep(r.base, r.mpls(), workload.Levels(), r.progress)
	if err != nil {
		return err
	}
	return r.emitMPL(s, which)
}

func (r *runner) emitMPL(s *experiment.MPLSweep, which string) error {
	figs := map[string]experiment.Figure{
		"7": s.Figure7(), "8": s.Figure8(), "9": s.Figure9(), "10": s.Figure10(),
	}
	if which != "all" {
		if err := r.emit(figs[which]); err != nil {
			return err
		}
		return r.emitCells("fig"+which, s.AllResults())
	}
	for _, id := range []string{"7", "8", "9", "10"} {
		if err := r.emit(figs[id]); err != nil {
			return err
		}
	}
	for i, level := range s.Levels {
		fmt.Printf("thrashing point (%s): MPL %d\n", level.Name, s.ThrashingPoint(i))
	}
	fmt.Println()
	return r.emitCells("fig7-10", s.AllResults())
}

func (r *runner) tilSweep() error {
	f, results, err := experiment.RunTILSweep(r.base, 4, tilAxis(), telLevels(), r.progress)
	if err != nil {
		return err
	}
	if err := r.emit(f); err != nil {
		return err
	}
	return r.emitCells(f.ID, results)
}

func (r *runner) oilSweep(which string) error {
	s, err := experiment.RunOILSweep(r.base, 4, oilAxis(), tilLevels(), r.progress)
	if err != nil {
		return err
	}
	if which == "12" || which == "all" {
		if err := r.emit(s.Figure12()); err != nil {
			return err
		}
	}
	if which == "13" || which == "all" {
		if err := r.emit(s.Figure13()); err != nil {
			return err
		}
	}
	return r.emitCells("fig12-13", s.AllResults())
}

func (r *runner) all() error {
	if err := r.table(); err != nil {
		return err
	}
	s, err := experiment.RunMPLSweep(r.base, r.mpls(), workload.Levels(), r.progress)
	if err != nil {
		return err
	}
	if err := r.emitMPL(s, "all"); err != nil {
		return err
	}
	if err := r.tilSweep(); err != nil {
		return err
	}
	if err := r.oilSweep("all"); err != nil {
		return err
	}
	if err := r.historyAblation(); err != nil {
		return err
	}
	return r.hierarchyAblation()
}

// tilAxis is the Figure 11 x axis: TIL from SR to beyond the paper's
// high level.
func tilAxis() []core.Distance {
	return []core.Distance{0, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000}
}

// telLevels holds TEL at the paper's three levels for Figure 11.
func telLevels() []core.Distance { return []core.Distance{1_000, 5_000, 10_000} }

// tilLevels holds TIL at the paper's three levels for Figures 12–13.
func tilLevels() []core.Distance { return []core.Distance{10_000, 50_000, 100_000} }

// oilAxis is the Figure 12/13 x axis: OIL in units of w.
func oilAxis() []float64 { return []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64} }
