// Command benchmark is epsilondb's benchmark: four workloads driven
// against real esr-server processes over loopback TCP, end-to-end
// metrics measured with tracing off, and — separately — a traced
// in-process run plus isolated probes that say which layer the time
// went to. See README.md.
//
//	bash benchmark/run.sh --workload wire-transfer --seed 1 --seconds 20 --trace 0
//
// prints every metric by name and, as its last line of standard output,
// one JSON object with the keys correct, attempted, failed and metrics.
// Without --workload it runs all four workloads both ways.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: wire-transfer, hot-mixed, durable-transfer or replica-read; empty runs all four, untraced then traced")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs (and of the server's population)")
		seconds      = flag.Float64("seconds", 20, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and the probes")
		serverBin    = flag.String("server-bin", "", "esr-server binary (run.sh builds and passes it)")
		workDir      = flag.String("work-dir", ".bench_build", "directory for scratch files")
		buildNS      = flag.Int64("build-ns", 0, "how long run.sh's go build took, reported as loadgen.build_s")
		outDir       = flag.String("out", "", "directory for trace-<workload>.jsonl and, appended to on every run, results.json")
		ladderMode   = flag.Bool("ladder", false, "diagnostic: a rate ladder to saturation on one workload, as CSV")
		breakGate    = flag.String("break", "", "corrupt one correctness gate's expectation (model, conservation, recovery, replica, routing, certify, crash) to show that it fails the run")
	)
	flag.Parse()
	if *serverBin == "" {
		return usage("-server-bin is required: end-to-end numbers come from real esr-server processes (use benchmark/run.sh)")
	}
	pl, err := place()
	if err != nil {
		return usage("cpu placement: %v", err)
	}
	e := &env{serverBin: *serverBin, workDir: *workDir, breakGate: *breakGate, pl: pl}
	defer os.RemoveAll(runDir(e))
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return usage("%v", err)
		}
	}

	if *workloadName == "" {
		if *ladderMode {
			return usage("-ladder needs -workload")
		}
		failed := false
		for i := range workloads {
			for _, tr := range []int{0, 1} {
				fmt.Printf("\n=== %s, --trace %d\n", workloads[i].name, tr)
				if !one(e, &workloads[i], *seed, *seconds, tr, *buildNS, *outDir) {
					failed = true
				}
			}
		}
		if failed {
			return 1
		}
		return 0
	}
	spec := findWorkload(*workloadName)
	if spec == nil {
		return usage("unknown workload %q", *workloadName)
	}
	if *ladderMode {
		e.pin()
		if err := ladder(e, spec, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: ladder: %v\n", err)
			return 1
		}
		return 0
	}
	if !one(e, spec, *seed, *seconds, *trace, *buildNS, *outDir) {
		return 1
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 2
}

// pin puts the generator on its CPU with one scheduler thread, the
// state every run against real server processes starts from.
func (e *env) pin() {
	if err := e.pl.pin(); err != nil {
		// Unpinned numbers are noisier, not wrong.
		fmt.Fprintf(os.Stderr, "benchmark: cannot pin to cpu %d: %v\n", e.pl.generatorCPU, err)
	}
	runtime.GOMAXPROCS(numConns())
	if e.pl.pinned {
		runtime.GOMAXPROCS(1)
	}
}

// one runs one workload one way, prints its metrics and result line and
// reports whether it was correct.
func one(e *env, spec *workloadSpec, seed int64, seconds float64, trace int, buildNS int64, outDir string) bool {
	e.pin()
	defs := endToEnd
	var rep *report
	var err error
	if trace == 0 {
		rep, err = endToEndRun(e, spec, seed, seconds, defaultRounds)
	} else {
		defs = perLayer
		if rep, err = perLayerRun(e, spec, seed, seconds, outDir); err == nil {
			rep.metrics["loadgen.build_s"] = float64(buildNS) / 1e9
			err = runProbes(rep.metrics, seed, e.breakGate)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %v\n", spec.name, err)
		emit(defs, &report{metrics: map[string]float64{}, attempted: 1, failed: 1}, false)
		return false
	}
	emit(defs, rep, true)
	if outDir != "" {
		if err := appendResult(filepath.Join(outDir, "results.json"), spec.name, seed, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return false
		}
	}
	return true
}

// emit prints every metric by name with its unit, then the result line.
func emit(defs []metricDef, rep *report, correct bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := rep.metrics[d.name]
		out.Metrics[d.name] = value{v, d.unit}
		if n, ok := rep.counts[d.name]; ok {
			fmt.Printf("%-32s %14.4f %-6s (n=%d)\n", d.name, v, d.unit, n)
		} else {
			fmt.Printf("%-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if rep.invalid != "" {
		fmt.Printf("INVALID: %s\n", rep.invalid)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", out.Attempted, out.Failed, correct)
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of floats and strings
	}
	fmt.Println(string(line))
}

// resultsFile is what accumulates in <out>/results.json for
// benchmark/compare: one entry per run.
type resultsFile struct {
	Runs []resultRun `json:"runs"`
}

type resultRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendResult(path, workload string, seed int64, rep *report) error {
	var rf resultsFile
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	rf.Runs = append(rf.Runs, resultRun{Workload: workload, Seed: seed, Metrics: rep.metrics})
	raw, err = json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
