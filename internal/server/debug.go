package server

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"

	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/tso"
)

// debugEngines is the set of engines exposed through the process-wide
// expvar namespace. expvar.Publish panics on duplicate names, so the
// variable is published once and reads whatever engines are currently
// registered (tests and embedded deployments may build several).
var (
	debugMu      sync.Mutex
	debugEngines []*tso.Engine
	debugOnce    sync.Once
)

func registerDebugEngine(e *tso.Engine) {
	debugMu.Lock()
	debugEngines = append(debugEngines, e)
	debugMu.Unlock()
	debugOnce.Do(func() {
		expvar.Publish("esr", expvar.Func(func() any {
			debugMu.Lock()
			engines := append([]*tso.Engine(nil), debugEngines...)
			debugMu.Unlock()
			if len(engines) == 1 {
				return debugStats(engines[0])
			}
			out := make([]any, len(engines))
			for i, e := range engines {
				out[i] = debugStats(e)
			}
			return out
		}))
	})
}

// latencySummary is the per-path digest served by /debug/esr.
type latencySummary struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
}

func summarize(h metrics.HistogramSnapshot) latencySummary {
	return latencySummary{
		Count:  h.Count,
		MeanNs: h.Mean(),
		P50Ns:  h.Quantile(0.50),
		P95Ns:  h.Quantile(0.95),
		P99Ns:  h.Quantile(0.99),
	}
}

// debugStats assembles the live observability view of one engine.
func debugStats(e *tso.Engine) map[string]any {
	s := e.MetricsSnapshot()
	lat := e.LatencySnapshot()
	latencies := make(map[string]latencySummary, len(lat))
	for k := range lat {
		latencies[metrics.LatencyKind(k).String()] = summarize(lat[k])
	}
	return map[string]any{
		"counters": map[string]int64{
			"begins":               s.Begins,
			"commits":              s.Commits,
			"aborts":               s.Aborts(),
			"reads_executed":       s.ReadsExecuted,
			"writes_executed":      s.WritesExecuted,
			"inconsistent_reads":   s.InconsistentReads,
			"inconsistent_writes":  s.InconsistentWrites,
			"wasted_ops":           s.WastedOps,
			"waits":                s.Waits,
			"dirty_source_aborted": s.DirtySourceAborted,
			"read_only_commits":    s.ReadOnlyCommits,
			"read_only_waits":      s.ReadOnlyWaits,
			"proper_misses":        e.Store().ProperMisses(),
		},
		"abort_breakdown": s.AbortBreakdown(),
		"live_txns":       e.Live(),
		"latency":         latencies,
	}
}

// DebugMux builds the HTTP handler behind esr-server's -debug-addr: the
// expvar dump at /debug/vars, the pprof suite at /debug/pprof/, and the
// ESR-specific /debug/esr JSON with counters, the abort-reason breakdown,
// the live-transaction gauge, and p50/p95/p99 per engine path.
func DebugMux(e *tso.Engine) *http.ServeMux {
	registerDebugEngine(e)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/esr", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(debugStats(e)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
