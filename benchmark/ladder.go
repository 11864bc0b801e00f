package main

import (
	"fmt"
	"math"
	"time"
)

// The rate ladder is a diagnostic, not part of any gated run: one
// workload, six paced steps from a twentieth of its closed-loop capacity
// to most of it, one CSV row per step — the latency-against-offered-load
// curve — and the highest rate that still met the latency limit without
// a growing backlog.

const (
	ladderStep  = 3 * time.Second
	ladderLimit = 5000.0 // µs: the p95 a rate must stay under
)

var ladderFractions = [6]float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.7}

// twoFigures rounds to two significant figures.
func twoFigures(v float64) float64 {
	if v <= 0 {
		return 0
	}
	scale := math.Pow(10, math.Floor(math.Log10(v))-1)
	return math.Round(v/scale) * scale
}

func ladder(e *env, base *workloadSpec, seed int64) error {
	spec := *base // the ladder sets its own rates
	r, err := startRun(e, &spec, seed, nil, nil)
	if err != nil {
		return err
	}
	defer r.close()
	if err := r.newExecutors(false); err != nil {
		return err
	}
	if _, err := r.phase(time.Second, false); err != nil {
		return err
	}
	sat, err := r.phase(2*time.Second, true)
	if err != nil {
		return err
	}
	capacity := sat.commitRate(1)
	fmt.Printf("# %s: closed-loop capacity %.0f txn/s with %d executors; steps of %v\n", spec.name, capacity, len(r.execs), ladderStep)
	fmt.Println("rate,achieved,p50,p95,p99,late_p95,failed")
	best := 0.0
	for _, f := range ladderFractions {
		spec.rate = twoFigures(capacity * f)
		p, err := r.phase(ladderStep, false)
		if err != nil {
			return err
		}
		all := allLatencyUS(p)
		attempted, failed, commits, _ := p.tally()
		late := quantile(durationsUS(p.late), 0.95)
		p95 := quantile(all, 0.95)
		fmt.Printf("%.0f,%.0f,%.1f,%.1f,%.1f,%.1f,%d\n", spec.rate, float64(commits)/ladderStep.Seconds(),
			quantile(all, 0.5), p95, quantile(all, 0.99), late, failed)
		// A backlog that grows shows as latency climbing through the step.
		growing := failed > 0 || attempted == 0
		for _, query := range []bool{false, true} {
			_, t := p.latencyUS(query, 3)
			if len(t[0]) > 0 && len(t[2]) > 0 && quantile(t[2], 0.5) > 2*quantile(t[0], 0.5)+1000 {
				growing = true
			}
		}
		if p95 <= ladderLimit && !growing {
			best = spec.rate
		}
	}
	fmt.Printf("# highest rate with p95 <= %.0f µs and no growing backlog: %.0f txn/s\n", ladderLimit, best)
	_, _, err = r.verify(e.breakGate)
	return err
}
