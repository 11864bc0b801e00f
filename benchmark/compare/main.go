// Command compare judges two sets of benchmark runs against the bounds
// in BENCHMARK.json:
//
//	cd benchmark && go run ./compare a/results.json b/results.json
//
// Each file is what the benchmark's -out flag accumulates: any number of
// runs per workload. For every pair of end-to-end metric and workload it
// prints both medians, both spreads (the distance between the first and
// third quartile as a share of the median) and a verdict:
//
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than the bound
//	same        neither; the change column says how far apart they are
//	unresolved  a spread is wider than the bound, so the runs cannot say
//
// It exits 1 if any row is worse. Comparing two sets of runs of the same
// code is the A/A check: every row must come out same.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type results struct {
	Runs []struct {
		Workload string             `json:"workload"`
		Metrics  map[string]float64 `json:"metrics"`
	} `json:"runs"`
}

func load(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := slices.Clone(values)
	slices.Sort(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// side summarises one file's runs of one metric on one workload.
type side struct {
	n              int
	median, spread float64
}

func summarise(r *results, workload, metric string) side {
	var vs []float64
	for _, run := range r.Runs {
		if v, ok := run.Metrics[metric]; ok && run.Workload == workload {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return side{}
	}
	q1, q2, q3 := quartiles(vs)
	s := side{n: len(vs), median: q2}
	if q2 != 0 {
		s.spread = (q3 - q1) / q2
	}
	return s
}

// verdict judges b against a under one metric's bound and direction.
func verdict(m metricSpec, a, b side) string {
	if a.n == 0 || b.n == 0 {
		return "missing"
	}
	if max(a.spread, b.spread) > m.Bound {
		return "unresolved"
	}
	worseBy := (b.median - a.median) / a.median
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case worseBy > m.Bound:
		return "worse"
	case -worseBy > m.Bound:
		return "better"
	}
	return "same"
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark's definition")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] a.json b.json")
		os.Exit(2)
	}
	var spec benchmarkSpec
	var a, b results
	for _, f := range []struct {
		path string
		into any
	}{{*specPath, &spec}, {flag.Arg(0), &a}, {flag.Arg(1), &b}} {
		if err := load(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
	}
	fmt.Printf("%-18s %-24s %12s %7s %3s %12s %7s %3s %7s %6s  %s\n",
		"workload", "metric", "a median", "spread", "n", "b median", "spread", "n", "change", "bound", "verdict")
	worse := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := summarise(&a, w.Name, m.Name), summarise(&b, w.Name, m.Name)
			v := verdict(m, sa, sb)
			worse = worse || v == "worse"
			change := 0.0
			if sa.median != 0 {
				change = 100 * (sb.median - sa.median) / sa.median
			}
			fmt.Printf("%-18s %-24s %12.4f %6.1f%% %3d %12.4f %6.1f%% %3d %+6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, sa.median, 100*sa.spread, sa.n, sb.median, 100*sb.spread, sb.n, change, 100*m.Bound, v)
		}
	}
	if worse {
		os.Exit(1)
	}
}
