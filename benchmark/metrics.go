package main

import (
	"math"
	"slices"
	"time"
)

// pacedWindows and satWindows split a phase into equal windows; a
// phase's number is the median of its windows' numbers, so one stall —
// a GC cycle, a noisy neighbour on the box — moves one window, not the
// result.
const (
	pacedWindows = 4
	satWindows   = 3
	// minWindowSamples is the fewest latencies a window needs for its
	// percentiles to count.
	minWindowSamples = 20
)

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	slices.Sort(out)
	return out
}

// committed reports whether a sample counts as a commit of its phase: it
// committed, and no later than the grace period after the phase's end.
func (p *phaseResult) committed(s *sample) bool {
	return s.ok && s.done <= p.end+graceAfterPhase
}

// latencyUS returns the committed latencies of one transaction kind,
// from due time to done, in µs and sorted — all of them, and per window
// of due time.
func (p *phaseResult) latencyUS(query bool, windows int) (all []float64, perWindow [][]float64) {
	perWindow = make([][]float64, windows)
	width := float64(p.end-p.start) / float64(windows)
	for i := range p.samples {
		s := &p.samples[i]
		if s.query != query || !p.committed(s) {
			continue
		}
		us := float64(s.done-s.due) / 1e3
		all = append(all, us)
		w := int(float64(s.due-p.start) / width)
		if w >= 0 && w < windows {
			perWindow[w] = append(perWindow[w], us)
		}
	}
	slices.Sort(all)
	for _, w := range perWindow {
		slices.Sort(w)
	}
	return all, perWindow
}

// windowedQuantile is the median over windows of each window's
// q-quantile, falling back to the whole phase when no window has enough
// samples.
func windowedQuantile(all []float64, perWindow [][]float64, q float64) float64 {
	var qs []float64
	for _, w := range perWindow {
		if len(w) >= minWindowSamples {
			qs = append(qs, quantile(w, q))
		}
	}
	if len(qs) == 0 {
		return quantile(all, q)
	}
	return median(qs)
}

// commitRate is the median over windows of commits per second, by time
// of completion.
func (p *phaseResult) commitRate(windows int) float64 {
	counts := make([]float64, windows)
	width := float64(p.end-p.start) / float64(windows)
	for i := range p.samples {
		s := &p.samples[i]
		if !s.ok {
			continue
		}
		if w := int(float64(s.done-p.start) / width); w >= 0 && w < windows {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= width / 1e9
	}
	return median(counts)
}

// tally counts the phase's attempted and failed transactions, its
// commits and its client attempts.
func (p *phaseResult) tally() (attempted, failed, commits, attempts int) {
	attempted = len(p.samples) + p.unfinished
	failed = p.unfinished
	for i := range p.samples {
		s := &p.samples[i]
		attempts += int(s.attempts)
		if p.committed(s) {
			commits++
		} else {
			failed++
		}
	}
	return
}
