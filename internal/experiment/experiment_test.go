package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/workload"
)

// quickConfig is a small, fast cell on the virtual timeline.
func quickConfig(level workload.Level) Config {
	cfg := DefaultConfig(level)
	cfg.Duration = 300 * time.Millisecond
	cfg.Warmup = 50 * time.Millisecond
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := quickConfig(workload.LevelZero)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.MPL = 0
	if err := bad.Validate(); err == nil {
		t.Error("MPL=0 accepted")
	}
	bad = good
	bad.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	bad = good
	bad.Workload.NumObjects = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestRunProducesActivity(t *testing.T) {
	res, err := Run(quickConfig(workload.LevelHigh))
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Error("no commits in a 300ms virtual window")
	}
	if res.TotalOps == 0 {
		t.Error("no operations executed")
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %f", res.Throughput)
	}
	if res.Elapsed < 290*time.Millisecond || res.Elapsed > 310*time.Millisecond {
		t.Errorf("virtual elapsed = %v, want ≈300ms", res.Elapsed)
	}
	if res.String() == "" {
		t.Error("empty Result.String")
	}
}

func TestRunDeterministicOnVirtualTimeline(t *testing.T) {
	cfg := quickConfig(workload.LevelMedium)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The virtual timeline removes timer noise; runs with the same seed
	// should agree closely (goroutine scheduling can still reorder a
	// handful of operations).
	diff := a.Commits - b.Commits
	if diff < 0 {
		diff = -diff
	}
	if diff > a.Commits/10+2 {
		t.Errorf("virtual runs diverged: %d vs %d commits", a.Commits, b.Commits)
	}
}

func TestSRHasZeroInconsistentOps(t *testing.T) {
	res, err := Run(quickConfig(workload.LevelZero))
	if err != nil {
		t.Fatal(err)
	}
	if res.InconsistentOps != 0 {
		t.Errorf("SR run recorded %d inconsistent ops", res.InconsistentOps)
	}
}

func TestESRBeatsSRUnderContention(t *testing.T) {
	// The paper's headline: at a contended MPL, high-epsilon throughput
	// exceeds SR. Use medians over three seeds for robustness.
	run := func(level workload.Level) float64 {
		cfg := quickConfig(level)
		cfg.MPL = 4
		cfg.Duration = 500 * time.Millisecond
		cfg.Reps = 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	sr := run(workload.LevelZero)
	esr := run(workload.LevelHigh)
	if esr <= sr {
		t.Errorf("high-epsilon throughput %.1f not above SR %.1f", esr, sr)
	}
}

func TestRunMPLSweepAndFigures(t *testing.T) {
	base := quickConfig(workload.LevelZero)
	base.Duration = 200 * time.Millisecond
	levels := []workload.Level{workload.LevelZero, workload.LevelHigh}
	mpls := []int{1, 2, 3}
	var progressLines int
	s, err := RunMPLSweep(base, mpls, levels, func(string) { progressLines++ })
	if err != nil {
		t.Fatal(err)
	}
	if progressLines != len(levels)*len(mpls) {
		t.Errorf("progress lines = %d, want %d", progressLines, len(levels)*len(mpls))
	}
	f7 := s.Figure7()
	if len(f7.Series) != 2 || len(f7.Series[0].Y) != 3 {
		t.Fatalf("figure 7 shape: %+v", f7)
	}
	f8 := s.Figure8()
	if len(f8.Series) != 1 {
		t.Errorf("figure 8 must omit the zero-epsilon series, got %d series", len(f8.Series))
	}
	if s.Figure9().ID != "fig9" || s.Figure10().ID != "fig10" {
		t.Error("figure ids wrong")
	}
	tp := s.ThrashingPoint(0)
	if tp < 1 || tp > 3 {
		t.Errorf("thrashing point = %d outside sweep range", tp)
	}
}

func TestRunTILSweep(t *testing.T) {
	base := quickConfig(workload.LevelZero)
	base.Duration = 200 * time.Millisecond
	f, results, err := RunTILSweep(base, 2, []core.Distance{0, 10_000}, []core.Distance{1_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 1 || len(f.Series[0].X) != 2 {
		t.Fatalf("figure 11 shape: %+v", f)
	}
	if f.Series[0].Name != "TEL=1000" {
		t.Errorf("series name = %q", f.Series[0].Name)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d cells, want 2", len(results))
	}
	for _, r := range results {
		if r.Label == "" {
			t.Errorf("cell result missing label: %+v", r)
		}
		// The virtual timeline drives the histograms: with a 1 ms-scale
		// simulated op latency every cell must see nonzero percentiles.
		if r.Commits > 0 && (r.OpP50 <= 0 || r.OpP99 < r.OpP50) {
			t.Errorf("%s: op percentiles p50=%v p99=%v", r.Label, r.OpP50, r.OpP99)
		}
	}
}

func TestRunOILSweep(t *testing.T) {
	base := quickConfig(workload.LevelZero)
	base.Duration = 200 * time.Millisecond
	s, err := RunOILSweep(base, 2, []float64{0, 8}, []core.Distance{10_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f12, f13 := s.Figure12(), s.Figure13()
	if len(f12.Series) != 1 || len(f13.Series) != 1 {
		t.Fatal("OIL sweep series count wrong")
	}
	// OIL=0 admits no inconsistency on any object: throughput should not
	// exceed the relaxed cell.
	if f12.Series[0].Y[0] > f12.Series[0].Y[1]*1.2 {
		t.Errorf("OIL=0 throughput %f above OIL=8w %f", f12.Series[0].Y[0], f12.Series[0].Y[1])
	}
}

func TestBoundLevelsTable(t *testing.T) {
	f := BoundLevelsTable()
	if f.ID != "table1" || len(f.Series) != 2 {
		t.Fatalf("table shape: %+v", f)
	}
	if f.Series[0].Y[0] != 100_000 || f.Series[1].Y[0] != 10_000 {
		t.Errorf("high level row wrong: %v %v", f.Series[0].Y, f.Series[1].Y)
	}
}

func TestRunHierarchyOverhead(t *testing.T) {
	f, err := RunHierarchyOverhead([]int{1, 4}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	se := f.Series[0]
	if len(se.Y) != 2 || se.Y[0] <= 0 || se.Y[1] <= 0 {
		t.Fatalf("overhead series: %+v", se)
	}
	if _, err := RunHierarchyOverhead([]int{0}, 10); err == nil {
		t.Error("depth 0 accepted")
	}
}

func TestRunHistoryAblation(t *testing.T) {
	base := quickConfig(workload.LevelMedium)
	base.Duration = 200 * time.Millisecond
	f, _, err := RunHistoryAblation(base, []int{1, 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("history ablation series = %d", len(f.Series))
	}
	misses := f.Series[2]
	if misses.Y[0] < misses.Y[1] {
		t.Errorf("K=1 should miss at least as often as K=20: %v", misses.Y)
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "Test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20.5}},
			{Name: "b,quoted", X: []float64{1}, Y: []float64{7}},
		},
	}
	var table bytes.Buffer
	if err := WriteTable(&table, f); err != nil {
		t.Fatal(err)
	}
	out := table.String()
	for _, frag := range []string{"FIGX", "20.5", "a", "b,quoted", "-"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, f); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d: %q", len(lines), csv.String())
	}
	if lines[0] != `x,a,"b,quoted"` {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[2] != "2,20.5," {
		t.Errorf("csv row = %q", lines[2])
	}
}

func TestScaleForQuickRun(t *testing.T) {
	cfg := DefaultConfig(workload.LevelZero)
	scaled := ScaleForQuickRun(cfg, 10*time.Millisecond, time.Millisecond, 100*time.Microsecond)
	if scaled.Duration != 10*time.Millisecond || scaled.Warmup != time.Millisecond || scaled.OpLatency != 100*time.Microsecond {
		t.Errorf("scaled = %+v", scaled)
	}
}

func TestRunRealTimeWallClock(t *testing.T) {
	// The wall-clock path (-realtime / -paper-scale) shares the harness
	// code; a short cell must still commit work and take real time.
	cfg := quickConfig(workload.LevelHigh)
	cfg.RealTime = true
	cfg.Duration = 150 * time.Millisecond
	cfg.Warmup = 20 * time.Millisecond
	cfg.OpLatency = time.Millisecond
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall < 150*time.Millisecond {
		t.Errorf("real-time cell finished in %v", wall)
	}
	if res.Commits == 0 {
		t.Error("no commits on the wall-clock path")
	}
}
