package epsilondb

// One benchmark per table and figure of the paper's evaluation (§7–8),
// plus the ablations from DESIGN.md and micro-benchmarks of the hot
// paths. The figure benchmarks drive the same sweep code as cmd/esr-bench
// on the deterministic virtual timeline, so `go test -bench=.` regenerates
// every series in seconds; custom metrics surface each figure's headline
// numbers (peak throughput, thrashing point, abort counts).

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/experiment"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wire"
	"github.com/epsilondb/epsilondb/internal/workload"
)

// benchConfig is the shortened per-cell configuration used by the figure
// benchmarks: 300 virtual milliseconds per cell, one repetition.
func benchConfig() experiment.Config {
	cfg := experiment.DefaultConfig(workload.LevelHigh)
	cfg.Duration = 300 * time.Millisecond
	cfg.Warmup = 50 * time.Millisecond
	cfg.Reps = 1
	return cfg
}

func benchMPLs() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} }

// seriesMax returns the peak y value of a series.
func seriesMax(s experiment.Series) float64 {
	max := 0.0
	for _, y := range s.Y {
		if y > max {
			max = y
		}
	}
	return max
}

// seriesLast returns the final y value of a series.
func seriesLast(s experiment.Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// BenchmarkTable1BoundLevels regenerates the §7 table of bound
// magnitudes (experiment E1).
func BenchmarkTable1BoundLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiment.BoundLevelsTable()
		if len(f.Series) != 2 {
			b.Fatal("table shape")
		}
	}
	f := experiment.BoundLevelsTable()
	b.ReportMetric(f.Series[0].Y[0], "TIL-high")
	b.ReportMetric(f.Series[1].Y[0], "TEL-high")
}

// runMPLSweep executes the Figures 7–10 sweep once.
func runMPLSweep(b *testing.B) *experiment.MPLSweep {
	b.Helper()
	s, err := experiment.RunMPLSweep(benchConfig(), benchMPLs(), workload.Levels(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig07ThroughputVsMPL regenerates Figure 7 (experiment E2) and
// reports the thrashing points whose shift is the paper's first headline
// observation.
func BenchmarkFig07ThroughputVsMPL(b *testing.B) {
	var s *experiment.MPLSweep
	for i := 0; i < b.N; i++ {
		s = runMPLSweep(b)
	}
	f := s.Figure7()
	b.ReportMetric(float64(s.ThrashingPoint(0)), "thrash-MPL-zero")
	b.ReportMetric(float64(s.ThrashingPoint(len(s.Levels)-1)), "thrash-MPL-high")
	b.ReportMetric(seriesMax(f.Series[0]), "peak-tput-zero")
	b.ReportMetric(seriesMax(f.Series[len(f.Series)-1]), "peak-tput-high")
}

// BenchmarkFig08InconsistentOpsVsMPL regenerates Figure 8 (E3).
func BenchmarkFig08InconsistentOpsVsMPL(b *testing.B) {
	var s *experiment.MPLSweep
	for i := 0; i < b.N; i++ {
		s = runMPLSweep(b)
	}
	f := s.Figure8()
	b.ReportMetric(seriesLast(f.Series[0]), "incons-ops-low-mpl10")
	b.ReportMetric(seriesLast(f.Series[len(f.Series)-1]), "incons-ops-high-mpl10")
}

// BenchmarkFig09AbortsVsMPL regenerates Figure 9 (E4): aborts near zero
// at high epsilon, shooting up at zero epsilon.
func BenchmarkFig09AbortsVsMPL(b *testing.B) {
	var s *experiment.MPLSweep
	for i := 0; i < b.N; i++ {
		s = runMPLSweep(b)
	}
	f := s.Figure9()
	b.ReportMetric(seriesLast(f.Series[0]), "aborts-zero-mpl10")
	b.ReportMetric(seriesLast(f.Series[len(f.Series)-1]), "aborts-high-mpl10")
	b.ReportMetric(f.Series[len(f.Series)-1].Y[3], "aborts-high-mpl4")
}

// BenchmarkFig10OperationsVsMPL regenerates Figure 10 (E5): total
// executed operations expose the work wasted on aborted attempts.
func BenchmarkFig10OperationsVsMPL(b *testing.B) {
	var s *experiment.MPLSweep
	for i := 0; i < b.N; i++ {
		s = runMPLSweep(b)
	}
	f := s.Figure10()
	b.ReportMetric(seriesLast(f.Series[0]), "ops-zero-mpl10")
	b.ReportMetric(seriesLast(f.Series[len(f.Series)-1]), "ops-high-mpl10")
}

// BenchmarkFig11ThroughputVsTIL regenerates Figure 11 (E6): throughput
// rising with TIL, steepest at small-to-medium values.
func BenchmarkFig11ThroughputVsTIL(b *testing.B) {
	tils := []core.Distance{0, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000}
	tels := []core.Distance{1_000, 5_000, 10_000}
	var f experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, _, err = experiment.RunTILSweep(benchConfig(), 4, tils, tels, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := f.Series[len(f.Series)-1]
	b.ReportMetric(last.Y[0], "tput-til0")
	b.ReportMetric(seriesLast(last), "tput-til200k")
}

// runOILSweep executes the Figures 12–13 sweep once.
func runOILSweep(b *testing.B) *experiment.OILSweep {
	b.Helper()
	s, err := experiment.RunOILSweep(benchConfig(), 4,
		[]float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64},
		[]core.Distance{10_000, 50_000, 100_000}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig12ThroughputVsOIL regenerates Figure 12 (E7).
func BenchmarkFig12ThroughputVsOIL(b *testing.B) {
	var s *experiment.OILSweep
	for i := 0; i < b.N; i++ {
		s = runOILSweep(b)
	}
	f := s.Figure12()
	b.ReportMetric(f.Series[0].Y[0], "tput-lowTIL-oil0")
	b.ReportMetric(seriesLast(f.Series[0]), "tput-lowTIL-oilmax")
	b.ReportMetric(seriesLast(f.Series[2]), "tput-highTIL-oilmax")
}

// BenchmarkFig13OpsPerTxnVsOIL regenerates Figure 13 (E8): the average
// operations per completed transaction, whose upturn at high OIL under
// low TIL is the paper's second headline observation.
func BenchmarkFig13OpsPerTxnVsOIL(b *testing.B) {
	var s *experiment.OILSweep
	for i := 0; i < b.N; i++ {
		s = runOILSweep(b)
	}
	f := s.Figure13()
	low := f.Series[0]
	b.ReportMetric(low.Y[0], "ops/txn-lowTIL-oil0")
	b.ReportMetric(seriesLast(low), "ops/txn-lowTIL-oilmax")
	b.ReportMetric(seriesLast(f.Series[2]), "ops/txn-highTIL-oilmax")
}

// BenchmarkAblationHistoryDepth sweeps the per-object write-history
// depth K (ablation A2, §5.1's empirical K=20).
func BenchmarkAblationHistoryDepth(b *testing.B) {
	var f experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, _, err = experiment.RunHistoryAblation(benchConfig(), []int{1, 5, 20, 100}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	misses := f.Series[2]
	b.ReportMetric(misses.Y[0], "proper-misses-K1")
	b.ReportMetric(misses.Y[2], "proper-misses-K20")
}

// BenchmarkAblationHierarchyDepth measures the bottom-up control cost of
// hierarchical bounds by depth (ablation A3, the §3.1 caveat).
func BenchmarkAblationHierarchyDepth(b *testing.B) {
	var f experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiment.RunHierarchyOverhead([]int{1, 2, 4, 8}, 100_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	se := f.Series[0]
	b.ReportMetric(se.Y[0], "ns/admit-depth1")
	b.ReportMetric(seriesLast(se), "ns/admit-depth8")
}

// --- Micro-benchmarks of the hot paths ---

func newBenchEngine(b *testing.B) (*tso.Engine, *tsgen.Generator) {
	b.Helper()
	store := storage.NewStore(storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit})
	for i := 0; i < 1000; i++ {
		if _, err := store.Create(core.ObjectID(i), 1000); err != nil {
			b.Fatal(err)
		}
	}
	return tso.NewEngine(store, tso.Options{}), tsgen.NewGenerator(0, &tsgen.LogicalClock{})
}

// BenchmarkEngineQueryTxn measures a full consistent 20-read query ET.
func BenchmarkEngineQueryTxn(b *testing.B) {
	e, gen := newBenchEngine(b)
	p := core.NewQuery(core.NoLimit)
	for i := 0; i < 20; i++ {
		p.Read(core.ObjectID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunProgram(p, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineUpdateTxn measures a full 6-operation update ET.
func BenchmarkEngineUpdateTxn(b *testing.B) {
	e, gen := newBenchEngine(b)
	p := core.NewUpdate(core.NoLimit).
		Read(1).Read(2).Read(3).
		WriteDelta(4, 1).WriteDelta(5, -1).WriteDelta(6, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunProgram(p, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccumulatorAdmit measures the two-level bounds check that
// guards every operation.
func BenchmarkAccumulatorAdmit(b *testing.B) {
	acc, err := core.NewAccumulator(nil, core.UnboundedSpec(), true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := acc.Admit(core.ObjectID(i%100), 1, core.NoLimit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccumulatorAdmitHierarchical measures the bounds check
// through a four-level hierarchy.
func BenchmarkAccumulatorAdmitHierarchical(b *testing.B) {
	schema := core.NewSchema()
	g1 := schema.MustAddGroup("g1", core.RootGroup)
	g2 := schema.MustAddGroup("g2", g1)
	g3 := schema.MustAddGroup("g3", g2)
	if err := schema.Assign(1, g3); err != nil {
		b.Fatal(err)
	}
	spec := core.UnboundedSpec().
		WithGroup("g1", core.NoLimit).WithGroup("g2", core.NoLimit).WithGroup("g3", core.NoLimit)
	acc, err := core.NewAccumulator(schema, spec, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := acc.Admit(1, 1, core.NoLimit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineHotPath measures the per-transaction engine cycle the
// server loop drives — Begin, read, delta-write, Commit — serially and
// with concurrent sites hammering the sharded transaction table.
func BenchmarkEngineHotPath(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		e, gen := newBenchEngine(b)
		spec := core.UnboundedSpec()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn, err := e.Begin(core.Update, gen.Next(), spec)
			if err != nil {
				b.Fatal(err)
			}
			obj := core.ObjectID(i % 1000)
			if _, err := e.Read(txn, obj); err != nil {
				b.Fatal(err)
			}
			if _, err := e.WriteDelta(txn, obj, 1); err != nil {
				b.Fatal(err)
			}
			if err := e.Commit(txn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		e, _ := newBenchEngine(b)
		clock := &tsgen.LogicalClock{}
		var site int32
		spec := core.UnboundedSpec()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			s := int(atomic.AddInt32(&site, 1))
			gen := tsgen.NewGenerator(s, clock)
			// Disjoint object ranges per site: the benchmark targets
			// transaction-table contention, not data conflicts.
			base := core.ObjectID((s * 8) % 992)
			i := 0
			for pb.Next() {
				txn, err := e.Begin(core.Update, gen.Next(), spec)
				if err != nil {
					b.Fatal(err)
				}
				obj := base + core.ObjectID(i%8)
				if _, err := e.Read(txn, obj); err != nil {
					b.Fatal(err)
				}
				if _, err := e.WriteDelta(txn, obj, 1); err != nil {
					b.Fatal(err)
				}
				if err := e.Commit(txn); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// BenchmarkWireRoundTrip measures encoding and decoding one message per
// iteration: a Begin with a hierarchical specification (the allocating
// worst case), and the recycled data-operation fast path the server loop
// runs in steady state, which must not allocate at all.
func BenchmarkWireRoundTrip(b *testing.B) {
	b.Run("begin", func(b *testing.B) {
		msg := &wire.Begin{
			Kind:      core.Query,
			Timestamp: tsgen.Make(123456, 3),
			Spec: core.BoundSpec{
				Transaction: 100_000,
				Groups:      map[string]core.Distance{"company": 4000, "personal": 3000},
			},
		}
		var buf bytes.Buffer
		conn := wire.NewConn(&buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := conn.WriteMessage(msg); err != nil {
				b.Fatal(err)
			}
			m, err := conn.ReadMessage()
			if err != nil {
				b.Fatal(err)
			}
			wire.Recycle(m)
		}
	})
	b.Run("fastpath", func(b *testing.B) {
		msg := &wire.Write{Txn: 1, Object: 2, Delta: true, Value: 3}
		var buf bytes.Buffer
		conn := wire.NewConn(&buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := conn.WriteMessage(msg); err != nil {
				b.Fatal(err)
			}
			m, err := conn.ReadMessage()
			if err != nil {
				b.Fatal(err)
			}
			wire.Recycle(m)
		}
	})
	// pipelined: the same fast-path op inside a Tagged envelope, the
	// per-frame cost of the demultiplexing core's wire format. Must stay
	// allocation-free like the bare fast path.
	b.Run("pipelined", func(b *testing.B) {
		msg := &wire.Tagged{Tag: 7, Inner: &wire.Write{Txn: 1, Object: 2, Delta: true, Value: 3}}
		var buf bytes.Buffer
		conn := wire.NewConn(&buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := conn.WriteMessage(msg); err != nil {
				b.Fatal(err)
			}
			m, err := conn.ReadMessage()
			if err != nil {
				b.Fatal(err)
			}
			tg := m.(*wire.Tagged)
			wire.Recycle(tg.Inner)
			wire.Recycle(tg)
		}
	})
	// batched: 16 ops per CRC-framed Batch frame; the reported ns/op is
	// per frame, so divide by 16 for the amortized per-op cost.
	b.Run("batched", func(b *testing.B) {
		const ops = 16
		msg := &wire.Batch{}
		for i := 0; i < ops; i++ {
			msg.Ops = append(msg.Ops, wire.BatchItem{
				Tag: uint32(i + 1),
				Msg: &wire.Write{Txn: 1, Object: core.ObjectID(i), Delta: true, Value: 3},
			})
		}
		var buf bytes.Buffer
		conn := wire.NewConn(&buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := conn.WriteMessage(msg); err != nil {
				b.Fatal(err)
			}
			m, err := conn.ReadMessage()
			if err != nil {
				b.Fatal(err)
			}
			bt := m.(*wire.Batch)
			for j := range bt.Ops {
				wire.Recycle(bt.Ops[j].Msg)
				bt.Ops[j].Msg = nil
			}
			wire.Recycle(bt)
		}
	})
}

// BenchmarkStorageFindProper measures the proper-value lookup through a
// full 20-deep write history.
func BenchmarkStorageFindProper(b *testing.B) {
	o := storage.NewObject(1, 1000, core.NoLimit, core.NoLimit, 20)
	for i := 1; i <= 25; i++ {
		ts := tsgen.Make(int64(i*10), 0)
		if err := o.BeginWrite(core.TxnID(i), ts, core.Value(i)); err != nil {
			b.Fatal(err)
		}
		o.CommitWrite(core.TxnID(i))
	}
	probe := tsgen.Make(105, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := o.FindProper(probe); !ok {
			b.Fatal("lookup failed")
		}
	}
}
