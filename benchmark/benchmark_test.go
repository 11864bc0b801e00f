package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/client"
	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/server"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// benchmarkJSON is the part of BENCHMARK.json the tests check the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// testEnv builds servers in-process and writes under the test's
// directory.
func testEnv(t *testing.T, breakGate string) *env {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return &env{workDir: t.TempDir(), breakGate: breakGate}
}

func TestPacerKeepsItsSchedule(t *testing.T) {
	const rate, length = 10000.0, time.Second
	epoch := time.Now()
	pc := newPacer(epoch, []float64{rate}, length)
	var mu sync.Mutex
	var pickedLate []time.Duration
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // an idle executor pool
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			for a := range pc.streams[0].q {
				mine = append(mine, time.Since(epoch)-time.Duration(a))
			}
			mu.Lock()
			pickedLate = append(pickedLate, mine...)
			mu.Unlock()
		}()
	}
	pc.run(time.Now(), length)
	wg.Wait()
	if got, want := len(pickedLate), int(rate*length.Seconds()); got < want-1 || got > want+1 {
		t.Fatalf("dispatched %d arrivals, want %d", got, want)
	}
	if raceEnabled {
		t.Skip("the race detector's slowdown is not the scheduler's lateness")
	}
	if p95 := quantile(durationsUS(pickedLate), 0.95); p95 >= 200 {
		t.Errorf("arrivals were picked up %.0fµs late at p95, want under 200µs", p95)
	}
	if p95 := quantile(durationsUS(pc.late), 0.95); p95 >= 200 {
		t.Errorf("arrivals were emitted %.0fµs late at p95, want under 200µs", p95)
	}
}

// A thread that kept the scheduler's timer slack would hand it on to
// every thread and server process later created from it.
func TestPacerGivesItsThreadsTimerSlackBack(t *testing.T) {
	runtime.LockOSThread() // pc.run's own lock nests, so it stays on this thread
	defer runtime.UnlockOSThread()
	const prGetTimerSlack = 30
	slack := func() uintptr {
		v, _, errno := syscall.Syscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
		if errno != 0 {
			t.Skipf("PR_GET_TIMERSLACK: %v", errno)
		}
		return v
	}
	if got := slack(); got != defaultTimerSlack {
		t.Skipf("the test's thread starts with a timer slack of %d ns, not the default", got)
	}
	pc := newPacer(time.Now(), []float64{1000}, 10*time.Millisecond)
	pc.run(time.Now(), 10*time.Millisecond)
	if got := slack(); got != defaultTimerSlack {
		t.Errorf("after the pacer ran, its thread's timer slack is %d ns, want %d", got, defaultTimerSlack)
	}
}

func TestSeedFixesEveryExecutorsPrograms(t *testing.T) {
	programs := func(spec *workloadSpec, seed int64) [][]string {
		conns := make([]*client.Client, 2) // never called: programs are only generated
		r := &run{spec: spec, seed: seed, conns: conns}
		if err := r.newExecutors(false); err != nil {
			t.Fatal(err)
		}
		out := make([][]string, len(r.execs))
		for i, ex := range r.execs {
			for n := 0; n < 60; n++ {
				p := ex.gen()
				if err := p.Validate(); err != nil {
					t.Fatalf("%s executor %d: %v", spec.name, i, err)
				}
				out[i] = append(out[i], fmt.Sprintf("%v %+v", p.Bounds.Transaction, p.Ops))
			}
		}
		return out
	}
	for i := range workloads {
		spec := &workloads[i]
		a, b, other := programs(spec, 7), programs(spec, 7), programs(spec, 8)
		for ex := range a {
			if strings.Join(a[ex], "\n") != strings.Join(b[ex], "\n") {
				t.Errorf("%s: executor %d generated different programs from the same seed", spec.name, ex)
			}
		}
		if strings.Join(a[0], "\n") == strings.Join(other[0], "\n") {
			t.Errorf("%s: seeds 7 and 8 generated the same programs", spec.name)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload both ways against
// in-process servers, a fraction of a second per phase, and checks that
// what the program emits is what BENCHMARK.json declares.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	checkTable := func(what string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program emits %d", what, len(declared), len(defs))
		}
		seen := map[string]bool{}
		name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
			if !name.MatchString(d.name) || d.unit == "" || seen[d.name] {
				t.Errorf("%s metric %q: bad name, empty unit or duplicate", what, d.name)
			}
			seen[d.name] = true
		}
	}
	checkTable("end_to_end", decl.EndToEnd, endToEnd)
	checkTable("per_layer", decl.PerLayer, perLayer)

	probes := map[string]float64{}
	if err := runProbes(probes, 1, ""); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		spec := &workloads[i]
		if decl.Workloads[i].Name != spec.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, decl.Workloads[i].Name, spec.name)
		}
		e := testEnv(t, "")
		rep, err := endToEndRun(e, spec, 1, 0.9, 1)
		if err != nil {
			t.Fatalf("%s end to end: %v", spec.name, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s end to end: %d of %d transactions failed", spec.name, rep.failed, rep.attempted)
		}
		layers, err := perLayerRun(e, spec, 1, 1.2, "")
		if err != nil {
			t.Fatalf("%s per layer: %v", spec.name, err)
		}
		if _, ok := layers.metrics["trace.sum_error_pct"]; !ok {
			t.Errorf("%s: the traced run computed no trace.sum_error_pct", spec.name)
		}
		if layers.metrics["client.self_us_per_txn"] <= 0 || layers.metrics["trace.transit_us_per_txn"] <= 0 {
			t.Errorf("%s: the trace joined no round trips: %v", spec.name, layers.metrics)
		}
		for name, v := range probes {
			layers.metrics[name] = v
		}
		for _, table := range []struct {
			defs []metricDef
			got  map[string]float64
		}{{endToEnd, rep.metrics}, {perLayer, layers.metrics}} {
			emitted := 0
			for _, d := range table.defs {
				v, ok := table.got[d.name]
				if ok {
					emitted++
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s is %v", spec.name, d.name, v)
				}
			}
			// Metrics a workload has nothing to say about (a log's fsyncs on
			// an in-memory server) are emitted as zero by emit; everything
			// measured must be a declared name.
			for name := range table.got {
				found := false
				for _, d := range table.defs {
					found = found || d.name == name
				}
				if !found {
					t.Errorf("%s measured %s, which BENCHMARK.json does not declare", spec.name, name)
				}
			}
			if emitted == 0 {
				t.Errorf("%s emitted none of its metrics", spec.name)
			}
		}
		for _, must := range []string{"setup_s", "query_p50_us", "update_p95_us", "commit_txn_per_s", "attempts_per_commit"} {
			if rep.metrics[must] <= 0 {
				t.Errorf("%s: %s is %v, want positive", spec.name, must, rep.metrics[must])
			}
		}
	}
}

// TestBrokenGatesFailTheRun corrupts each correctness gate's expectation
// in turn; the run must then report failure.
func TestBrokenGatesFailTheRun(t *testing.T) {
	for _, tc := range []struct{ gate, workload string }{
		{"model", "hot-mixed"},
		{"conservation", "wire-transfer"},
		{"recovery", "durable-transfer"},
		{"replica", "replica-read"},
		{"routing", "replica-read"},
	} {
		if _, err := endToEndRun(testEnv(t, tc.gate), findWorkload(tc.workload), 1, 0.5, 1); err == nil {
			t.Errorf("gate %q on %s: the run passed with a corrupted expectation", tc.gate, tc.workload)
		}
	}
	if _, err := perLayerRun(testEnv(t, "certify"), findWorkload("hot-mixed"), 1, 1, ""); err == nil {
		t.Error("gate \"certify\": the run passed with a corrupted expectation")
	}
	if err := probeCrash(1, "crash"); err == nil {
		t.Error("gate \"crash\": the probe passed with a corrupted expectation")
	}
	if err := probeCrash(1, ""); err != nil {
		t.Errorf("crash probe: %v", err)
	}
}

// The fakes behind the decorators do nothing, so any allocation is the
// decorator's own.
type fakeBackend struct{ server.Backend }

func (fakeBackend) Begin(core.Kind, tsgen.Timestamp, core.BoundSpec) (core.TxnID, error) {
	return 1, nil
}
func (fakeBackend) Read(core.TxnID, core.ObjectID) (core.Value, error) { return 0, nil }
func (fakeBackend) WriteDelta(core.TxnID, core.ObjectID, core.Value) (core.Value, error) {
	return 0, nil
}
func (fakeBackend) Commit(core.TxnID) error             { return nil }
func (fakeBackend) MetricsSnapshot() metrics.Snapshot   { return metrics.Snapshot{} }
func (fakeBackend) LatencySnapshot() metrics.LatencySet { return metrics.LatencySet{} }

type fakeAck struct{}

func (fakeAck) Wait() error { return nil }

type fakeLog struct{ storage.Durability }

func (fakeLog) LogCommit(*storage.TxnCommit, func()) (storage.Ack, error) { return fakeAck{}, nil }

type fakeConn struct{ net.Conn }

func (fakeConn) Read(p []byte) (int, error)  { return len(p), nil }
func (fakeConn) Write(p []byte) (int, error) { return len(p), nil }
func (fakeConn) LocalAddr() net.Addr         { return &net.TCPAddr{} }
func (fakeConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }

func TestDecoratorsDoNotAllocate(t *testing.T) {
	tr := newTracer(1<<16, 1<<20)
	b := tr.wrapBackend(fakeBackend{}, layerTSO)
	d := tr.wrapDurability(fakeLog{})
	c := tr.wrapConn(fakeConn{}, true)
	rec := &storage.TxnCommit{Txn: 1}
	buf := make([]byte, 64)
	for name, f := range map[string]func(){
		"backend": func() {
			id, _ := b.Begin(core.Update, 1, core.BoundSpec{})
			_, _ = b.Read(id, 1)
			_, _ = b.WriteDelta(id, 1, 1)
			_ = b.Commit(id)
		},
		"durability": func() {
			ack, _ := d.LogCommit(rec, nil)
			_ = ack.Wait()
		},
		"conn": func() {
			_, _ = c.Write(buf)
			_, _ = c.Read(buf)
		},
	} {
		if allocs := testing.AllocsPerRun(500, f); allocs != 0 {
			t.Errorf("%s decorator allocates %.1f times per call in steady state", name, allocs)
		}
	}
	if tr.dropped.Load() != 0 {
		t.Errorf("the test's own buffers overflowed: %d spans dropped", tr.dropped.Load())
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	root := &span{StartNS: 0, EndNS: 100, layer: layerLoadgen}
	root.child(layerLoadgen, "queue", -1, 0, 0, 10)
	call := root.child(layerClient, "call", 0, 0, 10, 100)
	rt := call.child(layerTransit, "round_trip", 0, 1, 20, 80)
	res := rt.child(layerServer, "residency", 0, 1, 30, 70)
	res.child(layerTSO, "write", 0, 1, 35, 45)
	res.child(layerTSO, "commit", 0, 1, 50, 65).child(layerWAL, "ack_wait", 0, 1, 52, 64)
	var totals [numLayers]int64
	root.selfTimes(&totals)
	want := [numLayers]int64{layerLoadgen: 10, layerClient: 30, layerTransit: 20, layerServer: 15, layerTSO: 13, layerWAL: 12}
	if totals != want {
		t.Errorf("self times %v, want %v", totals, want)
	}
	var sum int64
	for _, v := range totals {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.1: 1, 1: 10} {
		if got := quantile(vs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if errors.Is(nil, nil) && quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}
