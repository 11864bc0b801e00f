package main

import (
	"runtime"

	"github.com/epsilondb/epsilondb/internal/core"
)

// Fixed shape of every workload. These constants are part of the
// benchmark's definition: a change that claims a gain may not edit them.
const (
	// initialBalance is every account's starting value on the three
	// workloads whose updates are zero-sum transfers.
	initialBalance = core.Value(1_000_000)
	// sliceAccounts is the size of the disjoint account slice each
	// executor of the transfer workloads owns.
	sliceAccounts = 32
	// maxAttempts caps the client retry loop; an ET that aborts this
	// many times counts as failed.
	maxAttempts = 16
	// replicaObjects is the object set of replica-read; updates write the
	// first replicaWritten of them.
	replicaObjects = 256
	replicaWritten = 240
	// replicaTIL is the import limit of replica-read's routed queries;
	// one query in zeroTILEvery asks for TIL = 0 instead.
	replicaTIL   = core.Distance(500)
	zeroTILEvery = 50
	// graceAfterPhase is how long a phase's outstanding ETs may take to
	// finish before they count as failed.
	graceAfterPhase = 2e9 // ns
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of the untraced run against real
// esr-server processes, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_us", "us"},
	{"query_p95_us", "us"},
	{"update_p50_us", "us"},
	{"update_p95_us", "us"},
	{"commit_txn_per_s", "1/s"},
	{"attempts_per_commit", "ratio"},
	{"server_cpu_us_per_txn", "us"},
	{"server_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run, the counters
// of its untraced companion run and the isolated probes.
var perLayer = []metricDef{
	{"loadgen.late_p95_us", "us"},
	{"loadgen.behind_ratio", "ratio"},
	{"loadgen.queue_p50_us", "us"},
	{"loadgen.txn_p99_us", "us"},
	{"loadgen.build_s", "s"},
	{"loadgen.failed_ratio", "ratio"},

	{"client.self_us_per_txn", "us"},
	{"client.writes_per_txn", "count"},
	{"client.reads_per_txn", "count"},
	{"client.bytes_out_per_txn", "B"},
	{"client.bytes_in_per_txn", "B"},

	{"wire.encode_batch16_ns", "ns"},
	{"wire.decode_batch16_ns", "ns"},
	{"wire.roundtrip_op_ns", "ns"},
	{"wire.allocs_per_roundtrip", "count"},
	{"wire.bytes_per_batched_op", "B"},

	{"server.self_us_per_txn", "us"},
	{"server.writes_per_txn", "count"},
	{"server.reads_per_txn", "count"},
	{"server.bytes_per_write", "B"},

	{"tso.begin_ns", "ns"},
	{"tso.read_ns", "ns"},
	{"tso.write_ns", "ns"},
	{"tso.commit_ns", "ns"},
	{"tso.allocs_per_txn", "count"},
	{"tso.busy_us_per_txn", "us"},
	{"tso.abort_ratio", "ratio"},
	{"tso.abort_late_ratio", "ratio"},
	{"tso.abort_limit_ratio", "ratio"},
	{"tso.wasted_op_ratio", "ratio"},
	{"tso.inconsistent_op_ratio", "ratio"},
	{"tso.waits_per_commit", "count"},
	{"tso.wait_p50_us", "us"},

	{"core.admit_flat_ns", "ns"},
	{"core.admit_depth3_ns", "ns"},
	{"core.admit_refuse_ns", "ns"},
	{"core.allocs_per_admit", "count"},

	{"storage.get_1k_ns", "ns"},
	{"storage.get_100k_ns", "ns"},
	{"storage.find_proper_ns", "ns"},
	{"storage.bytes_per_object", "B"},

	{"wal.append_ns", "ns"},
	{"wal.ack_wait_p50_us", "us"},
	{"wal.commits_per_fsync", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.bytes_per_commit", "B"},
	{"wal.snapshot_s", "s"},
	{"wal.recover_s", "s"},
	{"wal.recover_records_per_s", "1/s"},

	{"replica.ingest_records_per_s", "1/s"},
	{"replica.read_view_ns", "ns"},
	{"replica.lag_lsn_p50", "count"},
	{"replica.lag_lsn_p95", "count"},
	{"replica.lag_charge_per_read", "count"},
	{"replica.redirect_ratio", "ratio"},
	{"replica.bootstrap_s", "s"},

	{"esrcheck.events_per_s", "1/s"},

	{"trace.transit_us_per_txn", "us"},
	{"trace.sum_error_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// streamSpec is one arrival stream of a workload: a share of the paced
// rate served by its own executors.
type streamSpec struct {
	name string
	// share of the workload's paced rate that arrives on this stream.
	share float64
	// executorsPerConn executors serve the stream on each of its
	// connections.
	executorsPerConn int
	// pacedInSat keeps the stream on its schedule during the saturation
	// phase instead of running its executors back to back.
	pacedInSat bool
}

// workloadSpec is the fixed definition of one workload.
type workloadSpec struct {
	name string
	// rate is the paced phase's offered load in transactions per second,
	// chosen when the benchmark was defined so that the servers' CPU is
	// 30–60 % busy (README.md says why that is not a fixed share of the
	// saturation throughput). Perf changes never edit it.
	rate float64
	// objects is the database size.
	objects int
	// pipeline is the client pipeline depth per connection.
	pipeline int
	// durable runs the server with a write-ahead log; replica adds a
	// follower and drives both through client.Router.
	durable, replica bool
	// transfers says every update is zero-sum, so the bank conserves.
	transfers bool
	// updateShare is the share of update ETs on the transfer workloads.
	updateShare float64
	streams     []streamSpec
}

// numConns is the number of TCP connections the generator opens in
// total, and its GOMAXPROCS: concurrency above it comes from pipeline
// depth, never from more sockets.
func numConns() int { return min(runtime.NumCPU(), 2) }

var workloads = []workloadSpec{
	{
		name: "wire-transfer", rate: 4500,
		objects: 16 * sliceAccounts, pipeline: 8,
		transfers: true, updateShare: 0.9,
		streams: []streamSpec{{name: "mixed", share: 1, executorsPerConn: 8}},
	},
	{
		name: "hot-mixed", rate: 700,
		objects: 1000, pipeline: 1,
		streams: []streamSpec{{name: "mixed", share: 1, executorsPerConn: 1}},
	},
	{
		name: "durable-transfer", rate: 3000,
		objects: 16 * sliceAccounts, pipeline: 8,
		durable: true, transfers: true, updateShare: 0.7,
		streams: []streamSpec{{name: "mixed", share: 1, executorsPerConn: 8}},
	},
	{
		name: "replica-read", rate: 1500,
		objects: replicaObjects, pipeline: 8,
		durable: true, replica: true, transfers: true,
		streams: []streamSpec{
			{name: "update", share: 0.3, executorsPerConn: 8, pacedInSat: true},
			{name: "query", share: 0.7, executorsPerConn: 8},
		},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
