package soak

// The replication feed soak: a durable primary streaming its WAL to
// bounded-stale followers over connections wrapped with read-side
// faultnet schedules — injected latency, fragmented reads, and hard
// resets mid-stream. The feed must survive by reconnecting and resuming
// from its applied LSN; the soak then asserts the strongest invariants
// the design claims:
//
//   - conservation everywhere: the zero-sum transfer load keeps the
//     bank's total constant, and once every follower has applied the
//     primary's head, each follower store must show the same total —
//     a feed that dropped, duplicated, or reordered a record cannot;
//   - convergence: every follower's applied LSN reaches the primary's
//     head despite the fault schedule (a nudge load keeps records
//     flowing so a reset that ate the tail of the stream is always
//     followed by traffic that exposes it);
//   - accounting: queries served by the followers during the churn
//     charge their replication lag against TIL, and the merged
//     primary+replica trace certifies under the offline oracle;
//   - routing: zero-epsilon queries are refused by every follower with
//     a typed redirect and served by the primary instead;
//   - cleanliness: no live transactions after shutdown, and (asserted
//     by the test) no leaked goroutines.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/esrcheck"
	"github.com/epsilondb/epsilondb/internal/faultnet"
	"github.com/epsilondb/epsilondb/internal/history"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/replica"
	"github.com/epsilondb/epsilondb/internal/server"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
)

// ReplicaConfig parameterizes one replication feed soak.
type ReplicaConfig struct {
	// Replicas is the number of followers, each fed over its own
	// fault-wrapped connection.
	Replicas int
	// Writers is the number of concurrent transfer workers on the
	// primary; UpdatesTotal commits are split between them.
	Writers      int
	UpdatesTotal int
	// Accounts is the database size; balances start at InitialBalance.
	Accounts       int
	InitialBalance core.Value
	// TIL bounds the follower queries' import of replication lag.
	TIL core.Distance
	// Seed drives the workload generators; the fault schedule has its
	// own seed inside Faults.
	Seed int64
	// WriterPace spaces the transfer commits out so the feed carries a
	// sustained stream instead of one burst, letting the count-based
	// fault triggers accumulate reads on every replication connection.
	WriterPace time.Duration
	// Faults is the schedule wrapped around every replication dial.
	// Read-side faults are the interesting ones: the feed writes one
	// hello per connection and then only reads.
	Faults faultnet.Config
	// FeedBackoff/FeedMaxBackoff tune the feed's reconnect delays; the
	// soak keeps them tight so an aggressive reset schedule still
	// converges quickly.
	FeedBackoff    time.Duration
	FeedMaxBackoff time.Duration
	// CatchUpGrace bounds the post-load wait for every follower to
	// reach the primary's head.
	CatchUpGrace  time.Duration
	ShutdownGrace time.Duration
	// MaxDuration aborts the whole run (a schedule that starves all
	// feed progress must fail loudly, not hang).
	MaxDuration time.Duration
	// Logf receives run diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultReplicaConfig returns a short adversarial run: fragmented
// reads, jittered latency, and every replication connection reset after
// a few hundred reads. The schedule is aggressive but live: a feed
// message is at most the WAL's tail chunk (512KiB), and the budget a
// connection can move before its reset — ResetAfterReads reads of up to
// PartialReadMax bytes — comfortably exceeds that, so every connection
// completes at least one batch and the feed always makes progress.
func DefaultReplicaConfig() ReplicaConfig {
	return ReplicaConfig{
		Replicas:       2,
		Writers:        2,
		UpdatesTotal:   300,
		Accounts:       32,
		InitialBalance: 5_000,
		TIL:            10_000,
		Seed:           1,
		WriterPace:     time.Millisecond,
		Faults: faultnet.Config{
			Seed:            1,
			ReadLatency:     20 * time.Microsecond,
			LatencyJitter:   0.5,
			PartialReadMax:  2048,
			ResetAfterReads: 120,
		},
		FeedBackoff:    time.Millisecond,
		FeedMaxBackoff: 20 * time.Millisecond,
		CatchUpGrace:   20 * time.Second,
		ShutdownGrace:  5 * time.Second,
		MaxDuration:    2 * time.Minute,
	}
}

// ReplicaReport summarizes a replication soak run.
type ReplicaReport struct {
	// UpdateCommits counts transfers committed on the primary,
	// including the nudges that flush the feed during catch-up.
	UpdateCommits int64
	// QueryCommits/QueryAborts count bounded queries the followers
	// served during the churn; ReplicaReads is the read total.
	QueryCommits, QueryAborts int64
	ReplicaReads              int64
	// LagImported is the lag inconsistency those queries charged.
	LagImported core.Distance
	// Redirects counts zero-epsilon queries the followers refused.
	Redirects int64
	// FeedBatches counts feed deliveries across all followers —
	// reconnect churn shows up as many small batches.
	FeedBatches int64
	// Faults is the injected-fault tally of the replication conns.
	Faults *faultnet.Stats
	// HeadLSN and AppliedLSN record convergence at shutdown.
	HeadLSN    uint64
	AppliedLSN []uint64
	// TotalPrimary and TotalReplica are the conserved bank totals.
	TotalPrimary core.Value
	TotalReplica []core.Value
	// LivePrimary/LiveReplica are the live-transaction gauges after
	// shutdown; nonzero means leaked transactions.
	LivePrimary int
	LiveReplica []int
	// Oracle is the verdict over the merged primary+replica trace.
	Oracle  *esrcheck.Report
	Elapsed time.Duration

	want core.Value // expected total, for Err
}

// String renders the report for logs.
func (r *ReplicaReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replica soak: %d updates, %d follower queries (%d aborts, %d reads, lag imported %d), %d redirects in %v\n",
		r.UpdateCommits, r.QueryCommits, r.QueryAborts, r.ReplicaReads, r.LagImported, r.Redirects, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  feed: %d batches through %d delays, %d partial reads, %d resets\n",
		r.FeedBatches, r.Faults.Delays.Load(), r.Faults.Partials.Load(), r.Faults.Resets.Load())
	fmt.Fprintf(&b, "  convergence: head %d, applied %v; totals: primary %d, replicas %v\n",
		r.HeadLSN, r.AppliedLSN, r.TotalPrimary, r.TotalReplica)
	if r.Oracle != nil {
		fmt.Fprintf(&b, "  oracle: %d txns, %d relaxed reads, err=%v", r.Oracle.Txns, r.Oracle.RelaxedReads, r.Oracle.Err())
	}
	return b.String()
}

// Err applies the invariant battery; nil means the run passed.
func (r *ReplicaReport) Err() error {
	if r.TotalPrimary != r.want {
		return fmt.Errorf("replica soak: primary total %d, want %d", r.TotalPrimary, r.want)
	}
	for i, total := range r.TotalReplica {
		if total != r.want {
			return fmt.Errorf("replica soak: follower %d total %d, want %d (feed lost or duplicated a record)", i, total, r.want)
		}
	}
	for i, lsn := range r.AppliedLSN {
		if lsn != r.HeadLSN {
			return fmt.Errorf("replica soak: follower %d applied %d, head %d", i, lsn, r.HeadLSN)
		}
	}
	if r.LivePrimary != 0 {
		return fmt.Errorf("replica soak: %d transactions leaked on the primary", r.LivePrimary)
	}
	for i, n := range r.LiveReplica {
		if n != 0 {
			return fmt.Errorf("replica soak: %d query attempts leaked on follower %d", n, i)
		}
	}
	if r.QueryCommits == 0 || r.ReplicaReads == 0 {
		return errors.New("replica soak: followers served no queries — the soak exercised nothing")
	}
	if r.Redirects == 0 {
		return errors.New("replica soak: no zero-epsilon redirect was exercised")
	}
	if r.Oracle != nil && r.Oracle.Err() != nil {
		return fmt.Errorf("replica soak: merged trace refuted: %w", r.Oracle.Err())
	}
	return nil
}

// RunReplica executes the replication soak. The returned error covers
// infrastructure failures; invariant verdicts live in Report.Err.
func RunReplica(cfg ReplicaConfig) (*ReplicaReport, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Replicas < 1 || cfg.Writers < 1 || cfg.UpdatesTotal < 1 || cfg.Accounts < 2 {
		return nil, fmt.Errorf("replica soak: need ≥1 replica, ≥1 writer, ≥1 update, ≥2 accounts; got %+v", cfg)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}

	// Primary: a durable store whose creations are logged, so followers
	// rebuild the database from the stream alone.
	store := storage.NewStore(storage.Config{HistoryDepth: 16})
	l, err := wal.Open(wal.NewMemFS(), store, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := l.Close(); err != nil {
			logf("replica soak: wal close: %v", err)
		}
	}()
	store.SetDurability(l)
	primRec := history.NewRecorder()
	engine := tso.NewEngine(store, tso.Options{Durability: l, Tracer: primRec, Collector: &metrics.Collector{}})
	for i := 1; i <= cfg.Accounts; i++ {
		if _, err := store.CreateWithLimits(core.ObjectID(i), cfg.InitialBalance, core.NoLimit, core.NoLimit); err != nil {
			return nil, err
		}
	}
	clock := &tsgen.LogicalClock{}
	srv := server.New(engine, server.Options{Clock: clock, Logf: logf, Feed: l})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	ctx := context.Background()
	if cfg.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.MaxDuration)
		defer cancel()
	}

	// Followers, each fed through its own fault-wrapped dial.
	stats := &faultnet.Stats{}
	dial := faultnet.Dialer(cfg.Faults, stats)
	type node struct {
		f    *replica.Follower
		eng  *replica.Engine
		feed *replica.Feed
		rec  *history.Recorder
	}
	nodes := make([]*node, cfg.Replicas)
	for i := range nodes {
		n := &node{f: replica.NewFollower(storage.Config{HistoryDepth: 16}), rec: history.NewRecorder()}
		n.eng = replica.NewEngine(n.f, replica.Options{Collector: &metrics.Collector{}, Tracer: n.rec, Index: i})
		n.feed, err = replica.StartFeed(n.f, replica.FeedOptions{
			Dial:       func() (net.Conn, error) { return dial(addr.String()) },
			Logf:       logf,
			Backoff:    cfg.FeedBackoff,
			MaxBackoff: cfg.FeedMaxBackoff,
		})
		if err != nil {
			return nil, err
		}
		defer n.feed.Stop()
		nodes[i] = n
	}

	start := time.Now()
	var updateCommits, queryCommits, queryAborts, redirects atomic.Int64
	var fatal atomic.Value
	fail := func(err error) { fatal.CompareAndSwap(nil, err) }

	// transfer commits one zero-sum update on the primary, retrying
	// aborts with fresh timestamps.
	transfer := func(gen *tsgen.Generator, rng *rand.Rand) error {
		for ctx.Err() == nil {
			from := core.ObjectID(1 + rng.Intn(cfg.Accounts))
			to := core.ObjectID(1 + rng.Intn(cfg.Accounts))
			for to == from {
				to = core.ObjectID(1 + rng.Intn(cfg.Accounts))
			}
			amount := core.Value(1 + rng.Intn(50))
			txn, err := engine.Begin(core.Update, gen.Next(), core.UnboundedSpec())
			if err != nil {
				return err
			}
			if _, err = engine.WriteDelta(txn, from, -amount); err == nil {
				if _, err = engine.WriteDelta(txn, to, amount); err == nil {
					err = engine.Commit(txn)
				}
			}
			var ae *tso.AbortError
			switch {
			case err == nil:
				updateCommits.Add(1)
				return nil
			case errors.As(err, &ae):
				continue // fresh timestamp, try again
			default:
				_ = engine.Abort(txn)
				return err
			}
		}
		return ctx.Err()
	}

	// The transfer load.
	var writers sync.WaitGroup
	perWriter := (cfg.UpdatesTotal + cfg.Writers - 1) / cfg.Writers
	for w := 0; w < cfg.Writers; w++ {
		writers.Add(1)
		gen := tsgen.NewGenerator(100+w, clock)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
		go func() {
			defer writers.Done()
			for n := 0; n < perWriter && ctx.Err() == nil; n++ {
				if err := transfer(gen, rng); err != nil && ctx.Err() == nil {
					fail(fmt.Errorf("replica soak: writer: %w", err))
					return
				}
				if cfg.WriterPace > 0 {
					time.Sleep(cfg.WriterPace)
				}
			}
		}()
	}

	// One query worker per follower, running through the churn: bounded
	// queries whose lag charge must stay within TIL, plus a periodic
	// zero-epsilon probe that must bounce with a typed redirect and be
	// served by the primary instead.
	stopQueries := make(chan struct{})
	var queries sync.WaitGroup
	for i, n := range nodes {
		queries.Add(1)
		gen := tsgen.NewGenerator(200+i, clock)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*104729 + 11))
		eng := n.eng
		go func() {
			defer queries.Done()
			for round := 0; ; round++ {
				select {
				case <-stopQueries:
					return
				default:
				}
				// A breath between rounds: the interesting interleavings
				// come from the feed churn, not from spinning the engine.
				time.Sleep(200 * time.Microsecond)
				if round%8 == 7 {
					_, err := eng.Begin(core.Query, gen.Next(), core.SRSpec())
					var re *replica.RedirectError
					if !errors.As(err, &re) {
						fail(fmt.Errorf("replica soak: zero-epsilon Begin on a follower returned %v, want a redirect", err))
						return
					}
					redirects.Add(1)
					if err := runPrimaryQuery(engine, gen, rng, cfg.Accounts); err != nil {
						fail(fmt.Errorf("replica soak: redirected query on the primary: %w", err))
						return
					}
					continue
				}
				switch err := runReplicaQuery(eng, gen, rng, cfg); {
				case err == nil:
					queryCommits.Add(1)
				default:
					var ae *tso.AbortError
					if !errors.As(err, &ae) {
						fail(fmt.Errorf("replica soak: follower query: %w", err))
						return
					}
					queryAborts.Add(1)
				}
			}
		}()
	}

	writers.Wait()
	// Stop the query load before waiting for convergence: the primary
	// logs every commit — including the redirected zero-epsilon queries
	// the probes replay there — so a standing query load keeps the head
	// moving and the throttled feed would chase it forever.
	close(stopQueries)
	queries.Wait()
	if err, ok := fatal.Load().(error); ok && err != nil {
		return nil, err
	}

	// Catch-up: wait for every follower to apply the head. Read-side
	// faults cannot silently lose records — a reset kills the connection
	// and the feed resumes from the applied LSN — so the stream drains
	// on its own; the nudge below is a wedge-breaker for the theoretical
	// stall, committed only when no follower has advanced for a while,
	// never a standing load the throttled feed would have to outrun.
	nudgeGen := tsgen.NewGenerator(99, clock)
	nudgeRng := rand.New(rand.NewSource(cfg.Seed ^ 0x0eed))
	deadline := time.Now().Add(cfg.CatchUpGrace)
	var lastMin uint64
	lastAdvance := time.Now()
	for fatal.Load() == nil {
		head := l.Head()
		minApplied := head
		for _, n := range nodes {
			if a := n.f.AppliedLSN(); a < minApplied {
				minApplied = a
			}
		}
		if minApplied >= head {
			break
		}
		if minApplied > lastMin {
			lastMin = minApplied
			lastAdvance = time.Now()
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return nil, fmt.Errorf("replica soak: followers stuck at lsn %d of %d after %v (%d resets injected)",
				minApplied, head, cfg.CatchUpGrace, stats.Resets.Load())
		}
		if time.Since(lastAdvance) > 500*time.Millisecond {
			if err := transfer(nudgeGen, nudgeRng); err != nil && ctx.Err() == nil {
				return nil, fmt.Errorf("replica soak: nudge: %w", err)
			}
			lastAdvance = time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, n := range nodes {
		n.feed.Stop()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return nil, fmt.Errorf("replica soak: shutdown: %w", err)
	}

	report := &ReplicaReport{
		UpdateCommits: updateCommits.Load(),
		QueryCommits:  queryCommits.Load(),
		QueryAborts:   queryAborts.Load(),
		Redirects:     redirects.Load(),
		Faults:        stats,
		HeadLSN:       l.Head(),
		TotalPrimary:  store.TotalValue(),
		LivePrimary:   engine.Live(),
		Elapsed:       time.Since(start),
		want:          core.Value(cfg.Accounts) * cfg.InitialBalance,
	}
	merged := primRec.Events()
	for _, n := range nodes {
		report.AppliedLSN = append(report.AppliedLSN, n.f.AppliedLSN())
		report.TotalReplica = append(report.TotalReplica, n.f.Store().TotalValue())
		report.LiveReplica = append(report.LiveReplica, n.eng.Live())
		report.ReplicaReads += n.eng.ReadsServed()
		report.LagImported += n.eng.ImportedTotal()
		report.FeedBatches += n.f.Batches()
		merged = append(merged, n.rec.Events()...)
	}
	report.Oracle = esrcheck.Check(merged)
	return report, nil
}

// runReplicaQuery executes one bounded query on a follower.
func runReplicaQuery(eng *replica.Engine, gen *tsgen.Generator, rng *rand.Rand, cfg ReplicaConfig) error {
	txn, err := eng.Begin(core.Query, gen.Next(), core.BoundSpec{Transaction: cfg.TIL})
	if err != nil {
		return err
	}
	for j := 0; j < 3; j++ {
		if _, err := eng.Read(txn, core.ObjectID(1+rng.Intn(cfg.Accounts))); err != nil {
			return err // the engine aborted the attempt internally
		}
	}
	return eng.Commit(txn)
}

// runPrimaryQuery serves one zero-epsilon query on the primary, the way
// the router replays a redirected query.
func runPrimaryQuery(engine *tso.Engine, gen *tsgen.Generator, rng *rand.Rand, accounts int) error {
	for {
		txn, err := engine.Begin(core.Query, gen.Next(), core.SRSpec())
		if err != nil {
			return err
		}
		_, err = engine.Read(txn, core.ObjectID(1+rng.Intn(accounts)))
		if err == nil {
			return engine.Commit(txn)
		}
		var ae *tso.AbortError
		if errors.As(err, &ae) {
			continue // a strict query raced an update; fresh timestamp
		}
		_ = engine.Abort(txn)
		return err
	}
}
