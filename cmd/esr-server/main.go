// Command esr-server runs the central transaction server of the
// prototype (§6): an in-memory database behind the binary wire protocol,
// with timestamp-ordered ESR concurrency control.
//
//	esr-server -addr :7400 -objects 1000 -oil 4000:16000 -oel 4000:16000
//
// The database is populated with -objects objects valued 1000–9999 (the
// paper's start-up data file); per-object OIL/OEL are drawn uniformly
// from the given min:max ranges ("the values of OIL and OEL are randomly
// generated within a specified range"). -latency adds a per-operation
// service delay to emulate the prototype's RPC cost.
//
// Observability: -debug-addr serves expvar (/debug/vars), pprof
// (/debug/pprof/) and a JSON stats view (/debug/esr) with live counters,
// the abort-reason breakdown and per-path latency percentiles; -trace
// appends every engine event to a JSONL file; -flight keeps a ring of the
// last N events and dumps it to stderr when aborts cluster.
//
// Robustness: -idle-timeout drops connections whose client goes silent
// mid-transaction (aborting their open transactions), -write-timeout
// bounds response writes, and -shutdown-grace is how long SIGINT/SIGTERM
// waits for in-flight requests to drain before cutting connections. The
// -fault-* flags (see internal/faultnet) wrap every accepted connection
// with a deterministic fault schedule — drops, added latency, partial
// reads/writes, mid-frame resets — for robustness testing against a
// live server.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/faultnet"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/replica"
	"github.com/epsilondb/epsilondb/internal/server"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7400", "listen address")
		objects  = flag.Int("objects", 1000, "number of objects to load")
		valueMin = flag.Int64("value-min", 1000, "minimum initial object value")
		valueMax = flag.Int64("value-max", 9999, "maximum initial object value")
		oilRange = flag.String("oil", "unlimited", "object import limit range min:max, or 'unlimited'")
		oelRange = flag.String("oel", "unlimited", "object export limit range min:max, or 'unlimited'")
		history  = flag.Int("history", storage.DefaultHistoryDepth, "committed writes retained per object")
		latency  = flag.Duration("latency", 0, "simulated per-operation service latency")
		seed     = flag.Int64("seed", 1, "database population seed")
		stats    = flag.Duration("stats", 0, "print engine counters every interval (0 disables)")

		debugAddr = flag.String("debug-addr", "", "serve expvar, pprof and /debug/esr on this address (empty disables)")
		traceFile = flag.String("trace", "", "append engine trace events to this JSONL file")
		flightN   = flag.Int("flight", 0, "keep the last N trace events in a flight recorder, dumped on abort storms")

		idleTimeout   = flag.Duration("idle-timeout", 0, "drop connections idle this long, aborting their open txns (0 disables)")
		writeTimeout  = flag.Duration("write-timeout", 0, "bound each response write (0 disables)")
		shutdownGrace = flag.Duration("shutdown-grace", 10*time.Second, "how long shutdown waits for in-flight requests to drain")

		walDir    = flag.String("wal-dir", "", "write-ahead log directory; enables durability and crash recovery (empty disables)")
		walSync   = flag.Duration("wal-sync-interval", 0, "only the sign matters: zero or positive selects self-clocked group commit (no timer); negative fsyncs every commit")
		snapEvery = flag.Int("snapshot-every", 0, "snapshot the store and truncate the log every N logged commits (0 disables)")

		replicaOf    = flag.String("replica-of", "", "follow the primary at this address and serve bounded-stale query reads (requires the primary to run with -wal-dir)")
		replicaIndex = flag.Int("replica-index", 0, "this replica's ordinal; namespaces its transaction ids in merged traces")
	)
	faultCfg := faultnet.RegisterFlags(flag.CommandLine, "fault")
	flag.Parse()

	if err := faultCfg.Validate(); err != nil {
		log.Fatalf("esr-server: %v", err)
	}

	oilMin, oilMax, err := parseRange(*oilRange)
	if err != nil {
		log.Fatalf("esr-server: -oil: %v", err)
	}
	oelMin, oelMax, err := parseRange(*oelRange)
	if err != nil {
		log.Fatalf("esr-server: -oel: %v", err)
	}

	col := &metrics.Collector{}
	var store *storage.Store
	var walLog *wal.Log
	switch {
	case *replicaOf != "":
		// Follower mode: the database arrives over the replication feed
		// (snapshot bootstrap + committed-write stream); nothing local to
		// recover or populate.
		if *walDir != "" {
			log.Fatalf("esr-server: -replica-of and -wal-dir are mutually exclusive; the follower's state mirrors the primary's log")
		}
	case *walDir != "":
		fs, err := wal.NewDirFS(*walDir)
		if err != nil {
			log.Fatalf("esr-server: -wal-dir: %v", err)
		}
		var info wal.RecoveryInfo
		store, walLog, info, err = wal.Recover(fs, storage.Config{HistoryDepth: *history}, wal.Options{
			SyncInterval:  *walSync,
			SnapshotEvery: *snapEvery,
			Collector:     col,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatalf("esr-server: wal recovery: %v", err)
		}
		if info.Records > 0 || info.SnapshotLSN > 0 {
			log.Printf("esr-server: recovered %d objects from wal (snapshot lsn %d, %d records replayed, torn tail: %v)",
				store.Len(), info.SnapshotLSN, info.Records, info.TornTail)
		}
	default:
		store = storage.NewStore(storage.Config{HistoryDepth: *history})
	}
	// A recovered store is already populated; only seed a fresh one.
	// Followers have no local store to seed at all.
	if store != nil && store.Len() == 0 {
		rng := rand.New(rand.NewSource(*seed))
		if err := store.Populate(*objects, *valueMin, *valueMax, oilMin, oilMax, oelMin, oelMax, rng); err != nil {
			log.Fatalf("esr-server: populate: %v", err)
		}
	}

	var tracers tso.MultiTracer
	var sink *tso.JSONLSink
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("esr-server: -trace: %v", err)
		}
		defer f.Close()
		sink = tso.NewJSONLSink(f)
		defer sink.Flush()
		tracers = append(tracers, sink)
	}
	if *flightN > 0 {
		rec := tso.NewFlightRecorder(*flightN)
		// Dump the ring to stderr when aborts cluster: 50 within one
		// second is far beyond any healthy retry rate at these scales.
		rec.OnAbortStorm(50, time.Second, func(evs []tso.Event) {
			log.Printf("esr-server: abort storm detected, dumping last %d trace events", len(evs))
			var buf strings.Builder
			for _, ev := range evs {
				buf.Write(tso.AppendEventJSON(nil, ev))
				buf.WriteByte('\n')
			}
			os.Stderr.WriteString(buf.String())
		})
		tracers = append(tracers, rec)
	}
	var tracer tso.Tracer
	if len(tracers) == 1 {
		tracer = tracers[0]
	} else if len(tracers) > 1 {
		tracer = tracers
	}

	srvOpts := server.Options{
		SimulatedLatency: *latency,
		IdleTimeout:      *idleTimeout,
		WriteTimeout:     *writeTimeout,
	}
	var srv *server.Server
	var engine *tso.Engine
	var feed *replica.Feed
	if *replicaOf != "" {
		follower := replica.NewFollower(storage.Config{HistoryDepth: *history})
		reng := replica.NewEngine(follower, replica.Options{
			Collector: col, Tracer: tracer, Index: *replicaIndex,
		})
		primary := *replicaOf
		var err error
		feed, err = replica.StartFeed(follower, replica.FeedOptions{
			Dial: func() (net.Conn, error) { return net.Dial("tcp", primary) },
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("esr-server: replication feed: %v", err)
		}
		srv = server.NewBackend(reng, srvOpts)
		log.Printf("esr-server: following primary at %s (replica index %d)", primary, *replicaIndex)
	} else {
		opts := tso.Options{Collector: col, Tracer: tracer}
		if walLog != nil {
			opts.Durability = walLog
		}
		engine = tso.NewEngine(store, opts)
		// The feed is only offered with durability on: followers stream
		// the WAL, so a log is the price of admission for replicas.
		srvOpts.Feed = walLog
		srv = server.New(engine, srvOpts)
	}

	if *debugAddr != "" {
		if engine == nil {
			log.Printf("esr-server: -debug-addr is unavailable in replica mode; ignoring")
		} else {
			dl, err := net.Listen("tcp", *debugAddr)
			if err != nil {
				log.Fatalf("esr-server: -debug-addr: %v", err)
			}
			log.Printf("esr-server: debug endpoint on http://%s/debug/esr", dl.Addr())
			go func() {
				if err := http.Serve(dl, server.DebugMux(engine)); err != nil {
					log.Printf("esr-server: debug server: %v", err)
				}
			}()
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("esr-server: %v", err)
	}
	var faultStats *faultnet.Stats
	if faultCfg.Enabled() {
		fl := faultnet.WrapListener(l, *faultCfg, nil)
		faultStats = fl.Stats()
		l = fl
		log.Printf("esr-server: fault injection armed (seed %d)", faultCfg.Seed)
	}
	if err := srv.Serve(l); err != nil {
		log.Fatalf("esr-server: %v", err)
	}
	log.Printf("esr-server: %d objects loaded, listening on %s", srv.Backend().Store().Len(), l.Addr())

	if *stats > 0 {
		go func() {
			prev := col.Snapshot()
			for range time.Tick(*stats) {
				cur := col.Snapshot()
				d := cur.Sub(prev)
				prev = cur
				log.Printf("stats: %.1f txn/s, %d aborts, %d inconsistent ops, %d waits",
					float64(d.Commits)/(*stats).Seconds(), d.Aborts(), d.InconsistentOps(), d.Waits)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("esr-server: shutting down (grace %v)", *shutdownGrace)
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("esr-server: shutdown: %v", err)
	}
	if feed != nil {
		feed.Stop()
	}
	if walLog != nil {
		if err := walLog.Close(); err != nil {
			log.Printf("esr-server: wal close: %v", err)
		}
	}
	s := col.Snapshot()
	fmt.Printf("total: %d commits, %d aborts, %d ops, %d inconsistent ops\n",
		s.Commits, s.Aborts(), s.TotalOps(), s.InconsistentOps())
	if faultStats != nil {
		fmt.Printf("faults injected: %d delays, %d drops, %d partials, %d resets\n",
			faultStats.Delays.Load(), faultStats.Drops.Load(),
			faultStats.Partials.Load(), faultStats.Resets.Load())
	}
}

// parseRange parses "min:max", a single number, or "unlimited".
func parseRange(s string) (core.Distance, core.Distance, error) {
	if strings.EqualFold(s, "unlimited") || s == "" {
		return core.NoLimit, core.NoLimit, nil
	}
	parts := strings.SplitN(s, ":", 2)
	lo, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad lower bound %q", parts[0])
	}
	hi := lo
	if len(parts) == 2 {
		hi, err = strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad upper bound %q", parts[1])
		}
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("range %q is inverted", s)
	}
	return lo, hi, nil
}
