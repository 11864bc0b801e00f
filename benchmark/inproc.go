package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/history"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/replica"
	"github.com/epsilondb/epsilondb/internal/server"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
)

// inproc is the workload's servers built inside the benchmark process
// from the same public constructors cmd/esr-server uses, so the traced
// run can put its decorators between the layers. Clients still reach
// them over loopback TCP.
type inproc struct {
	c  *cluster
	tr *tracer // nil in the untraced smoke test

	// rec collects the engines' own trace events — primary and follower
	// into one history — for esrcheck to certify.
	rec *history.Recorder

	col    *metrics.Collector
	store  *storage.Store
	engine *tso.Engine
	log    *wal.Log
	srv    *server.Server

	fcol     *metrics.Collector
	follower *replica.Follower
	reng     *replica.Engine
	feed     *replica.Feed
	fsrv     *server.Server

	// recovered is what the last bootPrimary replayed from the log.
	recovered wal.RecoveryInfo
}

func discardLogf(string, ...any) {}

func startInproc(c *cluster, tr *tracer) (*inproc, error) {
	in := &inproc{c: c, tr: tr, rec: history.NewRecorder()}
	if err := in.bootPrimary(); err != nil {
		return nil, err
	}
	if c.spec.replica {
		if err := in.bootFollower(); err != nil {
			in.stop()
			return nil, err
		}
	}
	return in, nil
}

// bootPrimary mirrors esr-server's start-up: recover or create the
// store, populate it when empty, start the engine and listen.
func (in *inproc) bootPrimary() error {
	spec := in.c.spec
	in.col = &metrics.Collector{}
	in.log = nil
	if spec.durable {
		fs, err := wal.NewDirFS(in.c.walDir())
		if err != nil {
			return err
		}
		in.store, in.log, in.recovered, err = wal.Recover(fs, storage.Config{}, wal.Options{
			SyncInterval: time.Millisecond, SnapshotEvery: 20000, Collector: in.col,
		})
		if err != nil {
			return err
		}
	} else {
		in.store = storage.NewStore(storage.Config{})
	}
	if in.store.Len() == 0 {
		lo, hi, oil := core.Value(1000), core.Value(9999), core.Distance(3000)
		if spec.transfers {
			lo, hi, oil = initialBalance, initialBalance, core.NoLimit
		}
		rng := rand.New(rand.NewSource(in.c.seed))
		if err := in.store.Populate(spec.objects, lo, hi, oil, oil, oil, oil, rng); err != nil {
			return err
		}
	}
	opts := tso.Options{Collector: in.col}
	if in.recovered.Records == 0 && in.recovered.SnapshotLSN == 0 {
		// Only the first boot is recorded: an engine restarted after the
		// crash numbers its transactions from one again, and all it serves
		// is the audit of what it recovered.
		opts.Tracer = in.rec
	}
	if in.log != nil {
		opts.Durability = in.log
		if in.tr != nil {
			opts.Durability = in.tr.wrapDurability(in.log)
		}
	}
	in.engine = tso.NewEngine(in.store, opts)
	var backend server.Backend = in.engine
	srvOpts := server.Options{Feed: in.log, Logf: discardLogf}
	if in.tr != nil {
		backend = in.tr.wrapBackend(in.engine, layerTSO)
		srvOpts.WrapConn = in.tr.wrapServerConn
	}
	in.srv = server.NewBackend(backend, srvOpts)
	addr, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	if len(in.c.addrs) == 0 {
		in.c.addrs = []string{addr.String()}
	} else {
		in.c.addrs[0] = addr.String()
	}
	return nil
}

func (in *inproc) bootFollower() error {
	in.c.followerStarted = time.Now()
	in.fcol = &metrics.Collector{}
	in.follower = replica.NewFollower(storage.Config{})
	in.reng = replica.NewEngine(in.follower, replica.Options{Collector: in.fcol, Tracer: in.rec, Index: 1})
	primary := in.c.addrs[0]
	var err error
	in.feed, err = replica.StartFeed(in.follower, replica.FeedOptions{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", primary) },
	})
	if err != nil {
		return err
	}
	var backend server.Backend = in.reng
	srvOpts := server.Options{Logf: discardLogf}
	if in.tr != nil {
		backend = in.tr.wrapBackend(in.reng, layerReplica)
		srvOpts.WrapConn = in.tr.wrapServerConn
	}
	in.fsrv = server.NewBackend(backend, srvOpts)
	addr, err := in.fsrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	in.c.addrs = append(in.c.addrs, addr.String())
	return nil
}

// crashAndRestart abandons the log's pending batch the way a killed
// process would, drops the server and recovers from the directory.
func (in *inproc) crashAndRestart() (time.Duration, int, error) {
	if in.log == nil {
		return 0, 0, fmt.Errorf("%s has no log to recover from", in.c.spec.name)
	}
	in.log.Kill()
	_ = in.srv.Close()
	start := time.Now()
	if err := in.bootPrimary(); err != nil {
		return 0, 0, err
	}
	return time.Since(start), in.recovered.Records, nil
}

func (in *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if in.feed != nil {
		in.feed.Stop()
	}
	if in.fsrv != nil {
		_ = in.fsrv.Shutdown(ctx)
	}
	if in.srv != nil {
		_ = in.srv.Shutdown(ctx)
	}
	if in.log != nil {
		_ = in.log.Close()
	}
}
