package epsilondb

// BenchmarkWALCommit compares the engine commit hot path across the three
// durability settings: WAL off (the in-memory baseline), group commit,
// and the per-transaction-fsync baseline group commit exists to beat.
// fsync latency is injected as a fixed delay over the in-memory log
// filesystem, so the batching ratio measures the protocol — how many
// commits share one fsync — rather than the host disk's flush time,
// and stays comparable across machines like the other hot-path cells.

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
)

// walBenchFsyncDelay models one disk flush. 100µs sits between an
// enterprise SSD and a cloud block device; what matters is that it is
// identical for the group and per-transaction cells.
const walBenchFsyncDelay = 100 * time.Microsecond

// slowFS injects walBenchFsyncDelay into every data and directory sync
// of the wrapped filesystem.
type slowFS struct {
	wal.FS
}

func (s slowFS) Create(name string) (wal.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowFile{f}, nil
}

func (s slowFS) SyncDir() error {
	time.Sleep(walBenchFsyncDelay)
	return s.FS.SyncDir()
}

type slowFile struct {
	wal.File
}

func (f slowFile) Sync() error {
	time.Sleep(walBenchFsyncDelay)
	return f.File.Sync()
}

// newWALBenchEngine builds a logged engine over a delay-injected MemFS.
func newWALBenchEngine(b *testing.B, syncInterval time.Duration) *tso.Engine {
	b.Helper()
	fs := slowFS{wal.NewMemFS()}
	cfg := storage.Config{DefaultOIL: core.NoLimit, DefaultOEL: core.NoLimit}
	store, l, _, err := wal.Recover(fs, cfg, wal.Options{
		SyncInterval: syncInterval,
		SegmentBytes: 1 << 30, // no mid-benchmark segment rolls
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = l.Close() })
	for i := 0; i < 1000; i++ {
		if _, err := store.Create(core.ObjectID(i), 1000); err != nil {
			b.Fatal(err)
		}
	}
	return tso.NewEngine(store, tso.Options{Durability: l})
}

// runWALCommitLoad drives the same Begin/Read/WriteDelta/Commit cycle as
// BenchmarkEngineHotPath, fanned out well past GOMAXPROCS so the
// committer always has a deep pending batch to amortize each fsync over.
func runWALCommitLoad(b *testing.B, e *tso.Engine) {
	b.Helper()
	clock := &tsgen.LogicalClock{}
	var site int32
	spec := core.UnboundedSpec()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := int(atomic.AddInt32(&site, 1))
		gen := tsgen.NewGenerator(s, clock)
		// Disjoint object ranges per site: the cells compare durability
		// cost, not conflict behavior.
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
}

func BenchmarkWALCommit(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		e, _ := newBenchEngine(b)
		b.ReportAllocs()
		runWALCommitLoad(b, e)
	})
	b.Run("group", func(b *testing.B) {
		e := newWALBenchEngine(b, 0)
		b.ReportAllocs()
		runWALCommitLoad(b, e)
	})
	b.Run("fsync-per-txn", func(b *testing.B) {
		e := newWALBenchEngine(b, -1)
		b.ReportAllocs()
		runWALCommitLoad(b, e)
	})
}
