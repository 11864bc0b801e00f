package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/esrcheck"
	"github.com/epsilondb/epsilondb/internal/history"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/storage"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
	"github.com/epsilondb/epsilondb/internal/wal"
)

// CrashConfig parameterizes a kill-and-restart soak: the banking
// workload runs in-process against a WAL-backed engine over a MemFS,
// and the "machine" is crashed between cycles — sometimes cleanly
// (after a durability barrier), sometimes mid-flight with a random torn
// tail. Every restart recovers from the log and re-checks the
// invariants durability must preserve across crashes.
type CrashConfig struct {
	// Cycles is the number of run/crash/recover rounds.
	Cycles int
	// Workers and TxnsPerWorker size each cycle's workload.
	Workers       int
	TxnsPerWorker int
	// Accounts and InitialBalance shape the bank.
	Accounts       int
	InitialBalance core.Value
	// QueryFraction is the probability a program is an audit query.
	QueryFraction float64
	// TIL bounds audit queries, TEL bounds transfers; both are audited
	// per commit record after the final crash.
	TIL core.Distance
	TEL core.Distance
	// HistoryDepth is the per-object committed history bound the
	// recovery must restore.
	HistoryDepth int
	// SyncInterval and SnapshotEvery configure the log under test; a
	// negative SyncInterval fsyncs every record instead of group commit.
	SyncInterval  time.Duration
	SnapshotEvery int
	// DirtyEvery makes every Nth cycle end in a mid-flight kill with a
	// random torn tail instead of a clean barriered kill; 0 keeps every
	// kill clean.
	DirtyEvery int
	// Certify runs the offline epsilon-serializability oracle over every
	// cycle's recorded trace after its drain. The state recovered from
	// the log is presented to the oracle as a synthetic initial
	// transaction (recovery is the first committed transaction of the
	// next epoch's history), so reads of pre-crash versions resolve.
	Certify bool
	// Seed drives the workload and the crash points.
	Seed int64
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultCrashConfig returns a short adversarial run mixing clean and
// dirty kills.
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		Cycles:         6,
		Workers:        4,
		TxnsPerWorker:  40,
		Accounts:       16,
		InitialBalance: 5_000,
		QueryFraction:  0.25,
		TIL:            10_000,
		TEL:            5_000,
		HistoryDepth:   4,
		SnapshotEvery:  64,
		DirtyEvery:     2,
		Certify:        true,
		Seed:           1,
	}
}

// CrashReport summarizes a crash soak.
type CrashReport struct {
	// Cycles ran; CleanKills + DirtyKills == Cycles.
	Cycles, CleanKills, DirtyKills int
	// Committed counts commits whose durability ack resolved nil — these
	// MUST survive every later crash. DurabilityLost counts commits that
	// published in memory but whose ack failed (killed log): outcome
	// legitimately unknown after the crash.
	Committed, Attempts, DurabilityLost int64
	// ReplayedCommits sums the commit records replayed across all
	// recoveries (tail only; snapshot-covered records don't re-replay).
	ReplayedCommits int
	// TornTails counts recoveries that discarded a torn final record.
	TornTails int
	// CertifiedCycles counts cycles whose trace the offline oracle
	// certified (equal to Cycles when Certify is on and nothing failed).
	CertifiedCycles int
	// InitialTotal/FinalTotal are the conservation check ends.
	InitialTotal, FinalTotal core.Value
	// FinalImported/FinalExported are the recovered accumulated
	// inconsistency after the last crash.
	FinalImported, FinalExported core.Distance
	// AckedQueryReads counts the committed versions read by acknowledged
	// queries; every recovery checks each of them survived.
	AckedQueryReads int64

	violations []string
}

// String renders the report for the command line.
func (r *CrashReport) String() string {
	return fmt.Sprintf(
		"crash soak: %d cycles (%d clean, %d dirty kills); %d commits acked, %d attempts, %d lost-durability\n"+
			"recovery: %d tail commits replayed, %d torn tails discarded; %d cycles certified by the oracle; %d acknowledged query reads survived\n"+
			"final total %d (start %d), inconsistency %d/%d",
		r.Cycles, r.CleanKills, r.DirtyKills, r.Committed, r.Attempts, r.DurabilityLost,
		r.ReplayedCommits, r.TornTails, r.CertifiedCycles, r.AckedQueryReads,
		r.FinalTotal, r.InitialTotal, r.FinalImported, r.FinalExported)
}

// Err returns the first invariant violation, or nil.
func (r *CrashReport) Err() error {
	if len(r.violations) > 0 {
		return errors.New("crash soak: " + r.violations[0])
	}
	return nil
}

func (r *CrashReport) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// crashCounters is the workers' shared tally for one run.
type crashCounters struct {
	committed, attempts, lost atomic.Int64
}

// RunCrash executes the kill-and-restart soak. The returned error
// covers infrastructure failures; invariant verdicts live in
// Report.Err, mirroring Run.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Cycles <= 0 || cfg.Workers <= 0 || cfg.TxnsPerWorker <= 0 || cfg.Accounts < 2 {
		return nil, fmt.Errorf("soak: crash config needs ≥1 cycle/worker/txn and ≥2 accounts; got %+v", cfg)
	}
	fs := wal.NewMemFS()
	rng := rand.New(rand.NewSource(cfg.Seed))
	report := &CrashReport{InitialTotal: core.Value(cfg.Accounts) * cfg.InitialBalance}
	counts := &crashCounters{}
	reads := newReadLedger()
	clock := &tsgen.LogicalClock{}
	storeCfg := storage.Config{HistoryDepth: cfg.HistoryDepth}
	walOpts := wal.Options{SyncInterval: cfg.SyncInterval, SnapshotEvery: cfg.SnapshotEvery, Collector: &metrics.Collector{}, Logf: logf}

	// cleanCapture is the exact durable state a clean kill promised; nil
	// after a dirty kill, where only the prefix invariants hold.
	var cleanCapture *storage.StoreState
	var prevImported, prevExported core.Distance

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		store, l, info, err := wal.Recover(fs, storeCfg, walOpts)
		if err != nil {
			return report, fmt.Errorf("soak: cycle %d: recover: %w", cycle, err)
		}
		report.ReplayedCommits += info.Commits
		if info.TornTail {
			report.TornTails++
		}
		if cycle == 0 {
			for i := 1; i <= cfg.Accounts; i++ {
				if _, err := store.CreateWithLimits(core.ObjectID(i), cfg.InitialBalance, core.NoLimit, core.NoLimit); err != nil {
					return report, fmt.Errorf("soak: create account %d: %w", i, err)
				}
			}
		} else {
			checkRecovered(cfg, report, store, cycle, cleanCapture, prevImported, prevExported)
			reads.check(report, store, cycle)
		}
		prevImported, prevExported = store.CommittedInconsistency()

		// New timestamps must land after everything recovered, or the TO
		// engine would reject the first writes as late.
		maxTicks := int64(0)
		for _, os := range store.CaptureState().Objects {
			if t := os.WriteTS.Ticks(); t > maxTicks {
				maxTicks = t
			}
		}
		clock.Set(maxTicks + 1)

		var rec *history.Recorder
		var certify tso.Tracer
		if cfg.Certify {
			rec = history.NewRecorder()
			for _, ev := range recoveryEvents(store) {
				rec.Trace(ev)
			}
			certify = rec
		}
		reads.startCycle(certify)
		engineOpts := tso.Options{Collector: &metrics.Collector{}, Durability: l, Tracer: reads}
		engine := tso.NewEngine(store, engineOpts)
		dirty := cfg.DirtyEvery > 0 && (cycle+1)%cfg.DirtyEvery == 0

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(site int, seed int64) {
				defer wg.Done()
				crashWorker(cfg, engine, clock, site, seed, counts, reads, &stop)
			}(cycle*cfg.Workers+w+1, cfg.Seed+int64(cycle*1_000+w)*7919)
		}
		var killerDone chan struct{}
		if dirty {
			// Kill once roughly half the cycle's workload has committed:
			// mid-flight commits get ErrLogKilled acks, the tail of the
			// segment is torn randomly.
			target := counts.committed.Load() + int64(cfg.Workers*cfg.TxnsPerWorker/2)
			killerDone = make(chan struct{})
			go func() {
				defer close(killerDone)
				for counts.committed.Load() < target && !stop.Load() {
					time.Sleep(100 * time.Microsecond)
				}
				l.Kill()
				stop.Store(true)
			}()
		}
		wg.Wait()
		if killerDone != nil {
			// If the workers drained without ever reaching the kill
			// target (heavy abort cycles), the killer would keep spinning
			// on the cumulative commit counter and fire into a later
			// cycle; release it and join before reusing the counters.
			stop.Store(true)
			<-killerDone
		}
		if live := engine.Live(); live != 0 {
			report.violate("cycle %d: %d transactions still live after drain", cycle, live)
		}
		if rec != nil {
			if err := esrcheck.Check(rec.Events()).Err(); err != nil {
				report.violate("cycle %d: history refuted: %v", cycle, err)
			} else {
				report.CertifiedCycles++
			}
		}
		if dirty {
			l.Kill() // idempotent if the killer already fired
			fs.Crash(rng)
			cleanCapture = nil
			report.DirtyKills++
		} else {
			if err := l.Sync(); err != nil {
				return report, fmt.Errorf("soak: cycle %d: final sync: %w", cycle, err)
			}
			cleanCapture = store.CaptureState()
			l.Kill()
			fs.Crash(nil) // drop every unsynced byte: the barrier must suffice
			report.CleanKills++
		}
		report.Cycles++
	}

	// Final recovery: run every invariant once more, prove replay is
	// idempotent, and audit the surviving commit records against the
	// epsilon bounds the engine enforced.
	store, finalInfo, err := wal.Replay(fs, storeCfg)
	if err != nil {
		return report, fmt.Errorf("soak: final replay: %w", err)
	}
	checkRecovered(cfg, report, store, cfg.Cycles, cleanCapture, prevImported, prevExported)
	reads.check(report, store, cfg.Cycles)
	again, _, err := wal.Replay(fs, storeCfg)
	if err != nil {
		return report, fmt.Errorf("soak: final replay (2nd): %w", err)
	}
	if !reflect.DeepEqual(store.CaptureState(), again.CaptureState()) {
		report.violate("replaying the final log twice produced different states")
	}
	if finalInfo.TornTail {
		report.TornTails++
	}
	report.ReplayedCommits += finalInfo.Commits
	report.FinalTotal = store.TotalValue()
	report.FinalImported, report.FinalExported = store.CommittedInconsistency()
	report.Committed = counts.committed.Load()
	report.Attempts = counts.attempts.Load()
	report.DurabilityLost = counts.lost.Load()
	report.AckedQueryReads = reads.ackedReads

	_, err = wal.Scan(fs, func(rec wal.Record) error {
		if rec.Type != wal.RecordCommit {
			return nil
		}
		if cfg.TIL != core.NoLimit && rec.Commit.Imported > cfg.TIL {
			report.violate("txn %d imported %d > TIL %d", rec.Commit.Txn, rec.Commit.Imported, cfg.TIL)
		}
		if cfg.TEL != core.NoLimit && rec.Commit.Exported > cfg.TEL {
			report.violate("txn %d exported %d > TEL %d", rec.Commit.Txn, rec.Commit.Exported, cfg.TEL)
		}
		return nil
	})
	if err != nil && err != wal.ErrNoLog {
		return report, fmt.Errorf("soak: audit scan: %w", err)
	}
	return report, nil
}

// checkRecovered asserts the invariants every recovery must satisfy:
// money conserved, accumulated inconsistency a monotone prefix of what
// was live, bounded history depth restored, and — after a clean kill —
// the exact captured state.
func checkRecovered(cfg CrashConfig, report *CrashReport, store *storage.Store, cycle int, cleanCapture *storage.StoreState, prevImported, prevExported core.Distance) {
	if got := store.Len(); got != cfg.Accounts {
		report.violate("cycle %d: recovered %d accounts, want %d", cycle, got, cfg.Accounts)
	}
	want := core.Value(cfg.Accounts) * cfg.InitialBalance
	if got := store.TotalValue(); got != want {
		report.violate("cycle %d: conservation violated: total %d, want %d", cycle, got, want)
	}
	imp, exp := store.CommittedInconsistency()
	if imp < prevImported || exp < prevExported {
		report.violate("cycle %d: inconsistency went backwards: %d/%d -> %d/%d",
			cycle, prevImported, prevExported, imp, exp)
	}
	st := store.CaptureState()
	for _, os := range st.Objects {
		if len(os.History) < 1 || len(os.History) > cfg.HistoryDepth {
			report.violate("cycle %d: object %d history depth %d outside [1,%d]",
				cycle, os.ID, len(os.History), cfg.HistoryDepth)
		}
	}
	if cleanCapture != nil && !reflect.DeepEqual(cleanCapture, st) {
		report.violate("cycle %d: clean kill did not round-trip the captured state", cycle)
	}
}

// recoveryTxnID labels the synthetic initial transaction far above any
// id the engine assigns.
const recoveryTxnID = core.TxnID(1) << 62

// recoveryEvents renders the recovered store state as one committed
// synthetic transaction writing every surviving version, so the
// per-cycle oracle can resolve reads of pre-crash data instead of
// flagging them as reads of unknown versions. Versions with the None
// timestamp (initial loads) are omitted — the oracle already treats
// those as initial values.
func recoveryEvents(store *storage.Store) []tso.Event {
	st := store.CaptureState()
	var writes []tso.Event
	var maxTS tsgen.Timestamp
	for _, os := range st.Objects {
		for _, h := range os.History {
			if h.TS.IsNone() {
				continue
			}
			writes = append(writes, tso.Event{
				Kind: tso.EvWrite, Txn: recoveryTxnID, TxnKind: core.Update,
				TS: h.TS, Object: os.ID, Value: h.Value, Version: h.TS,
				Limit: core.NoLimit,
			})
			if h.TS.After(maxTS) {
				maxTS = h.TS
			}
		}
	}
	if len(writes) == 0 {
		return nil
	}
	evs := make([]tso.Event, 0, len(writes)+2)
	evs = append(evs, tso.Event{Kind: tso.EvBegin, Txn: recoveryTxnID,
		TxnKind: core.Update, TS: maxTS, Limit: core.NoLimit})
	evs = append(evs, writes...)
	evs = append(evs, tso.Event{Kind: tso.EvCommit, Txn: recoveryTxnID,
		TxnKind: core.Update, TS: maxTS, Limit: core.NoLimit})
	return evs
}

// readLedger records, from the engine's trace, the committed versions
// each query reads, and keeps for each object the newest version an
// acknowledged query read. Acknowledging a query promises that what it
// saw is durable, so every later recovery must hold that version or a
// newer one — the guarantee a read-only commit keeps by waiting for its
// read horizon instead of for a record of its own.
type readLedger struct {
	mu         sync.Mutex
	next       tso.Tracer // the cycle's certifying recorder, if any
	open       map[core.TxnID][]readVersion
	acked      map[core.ObjectID]tsgen.Timestamp
	ackedReads int64
}

type readVersion struct {
	obj     core.ObjectID
	version tsgen.Timestamp
}

func newReadLedger() *readLedger {
	return &readLedger{acked: make(map[core.ObjectID]tsgen.Timestamp)}
}

// startCycle forgets the reads of queries the last crash left unresolved
// and forwards the new cycle's events to next (nil for none).
func (r *readLedger) startCycle(next tso.Tracer) {
	r.mu.Lock()
	r.open = make(map[core.TxnID][]readVersion)
	r.next = next
	r.mu.Unlock()
}

// Trace implements tso.Tracer. Reads of uncommitted data are skipped: the
// version may never commit, and such a read makes the engine wait for
// everything appended instead.
func (r *readLedger) Trace(ev tso.Event) {
	r.mu.Lock()
	switch {
	case ev.Kind == tso.EvRead && ev.TxnKind == core.Query && !ev.DirtyRead:
		r.open[ev.Txn] = append(r.open[ev.Txn], readVersion{ev.Object, ev.Version})
	case ev.Kind == tso.EvAbort:
		delete(r.open, ev.Txn)
	}
	next := r.next
	r.mu.Unlock()
	if next != nil {
		next.Trace(ev)
	}
}

// acknowledged records that txn's commit returned without error.
func (r *readLedger) acknowledged(txn core.TxnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rv := range r.open[txn] {
		if rv.version.After(r.acked[rv.obj]) {
			r.acked[rv.obj] = rv.version
		}
		r.ackedReads++
	}
	delete(r.open, txn)
}

// check asserts that a recovered store still holds every version an
// acknowledged query read. Writes to an object are strictly increasing in
// timestamp and logged in that order, so a recovered write timestamp at
// least as new as the version means the version's record survived.
func (r *readLedger) check(report *CrashReport, store *storage.Store, cycle int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for obj, version := range r.acked {
		o, err := store.Get(obj)
		if err != nil {
			report.violate("cycle %d: an acknowledged query read object %d, which recovery lost", cycle, obj)
			continue
		}
		o.Lock()
		recovered := o.CommittedTS()
		o.Unlock()
		if recovered.Before(version) {
			report.violate("cycle %d: an acknowledged query read version %v of object %d, but recovery brought back only %v",
				cycle, version, obj, recovered)
		}
	}
}

// crashWorker drives transfers and audit queries directly against the
// engine, retrying aborts, until its quota is done or the log dies
// under it.
func crashWorker(cfg CrashConfig, engine *tso.Engine, clock tsgen.Clock, site int, seed int64, counts *crashCounters, reads *readLedger, stop *atomic.Bool) {
	rng := rand.New(rand.NewSource(seed))
	gen := tsgen.NewGenerator(site&tsgen.MaxSite, clock)
	for i := 0; i < cfg.TxnsPerWorker; i++ {
		if stop.Load() {
			return
		}
		var err error
		if rng.Float64() < cfg.QueryFraction {
			err = runCrashQuery(cfg, engine, gen, rng, counts, reads)
		} else {
			err = runCrashTransfer(cfg, engine, gen, rng, counts)
		}
		if err != nil {
			// The log died under us (kill): published in memory, durability
			// unknown. Stop generating.
			var de *tso.DurabilityError
			if errors.As(err, &de) {
				counts.lost.Add(1)
			}
			return
		}
	}
}

const maxCrashRetries = 100

// runCrashTransfer moves money between two accounts; zero-sum, so any
// replayed prefix conserves the total.
func runCrashTransfer(cfg CrashConfig, engine *tso.Engine, gen *tsgen.Generator, rng *rand.Rand, counts *crashCounters) error {
	from := core.ObjectID(1 + rng.Intn(cfg.Accounts))
	to := from
	for to == from {
		to = core.ObjectID(1 + rng.Intn(cfg.Accounts))
	}
	amount := core.Value(1 + rng.Intn(200))
	for attempt := 0; ; attempt++ {
		counts.attempts.Add(1)
		txn, err := engine.Begin(core.Update, gen.Next(), core.BoundSpec{Transaction: cfg.TEL})
		if err != nil {
			return err
		}
		if _, err = engine.WriteDelta(txn, from, -amount); err == nil {
			_, err = engine.WriteDelta(txn, to, amount)
		}
		if err == nil {
			err = engine.Commit(txn)
		}
		if err == nil {
			counts.committed.Add(1)
			return nil
		}
		if _, isAbort := tso.IsAbort(err); isAbort && attempt < maxCrashRetries {
			continue // aborted and cleaned up; retry with a fresh timestamp
		}
		return err
	}
}

// runCrashQuery audits a random clutch of accounts under TIL.
func runCrashQuery(cfg CrashConfig, engine *tso.Engine, gen *tsgen.Generator, rng *rand.Rand, counts *crashCounters, reads *readLedger) error {
	n := 3 + rng.Intn(5)
	for attempt := 0; ; attempt++ {
		counts.attempts.Add(1)
		txn, err := engine.Begin(core.Query, gen.Next(), core.BoundSpec{Transaction: cfg.TIL})
		if err != nil {
			return err
		}
		for i := 0; i < n && err == nil; i++ {
			_, err = engine.Read(txn, core.ObjectID(1+rng.Intn(cfg.Accounts)))
		}
		if err == nil {
			err = engine.Commit(txn)
		}
		if err == nil {
			reads.acknowledged(txn)
			counts.committed.Add(1)
			return nil
		}
		if _, isAbort := tso.IsAbort(err); isAbort && attempt < maxCrashRetries {
			continue
		}
		return err
	}
}
