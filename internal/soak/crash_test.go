package soak

import "testing"

// TestCrashSoakDefault runs the default kill-and-restart schedule:
// clean and dirty kills alternating, conservation and epsilon-bound
// invariants checked at every recovery.
func TestCrashSoakDefault(t *testing.T) {
	cfg := DefaultCrashConfig()
	cfg.Logf = t.Logf
	report, err := RunCrash(cfg)
	if report != nil {
		t.Log(report)
	}
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	if report.Committed == 0 {
		t.Fatal("no commits acked — the workload never ran")
	}
	if report.CleanKills == 0 || report.DirtyKills == 0 {
		t.Fatalf("schedule did not mix kills: %d clean, %d dirty", report.CleanKills, report.DirtyKills)
	}
	if report.AckedQueryReads == 0 {
		t.Fatal("no acknowledged query reads: the survival check of what queries saw never ran")
	}
}

// TestCrashSoakAllDirty hammers the torn-tail path: every cycle is a
// mid-flight kill with a random crash point, across several seeds.
func TestCrashSoakAllDirty(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak sweep skipped in -short")
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultCrashConfig()
		cfg.Seed = seed
		cfg.DirtyEvery = 1
		cfg.Cycles = 4
		cfg.SnapshotEvery = 24
		report, err := RunCrash(cfg)
		if err != nil {
			t.Fatalf("seed %d: RunCrash: %v", seed, err)
		}
		if err := report.Err(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, report)
		}
	}
}

// TestCrashSoakPerAppendFsync runs the per-transaction fsync baseline
// (negative interval) through crashes: every acked commit is durable on
// its own fsync, so dirty kills can only lose unacked tails.
func TestCrashSoakPerAppendFsync(t *testing.T) {
	cfg := DefaultCrashConfig()
	cfg.SyncInterval = -1
	cfg.Cycles = 4
	cfg.TxnsPerWorker = 15
	report, err := RunCrash(cfg)
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
}
