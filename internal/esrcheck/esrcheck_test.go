package esrcheck

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
)

func ts(n int64) tsgen.Timestamp { return tsgen.Make(n, 0) }

// Terse event builders for hand-written histories. Transactions are
// queries unless built with the u* variants.
func begin(txn core.TxnID, at int64, til core.Distance) tso.Event {
	return tso.Event{Kind: tso.EvBegin, Txn: txn, TxnKind: core.Query, TS: ts(at), Limit: til}
}
func ubegin(txn core.TxnID, at int64, tel core.Distance) tso.Event {
	return tso.Event{Kind: tso.EvBegin, Txn: txn, TxnKind: core.Update, TS: ts(at), Limit: tel}
}
func commit(txn core.TxnID, at int64, inc, lim core.Distance) tso.Event {
	return tso.Event{Kind: tso.EvCommit, Txn: txn, TxnKind: core.Query, TS: ts(at), Inconsistency: inc, Limit: lim}
}
func ucommit(txn core.TxnID, at int64, inc, lim core.Distance) tso.Event {
	return tso.Event{Kind: tso.EvCommit, Txn: txn, TxnKind: core.Update, TS: ts(at), Inconsistency: inc, Limit: lim}
}
func abort(txn core.TxnID, at int64) tso.Event {
	return tso.Event{Kind: tso.EvAbort, Txn: txn, TxnKind: core.Update, TS: ts(at)}
}
func uwrite(txn core.TxnID, at int64, obj core.ObjectID, v core.Value, inc, oel core.Distance) tso.Event {
	return tso.Event{Kind: tso.EvWrite, Txn: txn, TxnKind: core.Update, TS: ts(at),
		Object: obj, Value: v, Version: ts(at), Inconsistency: inc, Limit: oel}
}
func qread(txn core.TxnID, at int64, obj core.ObjectID, version int64, v core.Value, inc, oil core.Distance, dirty bool) tso.Event {
	vts := tsgen.None
	if version >= 0 {
		vts = ts(version)
	}
	return tso.Event{Kind: tso.EvRead, Txn: txn, TxnKind: core.Query, TS: ts(at),
		Object: obj, Value: v, Version: vts, Inconsistency: inc, Limit: oil, DirtyRead: dirty}
}
func uread(txn core.TxnID, at int64, obj core.ObjectID, version int64, v core.Value) tso.Event {
	vts := tsgen.None
	if version >= 0 {
		vts = ts(version)
	}
	return tso.Event{Kind: tso.EvRead, Txn: txn, TxnKind: core.Update, TS: ts(at),
		Object: obj, Value: v, Version: vts}
}

func wantViolation(t *testing.T, rep *Report, code string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Code == code {
			return
		}
	}
	t.Fatalf("no %q violation in %+v", code, rep.Violations)
}

func TestCertifiesSerialZeroEpsilonHistory(t *testing.T) {
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), uwrite(1, 10, 2, 200, 0, 0), ucommit(1, 10, 0, 0),
		begin(2, 20, 0), qread(2, 20, 1, 10, 100, 0, 0, false), qread(2, 20, 2, 10, 200, 0, 0, false), commit(2, 20, 0, 0),
		ubegin(3, 30, 0), uwrite(3, 30, 1, 150, 0, 0), ucommit(3, 30, 0, 0),
	}
	rep := Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("serial history refuted: %v", err)
	}
	if rep.Txns != 3 || rep.RelaxedReads != 0 || rep.MaxDistance != 0 {
		t.Errorf("report = %+v", rep)
	}
	want := []core.TxnID{1, 2, 3}
	if len(rep.Witness) != 3 {
		t.Fatalf("witness = %v", rep.Witness)
	}
	for i, id := range want {
		if rep.Witness[i] != id {
			t.Errorf("witness = %v, want %v", rep.Witness, want)
		}
	}
	if err := CheckSerializable(events); err != nil {
		t.Errorf("strict mode flagged a serial history: %v", err)
	}
}

func TestAbortedTransactionsExcluded(t *testing.T) {
	// Update 2 writes x and y and aborts; query 1 read the initial x
	// before and the initial y after. Counting the aborted writer's ops
	// would manufacture a 1 → 2 → 1 cycle.
	events := []tso.Event{
		begin(1, 10, 0), qread(1, 10, 1, -1, 0, 0, 0, false),
		ubegin(2, 20, 0), uwrite(2, 20, 1, 5, 0, 0), uwrite(2, 20, 2, 6, 0, 0), abort(2, 20),
		qread(1, 10, 2, -1, 0, 0, 0, false), commit(1, 10, 0, 0),
	}
	if err := Check(events).Err(); err != nil {
		t.Errorf("aborted txn constrained the oracle: %v", err)
	}
	if err := CheckSerializable(events); err != nil {
		t.Errorf("aborted txn created conflicts: %v", err)
	}
}

func TestZeroEpsilonRelaxedReadRefuted(t *testing.T) {
	// Query 2 (TIL 0) reads the initial version of object 1 after txn 1's
	// write at ts 10 committed: a late read no zero-epsilon run may take.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		begin(2, 20, 0), qread(2, 20, 1, -1, 42, 0, 0, false), commit(2, 20, 0, 0),
	}
	rep := Check(events)
	wantViolation(t, rep, "zero-epsilon-relaxed")
}

func TestBoundedLateReadCertified(t *testing.T) {
	// ESR case 1: query 2 (ts 15) views txn 3's later committed value on
	// object 1 (version 20, value 130) instead of its proper version 10
	// (value 100): divergence 30, within OIL 50 and TIL 50.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, 130, 0, 0), ucommit(3, 20, 0, 0),
		begin(2, 15, 50), qread(2, 15, 1, 20, 130, 30, 50, false), commit(2, 15, 30, 50),
	}
	rep := Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("bounded history refuted: %v", err)
	}
	if rep.RelaxedReads != 1 || rep.MaxDistance != 30 || rep.TotalImported != 30 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRecomputedDivergenceOverObjectImportLimit(t *testing.T) {
	// Same shape, but the true divergence (30) exceeds the OIL the read
	// was admitted under (10) — the engine undercharged.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, 130, 0, 0), ucommit(3, 20, 0, 0),
		begin(2, 15, 50), qread(2, 15, 1, 20, 130, 5, 10, false), commit(2, 15, 5, 50),
	}
	rep := Check(events)
	wantViolation(t, rep, "object-import")
}

func TestWrappedDivergenceRefuted(t *testing.T) {
	// The true divergence between MinInt64 and MaxInt64 overflows int64;
	// a read charged the wrapped difference 1 is an under-charge.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, math.MaxInt64, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, math.MinInt64, 0, 0), ucommit(3, 20, 0, 0),
		begin(2, 15, 50), qread(2, 15, 1, 20, math.MinInt64, 1, 50, false), commit(2, 15, 1, 50),
	}
	rep := Check(events)
	wantViolation(t, rep, "object-import")
	if rep.MaxDistance != core.NoLimit {
		t.Errorf("max distance = %d, want NoLimit", rep.MaxDistance)
	}
}

func TestAccountingMismatchRefuted(t *testing.T) {
	// The commit event claims total 10 but the single read charged 30.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, 130, 0, 0), ucommit(3, 20, 0, 0),
		begin(2, 15, 50), qread(2, 15, 1, 20, 130, 30, 50, false), commit(2, 15, 10, 50),
	}
	rep := Check(events)
	wantViolation(t, rep, "accounting")
}

func TestTransactionLimitExceeded(t *testing.T) {
	// Committed total 30 over a declared TIL of 20.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, 130, 0, 0), ucommit(3, 20, 0, 0),
		begin(2, 15, 20), qread(2, 15, 1, 20, 130, 30, 50, false), commit(2, 15, 30, 20),
	}
	rep := Check(events)
	wantViolation(t, rep, "txn-limit")
}

func TestDirtyReadOfAbortedWriterMeteredNotRefuted(t *testing.T) {
	// ESR case 2 where the dirty source later aborts (§5.1): allowed and
	// metered under a nonzero bound, an error under strict SR.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, core.NoLimit), uwrite(3, 20, 1, 130, 0, core.NoLimit),
		begin(2, 25, 50), qread(2, 25, 1, 20, 130, 30, 50, true), commit(2, 25, 30, 50),
		abort(3, 20),
	}
	rep := Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("metered dirty read refuted: %v", err)
	}
	if rep.DirtyReads != 1 || rep.MaxDistance != 30 {
		t.Errorf("report = %+v", rep)
	}
	if err := CheckSerializable(events); err == nil || !strings.Contains(err.Error(), "never committed") {
		t.Errorf("strict mode error = %v, want never-committed", err)
	}
}

func TestUnknownVersionWithoutDirtyFlagRefuted(t *testing.T) {
	// A read claiming a committed version that never committed and not
	// flagged dirty is trace corruption, not an epsilon.
	events := []tso.Event{
		begin(2, 25, 50), qread(2, 25, 1, 20, 130, 0, 50, false), commit(2, 25, 0, 50),
	}
	rep := Check(events)
	wantViolation(t, rep, "unknown-version")
}

func TestNonSerializableInterleavingRefuted(t *testing.T) {
	// The classic anomaly: query 1 read x before zero-epsilon update 2
	// wrote it and y after. Retrospectively the x-read is relaxed (the
	// write committed under it), so the oracle refutes it through the
	// writer's zero export limit rather than a graph cycle — all hard
	// edges in a timestamp-ordered trace point forward in timestamp.
	events := []tso.Event{
		begin(1, 30, 0),
		qread(1, 30, 1, -1, 0, 0, 0, false),
		ubegin(2, 20, 0), uwrite(2, 20, 1, 5, 0, 0), uwrite(2, 20, 2, 6, 0, 0), ucommit(2, 20, 0, 0),
		qread(1, 30, 2, 20, 6, 0, 0, false),
		commit(1, 30, 0, 0),
	}
	rep := Check(events)
	wantViolation(t, rep, "zero-epsilon-relaxed")
	// The strict checker sees the same history as a conflict cycle.
	if err := CheckSerializable(events); err == nil || !strings.Contains(err.Error(), "conflict cycle") {
		t.Errorf("strict mode error = %v, want conflict cycle", err)
	}
}

func TestCaseThreeLateWriteCheckedAgainstExportLimit(t *testing.T) {
	// ESR case 3: query 2 (ts 30) read object 1's version 10 properly,
	// then update 3 (ts 20) wrote under it and committed. The query's
	// read is retrospectively relaxed; the divergence was charged to the
	// writer's export, bounded by the OEL on its write event.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		begin(2, 30, 50), qread(2, 30, 1, 10, 100, 0, 50, false),
		ubegin(3, 20, 50), uwrite(3, 20, 1, 130, 30, 40), ucommit(3, 20, 30, 50),
		commit(2, 30, 0, 50),
	}
	rep := Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("bounded case-3 history refuted: %v", err)
	}
	if rep.RelaxedReads != 1 || rep.MaxDistance != 30 || rep.TotalExported != 30 {
		t.Errorf("report = %+v", rep)
	}

	// Same history with the divergence over the writer's OEL.
	over := make([]tso.Event, len(events))
	copy(over, events)
	over[6].Value = 200         // update 3's write
	over[6].Inconsistency = 100 // charged export
	over[7].Inconsistency = 100 // its commit total
	rep = Check(over)
	wantViolation(t, rep, "object-export")
}

func TestUpdateRelaxedReadRefuted(t *testing.T) {
	// An update ET viewing a non-proper version is always a violation:
	// its writes depend on its reads (§3.2.1), no bound excuses it.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, 130, 0, 0), ucommit(3, 20, 0, 0),
		ubegin(2, 15, core.NoLimit), uread(2, 15, 1, 20, 130), ucommit(2, 15, 0, core.NoLimit),
	}
	rep := Check(events)
	wantViolation(t, rep, "update-relaxed")
}

func TestOwnWriteReadUnconstrained(t *testing.T) {
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), uread(1, 10, 1, 10, 100), ucommit(1, 10, 0, 0),
	}
	rep := Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("own-write read refuted: %v", err)
	}
}

// rread is a replica-served query read: like qread but flagged Replica.
func rread(txn core.TxnID, at int64, obj core.ObjectID, version int64, v core.Value, inc, oil core.Distance) tso.Event {
	ev := qread(txn, at, obj, version, v, inc, oil, false)
	ev.Replica = true
	return ev
}

func TestReplicaLagReadCertified(t *testing.T) {
	// A follower lagging one commit serves query 2 (ts 25) the old version
	// of object 1 (version 10, value 100) while the proper version is 20
	// (value 130). The lag distance 30 was charged against OIL 50, TIL 50.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, 130, 0, 0), ucommit(3, 20, 0, 0),
		begin(2, 25, 50), rread(2, 25, 1, 10, 100, 30, 50), commit(2, 25, 30, 50),
	}
	rep := Check(events)
	if err := rep.Err(); err != nil {
		t.Fatalf("bounded replica read refuted: %v", err)
	}
	if rep.RelaxedReads != 1 || rep.MaxDistance != 30 || rep.TotalImported != 30 {
		t.Errorf("report = %+v", rep)
	}
}

func TestZeroEpsilonReplicaReadRefuted(t *testing.T) {
	// The replica happened to be caught up — the read observed the proper
	// version with zero charge — but a TIL-0 query must never be routed to
	// a follower at all, so the policy check still refutes it.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		begin(2, 20, 0), rread(2, 20, 1, 10, 100, 0, 0), commit(2, 20, 0, 0),
	}
	rep := Check(events)
	wantViolation(t, rep, "zero-epsilon-replica")
}

func TestReplicaUnchargedStaleReadReaderCharged(t *testing.T) {
	// The follower had not even received txn 3's write, so it charged
	// nothing — yet the true divergence (30) exceeds the OIL (10). The
	// replica flag must force the reader-charged branch: this is an
	// object-import violation, never a case-3 object-export, because no
	// primary writer paid for the follower's lag.
	events := []tso.Event{
		ubegin(1, 10, 0), uwrite(1, 10, 1, 100, 0, 0), ucommit(1, 10, 0, 0),
		ubegin(3, 20, 0), uwrite(3, 20, 1, 130, 0, 25), ucommit(3, 20, 0, 0),
		begin(2, 25, 50), rread(2, 25, 1, 10, 100, 0, 10), commit(2, 25, 0, 50),
	}
	rep := Check(events)
	wantViolation(t, rep, "object-import")
	for _, v := range rep.Violations {
		if v.Code == "object-export" {
			t.Fatalf("replica lag misattributed to a primary writer: %+v", rep.Violations)
		}
	}
}

func TestReadTraceRoundTrip(t *testing.T) {
	events := []tso.Event{
		begin(1, 10, core.NoLimit),
		qread(1, 10, 7, -1, -25, 0, core.NoLimit, false),
		{Kind: tso.EvRead, Txn: 1, TxnKind: core.Query, TS: ts(10), Object: 8,
			Value: 5, Version: ts(4), Inconsistency: 3, Limit: 50, DirtyRead: true},
		rread(1, 10, 9, 4, 7, 2, 50),
		commit(1, 10, 3, core.NoLimit),
	}
	var buf bytes.Buffer
	buf.Write(tso.AppendTraceHeaderJSON(nil))
	buf.WriteByte('\n')
	for _, ev := range events {
		buf.Write(tso.AppendEventJSON(nil, ev))
		buf.WriteByte('\n')
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema != "esr-trace/2" || tr.TornTail {
		t.Errorf("trace = %+v", tr)
	}
	if len(tr.Events) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(tr.Events), len(events))
	}
	for i, want := range events {
		got := tr.Events[i]
		if got != want {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
	// NoLimit must survive exactly — float64 decoding would corrupt it.
	if tr.Events[0].Limit != core.NoLimit {
		t.Errorf("NoLimit decoded as %d", tr.Events[0].Limit)
	}
}

func TestReadTraceTornTailTolerated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(tso.AppendTraceHeaderJSON(nil))
	buf.WriteByte('\n')
	buf.Write(tso.AppendEventJSON(nil, begin(1, 10, 0)))
	buf.WriteByte('\n')
	full := tso.AppendEventJSON(nil, commit(1, 10, 0, 0))
	buf.Write(full[:len(full)/2]) // sheared mid-record by a crash
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.TornTail || len(tr.Events) != 1 {
		t.Errorf("trace = %+v", tr)
	}
}

func TestReadTraceMidStreamCorruptionRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("{\"ev\":garbage\n")
	buf.Write(tso.AppendEventJSON(nil, begin(1, 10, 0)))
	buf.WriteByte('\n')
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
}

func TestReadTraceUnsupportedSchemaRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("{\"schema\":\"other-trace/9\"}\n")
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("foreign schema accepted")
	}
}
