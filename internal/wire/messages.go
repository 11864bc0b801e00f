package wire

import (
	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/metrics"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// Begin opens a transaction attempt. It carries the paper's BEGIN block:
// the transaction kind, the client-generated timestamp, the transaction
// limit (TIL or TEL) and the optional hierarchical LIMIT statements and
// per-object overrides (§3.1).
type Begin struct {
	Kind      core.Kind
	Timestamp tsgen.Timestamp
	Spec      core.BoundSpec
}

// MsgType implements Message.
func (*Begin) MsgType() MsgType { return MsgBegin }

func (m *Begin) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, uint8(m.Kind))
	dst = appendU64(dst, uint64(m.Timestamp))
	dst = appendI64(dst, m.Spec.Transaction)
	dst = appendU16(dst, uint16(len(m.Spec.Groups)))
	for name, limit := range m.Spec.Groups {
		dst = appendStr(dst, name)
		dst = appendI64(dst, limit)
	}
	dst = appendU16(dst, uint16(len(m.Spec.Objects)))
	for obj, limit := range m.Spec.Objects {
		dst = appendU32(dst, uint32(obj))
		dst = appendI64(dst, limit)
	}
	return dst
}

func (m *Begin) decodePayload(r *reader) {
	m.Kind = core.Kind(r.u8("kind"))
	m.Timestamp = tsgen.Timestamp(r.u64("timestamp"))
	m.Spec.Transaction = r.i64("transaction limit")
	nGroups := int(r.u16("group count"))
	if nGroups > 0 {
		m.Spec.Groups = make(map[string]core.Distance, nGroups)
		for i := 0; i < nGroups && r.err == nil; i++ {
			name := r.str("group name")
			m.Spec.Groups[name] = r.i64("group limit")
		}
	}
	nObjects := int(r.u16("object count"))
	if nObjects > 0 {
		m.Spec.Objects = make(map[core.ObjectID]core.Distance, nObjects)
		for i := 0; i < nObjects && r.err == nil; i++ {
			obj := core.ObjectID(r.u32("object id"))
			m.Spec.Objects[obj] = r.i64("object limit")
		}
	}
}

// Read asks for the value of one object.
type Read struct {
	Txn    core.TxnID
	Object core.ObjectID
}

// MsgType implements Message.
func (*Read) MsgType() MsgType { return MsgRead }

func (m *Read) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, uint64(m.Txn))
	return appendU32(dst, uint32(m.Object))
}

func (m *Read) decodePayload(r *reader) {
	m.Txn = core.TxnID(r.u64("txn"))
	m.Object = core.ObjectID(r.u32("object"))
}

// Write installs a new value (absolute or current+delta).
type Write struct {
	Txn    core.TxnID
	Object core.ObjectID
	// Delta selects increment mode: the server writes current+Value.
	Delta bool
	Value core.Value
}

// MsgType implements Message.
func (*Write) MsgType() MsgType { return MsgWrite }

func (m *Write) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, uint64(m.Txn))
	dst = appendU32(dst, uint32(m.Object))
	mode := uint8(0)
	if m.Delta {
		mode = 1
	}
	dst = appendU8(dst, mode)
	return appendI64(dst, m.Value)
}

func (m *Write) decodePayload(r *reader) {
	m.Txn = core.TxnID(r.u64("txn"))
	m.Object = core.ObjectID(r.u32("object"))
	m.Delta = r.u8("mode") != 0
	m.Value = r.i64("value")
}

// Commit finishes an attempt successfully.
type Commit struct{ Txn core.TxnID }

// MsgType implements Message.
func (*Commit) MsgType() MsgType { return MsgCommit }

func (m *Commit) appendPayload(dst []byte) []byte { return appendU64(dst, uint64(m.Txn)) }
func (m *Commit) decodePayload(r *reader)         { m.Txn = core.TxnID(r.u64("txn")) }

// Abort abandons an attempt at the client's request.
type Abort struct{ Txn core.TxnID }

// MsgType implements Message.
func (*Abort) MsgType() MsgType { return MsgAbort }

func (m *Abort) appendPayload(dst []byte) []byte { return appendU64(dst, uint64(m.Txn)) }
func (m *Abort) decodePayload(r *reader)         { m.Txn = core.TxnID(r.u64("txn")) }

// Sync is the clock-synchronization probe: the client sends its local
// ticks, the server responds with its own, and the client derives the
// correction factor for virtually synchronized timestamps (§6).
type Sync struct{ ClientTicks int64 }

// MsgType implements Message.
func (*Sync) MsgType() MsgType { return MsgSync }

func (m *Sync) appendPayload(dst []byte) []byte { return appendI64(dst, m.ClientTicks) }
func (m *Sync) decodePayload(r *reader)         { m.ClientTicks = r.i64("client ticks") }

// Stats requests the server's performance counters.
type Stats struct{}

// MsgType implements Message.
func (*Stats) MsgType() MsgType { return MsgStats }

func (m *Stats) appendPayload(dst []byte) []byte { return dst }
func (m *Stats) decodePayload(*reader)           {}

// BeginOK acknowledges Begin with the attempt id.
type BeginOK struct{ Txn core.TxnID }

// MsgType implements Message.
func (*BeginOK) MsgType() MsgType { return MsgBeginOK }

func (m *BeginOK) appendPayload(dst []byte) []byte { return appendU64(dst, uint64(m.Txn)) }
func (m *BeginOK) decodePayload(r *reader)         { m.Txn = core.TxnID(r.u64("txn")) }

// Value answers Read and Write with the value read or actually written.
type Value struct{ Value core.Value }

// MsgType implements Message.
func (*Value) MsgType() MsgType { return MsgValue }

func (m *Value) appendPayload(dst []byte) []byte { return appendI64(dst, m.Value) }
func (m *Value) decodePayload(r *reader)         { m.Value = r.i64("value") }

// OK acknowledges Commit and Abort.
type OK struct{}

// MsgType implements Message.
func (*OK) MsgType() MsgType { return MsgOK }

func (m *OK) appendPayload(dst []byte) []byte { return dst }
func (m *OK) decodePayload(*reader)           {}

// SyncOK answers Sync with the server clock reading.
type SyncOK struct{ ServerTicks int64 }

// MsgType implements Message.
func (*SyncOK) MsgType() MsgType { return MsgSyncOK }

func (m *SyncOK) appendPayload(dst []byte) []byte { return appendI64(dst, m.ServerTicks) }
func (m *SyncOK) decodePayload(r *reader)         { m.ServerTicks = r.i64("server ticks") }

// StatsOK carries the server's counters, the live-transaction gauge, and
// the per-path latency histograms (sparse-encoded: only nonzero buckets
// travel, so an idle server's stats frame stays tiny).
type StatsOK struct {
	Snapshot     metrics.Snapshot
	ProperMisses int64
	// Live is the number of transactions currently open in the engine.
	Live int64
	// Latencies holds one histogram per engine path (read, write,
	// commit, wait), from which clients derive percentiles.
	Latencies metrics.LatencySet
}

// MsgType implements Message.
func (*StatsOK) MsgType() MsgType { return MsgStatsOK }

func (m *StatsOK) appendPayload(dst []byte) []byte {
	s := &m.Snapshot
	for _, v := range []int64{
		s.Begins, s.Commits,
		s.AbortLateRead, s.AbortLateWrite, s.AbortImportLimit, s.AbortExportLimit,
		s.AbortWaitTimeout, s.AbortMissingObject, s.AbortExplicit, s.AbortOther,
		s.ReadsExecuted, s.WritesExecuted, s.InconsistentReads, s.InconsistentWrites,
		s.WastedOps, s.Waits, s.DirtySourceAborted, m.ProperMisses, m.Live,
	} {
		dst = appendI64(dst, v)
	}
	dst = appendU8(dst, uint8(len(m.Latencies)))
	for i := range m.Latencies {
		dst = appendHistogram(dst, &m.Latencies[i])
	}
	return dst
}

func (m *StatsOK) decodePayload(r *reader) {
	s := &m.Snapshot
	for _, p := range []*int64{
		&s.Begins, &s.Commits,
		&s.AbortLateRead, &s.AbortLateWrite, &s.AbortImportLimit, &s.AbortExportLimit,
		&s.AbortWaitTimeout, &s.AbortMissingObject, &s.AbortExplicit, &s.AbortOther,
		&s.ReadsExecuted, &s.WritesExecuted, &s.InconsistentReads, &s.InconsistentWrites,
		&s.WastedOps, &s.Waits, &s.DirtySourceAborted, &m.ProperMisses, &m.Live,
	} {
		*p = r.i64("counter")
	}
	n := int(r.u8("histogram count"))
	for i := 0; i < n && r.err == nil; i++ {
		var h metrics.HistogramSnapshot
		decodeHistogram(r, &h)
		if i < len(m.Latencies) {
			m.Latencies[i] = h
		}
	}
}

// appendHistogram sparse-encodes a histogram snapshot: sum, then the
// number of nonzero buckets followed by (index, count) pairs. The total
// count is reconstructed from the buckets on decode.
func appendHistogram(dst []byte, h *metrics.HistogramSnapshot) []byte {
	dst = appendI64(dst, h.Sum)
	nonZero := 0
	for _, c := range h.Counts {
		if c != 0 {
			nonZero++
		}
	}
	dst = appendU16(dst, uint16(nonZero))
	for i, c := range h.Counts {
		if c != 0 {
			dst = appendU16(dst, uint16(i))
			dst = appendI64(dst, c)
		}
	}
	return dst
}

func decodeHistogram(r *reader, h *metrics.HistogramSnapshot) {
	h.Sum = r.i64("histogram sum")
	n := int(r.u16("histogram bucket count"))
	for i := 0; i < n && r.err == nil; i++ {
		idx := int(r.u16("bucket index"))
		c := r.i64("bucket count")
		if idx < len(h.Counts) {
			h.Counts[idx] = c
			h.Count += c
		}
	}
}

// ErrCode classifies Error responses.
type ErrCode uint8

const (
	// CodeGeneric is a non-abort failure (protocol misuse, unknown txn).
	CodeGeneric ErrCode = iota
	// CodeAbort reports an engine abort; Reason carries the cause and
	// the client retries with a fresh timestamp.
	CodeAbort
	// CodeRedirect reports that a replica cannot serve the request
	// (update transaction, TIL=0 query, or replica-only protocol rule);
	// the client should retry the same request against the primary.
	CodeRedirect
)

// Error is the failure response.
type Error struct {
	Code    ErrCode
	Reason  metrics.AbortReason
	Message string
}

// MsgType implements Message.
func (*Error) MsgType() MsgType { return MsgError }

func (m *Error) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, uint8(m.Code))
	dst = appendU8(dst, uint8(m.Reason))
	return appendStr(dst, m.Message)
}

func (m *Error) decodePayload(r *reader) {
	m.Code = ErrCode(r.u8("code"))
	m.Reason = metrics.AbortReason(r.u8("reason"))
	m.Message = r.str("message")
}

// Error implements the error interface so responses can flow as Go
// errors on the client side.
func (m *Error) Error() string {
	if m.Code == CodeAbort {
		return "server abort (" + m.Reason.String() + "): " + m.Message
	}
	return "server error: " + m.Message
}
