package tso

import (
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
)

// TraceSchemaVersion is the version of the on-disk JSONL trace schema.
// Version 1 adds a header line (`{"schema":"esr-trace/1",...}`) and the
// per-event "lim" field carrying the applicable inconsistency limit —
// the transaction's root bound on begin/commit events, the object's
// OIL/OEL on read/write events — so an offline checker (internal/
// esrcheck, cmd/esr-check) can certify a trace against the bounds
// without access to the live store. Version 2 adds the "replica" flag
// on read events: the read was served by a bounded-stale follower and
// its "inc" is the replication-lag distance charged against the TIL.
// The schema is append-only: new versions may add fields but never
// change the meaning of existing ones, so a version-1 reader that
// ignores unknown fields still decodes version-2 traces.
const TraceSchemaVersion = 2

// TraceSchemaName is the schema identifier written in the header line.
const TraceSchemaName = "esr-trace"

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvBegin is emitted when a transaction attempt starts.
	EvBegin EventKind = iota
	// EvRead is emitted after a successful read.
	EvRead
	// EvWrite is emitted after a successful (pending) write.
	EvWrite
	// EvCommit is emitted when an attempt commits.
	EvCommit
	// EvAbort is emitted when an attempt aborts.
	EvAbort
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	default:
		return "event"
	}
}

// ParseEventKind is the inverse of String, for trace decoders. The
// second result reports whether the name was recognized.
func ParseEventKind(s string) (EventKind, bool) {
	switch s {
	case "begin":
		return EvBegin, true
	case "read":
		return EvRead, true
	case "write":
		return EvWrite, true
	case "commit":
		return EvCommit, true
	case "abort":
		return EvAbort, true
	default:
		return 0, false
	}
}

// Event is one step of an execution history, emitted by the engine when a
// Tracer is installed. The oracle in internal/esrcheck judges event
// streams: it verifies that epsilon executions stay within their bounds
// and that zero-epsilon executions are conflict serializable.
type Event struct {
	Kind    EventKind
	Txn     core.TxnID
	TxnKind core.Kind
	// At is the event time on the engine's timeline (Options.Now):
	// elapsed wall time by default, virtual time under the vclock
	// harness. Stamped by the engine when the event is emitted.
	At time.Duration
	// TS is the attempt's timestamp.
	TS tsgen.Timestamp
	// Object, for reads and writes.
	Object core.ObjectID
	// Value is the value read or written.
	Value core.Value
	// Version identifies the object version involved: for reads, the
	// timestamp of the write that produced the value read; for writes,
	// the attempt's own timestamp. Committed versions of one object have
	// strictly increasing timestamps under timestamp ordering, so the
	// version timestamp doubles as the version order.
	Version tsgen.Timestamp
	// Inconsistency is the distance charged for the operation (zero for
	// consistent operations). On commit events it carries the attempt's
	// final accumulated inconsistency (imported for queries, exported for
	// updates), so a checker can cross-check the per-op charges against
	// the committed total.
	Inconsistency core.Distance
	// Limit is the inconsistency bound that applied: the transaction's
	// root limit (TIL or TEL) on begin and commit events, the object's
	// import limit (OIL) on reads, and its export limit (OEL) on writes.
	Limit core.Distance
	// DirtyRead marks a read of uncommitted data (ESR case 2).
	DirtyRead bool
	// Replica marks a read served by a bounded-stale follower; its
	// Inconsistency is the replication-lag distance charged against the
	// transaction's import limit.
	Replica bool
}

// Tracer observes engine events. Read/write events are emitted while the
// object's lock is held, so per-object event order matches execution
// order; implementations must therefore be fast and must not call back
// into the engine.
type Tracer interface {
	Trace(Event)
}
