// Package core defines the epsilon-serializability (ESR) model of the
// system: epsilon transactions and their kinds, inconsistency limits,
// the hierarchical inconsistency-bounds tree with its bottom-up control
// discipline, and the aggregate-query inconsistency tracking of §5.3.2.
//
// The package is the paper's primary contribution in code form. The
// concurrency-control engine (internal/tso) consults this package to
// decide whether an operation that would be rejected under classic
// serializability may proceed under ESR, and the client-visible
// transaction language (internal/txnlang) compiles down to the Program
// type defined here.
//
// Terminology follows Kamath & Ramamritham 1993:
//
//	TIL — transaction import limit, bound on inconsistency a query views.
//	TEL — transaction export limit, bound on inconsistency an update emits.
//	OIL — object import limit, per-object bound on a single read.
//	OEL — object export limit, per-object bound on a single write.
//	GIL — group inconsistency limit, bound on a subtree of the hierarchy.
package core

import (
	"fmt"
	"math"
)

// ObjectID names a database object. The prototype's objects are numbered
// (the paper's examples read objects such as 1863 or com2745 mapped to
// numeric ids).
type ObjectID uint32

// Value is the state of a single object. The prototype stores integer
// amounts (balances, seat counts); a 64-bit integer keeps distance
// arithmetic exact.
type Value = int64

// Distance is a magnitude of inconsistency between two states. It is
// never negative.
type Distance = int64

// NoLimit is the sentinel for an unbounded inconsistency limit. Setting
// every limit to NoLimit admits any epsilon behaviour; setting every
// limit to zero reduces ESR to classic serializability.
const NoLimit Distance = math.MaxInt64

// Dist is the distance between two states: |u − v|, the one-dimensional
// metric the paper charges (Kamath & Ramamritham 1993, §2). Because it
// obeys the triangle inequality, a transaction's inconsistency can be
// accumulated one operation at a time. The difference is taken in uint64
// and saturates at NoLimit, so values more than MaxInt64 apart are at
// distance NoLimit instead of wrapping to a negative charge.
func Dist(u, v Value) Distance {
	d := uint64(u) - uint64(v)
	if u < v {
		d = uint64(v) - uint64(u)
	}
	if d > uint64(NoLimit) {
		return NoLimit
	}
	return Distance(d)
}

// Kind classifies an epsilon transaction. The paper restricts attention
// to query ETs (read-only, may import inconsistency) running against
// consistent update ETs (read-write, may export inconsistency).
type Kind uint8

const (
	// Query is a read-only epsilon transaction with an import limit.
	Query Kind = iota
	// Update is a read-write epsilon transaction with an export limit.
	// Its reads are kept consistent because its writes depend on them.
	Update
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Query:
		return "query"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OpKind distinguishes the two data operations of the prototype. Begin,
// Commit and Abort are transaction-control messages, not data operations.
type OpKind uint8

const (
	// OpRead reads the value of an object.
	OpRead OpKind = iota
	// OpWrite replaces the value of an object.
	OpWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one data operation of a transaction program. Writes carry the
// value to install; for programs whose write values depend on earlier
// reads (the paper's update example computes t2+3000), the txnlang
// evaluator resolves the expression before the operation is submitted.
type Op struct {
	Kind   OpKind
	Object ObjectID
	// Value is the value to write; ignored for reads.
	Value Value
	// Delta, when non-zero on a write, asks the engine to write
	// current+Delta instead of Value. The workload generator uses deltas
	// so that restarted transactions remain meaningful after other
	// updates have changed the object.
	Delta Value
	// UseDelta selects Delta-mode for a write (a zero Delta is a valid
	// increment, so the mode needs an explicit flag).
	UseDelta bool
}

// Level identifies where in the hierarchy an inconsistency bound was
// violated, for diagnostics and metrics.
type Level uint8

const (
	// LevelObject is the leaf level: a single object's OIL or OEL.
	LevelObject Level = iota
	// LevelGroup is an interior node of the bounds hierarchy.
	LevelGroup
	// LevelTransaction is the root: the transaction's TIL or TEL.
	LevelTransaction
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelObject:
		return "object"
	case LevelGroup:
		return "group"
	case LevelTransaction:
		return "transaction"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// LimitError reports a violated inconsistency bound. The engine aborts
// the transaction that triggered it (§5.3.1: "if the bounds are violated
// at any stage, the operation is unsuccessful and the transaction has to
// be aborted").
type LimitError struct {
	// Level says whether the object, a group, or the transaction bound
	// was violated.
	Level Level
	// Node is the group name for LevelGroup violations, empty otherwise.
	Node string
	// Object is the object whose operation triggered the violation.
	Object ObjectID
	// Distance is the inconsistency the operation would have contributed.
	Distance Distance
	// Accumulated is the inconsistency already charged to the node.
	Accumulated Distance
	// Limit is the violated bound.
	Limit Distance
	// Import is true for import (read-side) violations, false for export.
	Import bool
}

// Error implements error.
func (e *LimitError) Error() string {
	side := "export"
	if e.Import {
		side = "import"
	}
	where := e.Level.String()
	if e.Level == LevelGroup {
		where = fmt.Sprintf("group %q", e.Node)
	}
	return fmt.Sprintf("esr: %s limit exceeded at %s: object %d contributes %d, accumulated %d, limit %d",
		side, where, e.Object, e.Distance, e.Accumulated, e.Limit)
}

// addSat adds two non-negative distances without overflowing past
// NoLimit.
func addSat(a, b Distance) Distance {
	if a > NoLimit-b {
		return NoLimit
	}
	return a + b
}
