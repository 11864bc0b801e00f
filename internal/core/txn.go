package core

import "fmt"

// TxnID identifies one execution attempt of a transaction inside the
// server. A restarted transaction receives a fresh TxnID along with its
// fresh timestamp.
type TxnID uint64

// Program is a complete epsilon-transaction as submitted by a client: the
// inconsistency specification followed by the data operations. It is the
// compiled form of the transaction language (internal/txnlang) and the
// output of the workload generator (internal/workload).
type Program struct {
	// Kind says whether this is a query or an update ET.
	Kind Kind
	// Bounds is the inconsistency specification block.
	Bounds BoundSpec
	// Ops are the data operations in program order.
	Ops []Op
	// Label is an optional human-readable name used in logs and traces.
	Label string
}

// NewQuery returns a query program with the given import limit and reads.
func NewQuery(til Distance, objects ...ObjectID) *Program {
	ops := make([]Op, len(objects))
	for i, obj := range objects {
		ops[i] = Op{Kind: OpRead, Object: obj}
	}
	return &Program{Kind: Query, Bounds: BoundSpec{Transaction: til}, Ops: ops}
}

// NewUpdate returns an empty update program with the given export limit;
// use Read/WriteValue/WriteDelta to append operations.
func NewUpdate(tel Distance) *Program {
	return &Program{Kind: Update, Bounds: BoundSpec{Transaction: tel}}
}

// Read appends a read operation and returns the program for chaining.
func (p *Program) Read(obj ObjectID) *Program {
	p.Ops = append(p.Ops, Op{Kind: OpRead, Object: obj})
	return p
}

// WriteValue appends a write of an absolute value.
func (p *Program) WriteValue(obj ObjectID, v Value) *Program {
	p.Ops = append(p.Ops, Op{Kind: OpWrite, Object: obj, Value: v})
	return p
}

// WriteDelta appends a write that adds delta to the object's current
// value at execution time.
func (p *Program) WriteDelta(obj ObjectID, delta Value) *Program {
	p.Ops = append(p.Ops, Op{Kind: OpWrite, Object: obj, Delta: delta, UseDelta: true})
	return p
}

// Validate checks the static well-formedness rules the server enforces at
// BEGIN time: queries must not write, and the prototype's simplifying
// assumption (§3.2.1) that an object is read or written at most once per
// transaction must hold.
func (p *Program) Validate() error {
	if p.Kind != Query && p.Kind != Update {
		return fmt.Errorf("txn: invalid kind %d", p.Kind)
	}
	seenRead := make(map[ObjectID]bool, len(p.Ops))
	seenWrite := make(map[ObjectID]bool, len(p.Ops))
	for i, op := range p.Ops {
		switch op.Kind {
		case OpRead:
			if seenRead[op.Object] {
				return fmt.Errorf("txn: op %d reads object %d twice (enable multi-read tracking to allow this)", i, op.Object)
			}
			seenRead[op.Object] = true
		case OpWrite:
			if p.Kind == Query {
				return fmt.Errorf("txn: op %d writes object %d inside a query ET", i, op.Object)
			}
			if seenWrite[op.Object] {
				return fmt.Errorf("txn: op %d writes object %d twice", i, op.Object)
			}
			seenWrite[op.Object] = true
		default:
			return fmt.Errorf("txn: op %d has invalid kind %d", i, op.Kind)
		}
	}
	return nil
}

// NumReads returns the number of read operations in the program.
func (p *Program) NumReads() int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == OpRead {
			n++
		}
	}
	return n
}

// NumWrites returns the number of write operations in the program.
func (p *Program) NumWrites() int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == OpWrite {
			n++
		}
	}
	return n
}

// Objects returns the distinct objects the program touches, in first-use
// order.
func (p *Program) Objects() []ObjectID {
	seen := make(map[ObjectID]bool, len(p.Ops))
	var out []ObjectID
	for _, op := range p.Ops {
		if !seen[op.Object] {
			seen[op.Object] = true
			out = append(out, op.Object)
		}
	}
	return out
}

// String summarizes the program for logs.
func (p *Program) String() string {
	label := p.Label
	if label == "" {
		label = "txn"
	}
	return fmt.Sprintf("%s(%s, %d reads, %d writes, limit %d)",
		label, p.Kind, p.NumReads(), p.NumWrites(), p.Bounds.Transaction)
}
