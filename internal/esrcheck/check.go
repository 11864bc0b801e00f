// Package esrcheck is the offline epsilon-serializability oracle: it
// consumes a recorded execution history (the tso.Event stream, live from
// a history.Recorder or decoded from an esr-trace JSONL file) and
// proves or refutes the paper's guarantee — that the committed execution
// stays within its declared inconsistency bounds of some serializable
// execution.
//
// The checker follows the witness-order construction of Biswas & Enea
// ("On the Complexity of Checking Transactional Consistency") restricted
// to the timestamp-ordered histories our engines produce, where the
// version order per object is the write-timestamp order, so no version-
// order search is needed and the check is polynomial:
//
//  1. Classify every committed read as proper or relaxed. A read is
//     proper when it observed the retrospective proper version — the
//     last committed version of the object with a write timestamp not
//     after the reader's — and the data was committed at read time. A
//     relaxed read (ESR cases 1–3: late read of committed data, dirty
//     read of uncommitted data, or a late case-3 write committing under
//     the read it raced) observed something else; it is the epsilon.
//  2. Build the hard conflict graph over committed transactions: WW
//     edges from the per-object version order, and WR/RW edges for
//     proper reads only. Relaxed reads impose no ordering — their
//     divergence is metered instead. A topological order of this graph
//     is the serializable witness; a cycle refutes the guarantee.
//  3. Meter every relaxed read's true divergence from recorded values:
//     |observed − retrospective proper value|, recomputed independently
//     of what the engine charged, and check it against the declared
//     object bound (the OIL stamped on the read event, or the OEL of
//     the covering case-3 write when the reader was not charged).
//  4. Cross-check the accounting: the per-operation charges must sum to
//     the final inconsistency on the commit event, which must fit the
//     transaction's root bound (TIL/TEL from the begin event).
//  5. Zero-epsilon transactions (root bound 0, the engine's serializable
//     baseline) must have no relaxed reads at all, so a history whose
//     transactions are all zero-epsilon is certified exactly
//     conflict-serializable (CheckSerializable is the strict mode for
//     that special case).
//
// Soundness depends on trace completeness: a commit path that skips its
// trace event is invisible here. The tracecomplete analyzer
// (internal/analysis/tracecomplete) closes that hole statically.
package esrcheck

import (
	"fmt"
	"sort"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
)

// Violation is one refutation of the guarantee.
type Violation struct {
	// Code classifies the violation: "unknown-version", "update-relaxed",
	// "zero-epsilon-relaxed", "zero-epsilon-replica", "object-import",
	// "object-export", "op-over-limit", "txn-limit", "accounting",
	// "conflict-cycle".
	Code string `json:"code"`
	// Txn is the offending transaction (0 when structural).
	Txn core.TxnID `json:"txn,omitempty"`
	// Object is the object involved (0 when transaction-level).
	Object core.ObjectID `json:"object,omitempty"`
	// Msg is the human-readable refutation.
	Msg string `json:"msg"`
}

// Report is the oracle's verdict over one history.
type Report struct {
	// Txns is the number of committed transactions checked.
	Txns int `json:"txns"`
	// Aborted is the number of aborted attempts (excluded from checks).
	Aborted int `json:"aborted"`
	// Ops is the number of committed read/write operations.
	Ops int `json:"ops"`
	// RelaxedReads is the number of committed reads classified relaxed.
	RelaxedReads int `json:"relaxed_reads"`
	// DirtyReads is the number of committed reads of then-uncommitted data.
	DirtyReads int `json:"dirty_reads"`
	// MaxDistance is the largest recomputed divergence of any relaxed
	// read. Zero for a serializable history.
	MaxDistance core.Distance `json:"max_distance"`
	// TotalImported / TotalExported sum the committed transactions'
	// final inconsistency from their commit events.
	TotalImported core.Distance `json:"total_imported"`
	TotalExported core.Distance `json:"total_exported"`
	// Witness is a serializable order of the committed transactions
	// consistent with every hard conflict (nil when a cycle refutes it).
	Witness []core.TxnID `json:"witness,omitempty"`
	// Notes are non-fatal observations (e.g. distances that could not be
	// recomputed because the initial value never appears in the trace).
	Notes []string `json:"notes,omitempty"`
	// Violations refute the guarantee; empty means certified.
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether the history was certified.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a certified history, or an error describing the
// first violation (and the total count).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	v := r.Violations[0]
	if len(r.Violations) == 1 {
		return fmt.Errorf("esrcheck: %s: %s", v.Code, v.Msg)
	}
	return fmt.Errorf("esrcheck: %d violations, first %s: %s", len(r.Violations), v.Code, v.Msg)
}

func (r *Report) violate(code string, txn core.TxnID, obj core.ObjectID, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Code: code, Txn: txn, Object: obj, Msg: fmt.Sprintf(format, args...),
	})
}

// txn is the checker's digest of one attempt.
type txn struct {
	id        core.TxnID
	kind      core.Kind
	ts        tsgen.Timestamp
	rootLimit core.Distance // from the begin event; 0 = zero-epsilon
	hasBegin  bool
	committed bool
	aborted   bool
	commitInc core.Distance // final inconsistency from the commit event
	commitLim core.Distance
	chargeSum core.Distance // sum of per-op charges
}

// versionRec is one committed version of an object.
type versionRec struct {
	ts      tsgen.Timestamp
	writer  core.TxnID
	value   core.Value
	charged core.Distance // the export charged on the write event
	oel     core.Distance // the write event's export limit
}

// readRec is one committed read.
type readRec struct {
	reader  core.TxnID
	readTS  tsgen.Timestamp
	object  core.ObjectID
	version tsgen.Timestamp
	value   core.Value
	charged core.Distance
	limit   core.Distance // the read event's import limit (OIL)
	dirty   bool
	replica bool // served by a bounded-stale follower
}

// Check runs the full epsilon-serializability oracle over a history and
// returns its verdict. The event stream must contain whole transactions
// (a commit or abort for every begin); incomplete tails from live
// recorders are tolerated — attempts with no outcome are skipped.
func Check(events []tso.Event) *Report {
	rep := &Report{}
	txns := collectTxns(events, rep)
	versions, reads := collectOps(events, txns, rep)

	// Per-object version order = write-timestamp order (timestamp-ordered
	// engines guarantee committed versions have strictly increasing ts).
	for obj, vs := range versions {
		sort.Slice(vs, func(i, j int) bool { return vs[i].ts.Before(vs[j].ts) })
		for i := 1; i < len(vs); i++ {
			if !vs[i-1].ts.Before(vs[i].ts) {
				rep.violate("unknown-version", vs[i].writer, obj,
					"two committed versions of object %d share timestamp %v", obj, vs[i].ts)
			}
		}
		for _, v := range vs {
			if v.charged > v.oel {
				rep.violate("op-over-limit", v.writer, obj,
					"txn %d exported %d on object %d over its export limit %d",
					v.writer, v.charged, obj, v.oel)
			}
		}
		versions[obj] = vs
	}

	// Initial values, best effort: a read of the version-less initial
	// state carries it.
	initial := make(map[core.ObjectID]core.Value)
	hasInitial := make(map[core.ObjectID]bool)
	for _, r := range reads {
		if r.version.IsNone() && !r.dirty && !hasInitial[r.object] {
			initial[r.object] = r.value
			hasInitial[r.object] = true
		}
	}

	edges := make(map[core.TxnID]map[core.TxnID]bool)
	addEdge := func(from, to core.TxnID) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = make(map[core.TxnID]bool)
			edges[from] = m
		}
		m[to] = true
	}
	for _, vs := range versions {
		for i := 1; i < len(vs); i++ {
			addEdge(vs[i-1].writer, vs[i].writer) // WW
		}
	}

	unrecomputable := 0
	for _, r := range reads {
		t := txns[r.reader]
		vs := versions[r.object]
		rep.Ops++

		// Locate what was read and the retrospective proper version: the
		// last committed version with ts ≤ the reader's timestamp.
		readIdx := -1
		properIdx := -1
		for i, v := range vs {
			if v.ts == r.version {
				readIdx = i
			}
			if !v.ts.After(r.readTS) {
				properIdx = i
			}
		}
		if r.version == r.readTS && readIdx >= 0 && vs[readIdx].writer == r.reader {
			// Read of the transaction's own write: no constraint, no
			// divergence.
			continue
		}
		if readIdx < 0 && !r.version.IsNone() {
			// The version read never committed: a dirty read of a later-
			// aborted writer, tolerated (and metered) under ESR, §5.1.
			if !r.dirty {
				rep.violate("unknown-version", r.reader, r.object,
					"txn %d read version %v of object %d which never committed, not flagged dirty",
					r.reader, r.version, r.object)
				continue
			}
		}
		if r.dirty {
			rep.DirtyReads++
		}
		if r.replica && t.rootLimit == 0 {
			// Routing policy, checked before classification: a zero-epsilon
			// query demands strict serializability and must never touch a
			// follower — even a read that happened to observe the proper
			// version, because the follower cannot prove it did.
			rep.violate("zero-epsilon-replica", r.reader, r.object,
				"zero-epsilon txn %d read object %d from a replica", r.reader, r.object)
			continue
		}

		proper := !r.dirty && readIdx == properIdx
		if proper {
			// Hard read: writer of the version before the reader, reader
			// before the writer of the next version.
			if readIdx >= 0 {
				addEdge(vs[readIdx].writer, r.reader) // WR
			}
			if readIdx+1 < len(vs) {
				addEdge(r.reader, vs[readIdx+1].writer) // RW
			}
			if r.charged != 0 {
				rep.violate("accounting", r.reader, r.object,
					"txn %d charged %d on a consistent read of object %d", r.reader, r.charged, r.object)
			}
			continue
		}

		// Relaxed read. Update-ET reads must never be: their writes
		// depend on them (§3.2.1).
		rep.RelaxedReads++
		if r.charged > r.limit {
			rep.violate("op-over-limit", r.reader, r.object,
				"txn %d charged %d on object %d over its import limit %d",
				r.reader, r.charged, r.object, r.limit)
		}
		if t.kind == core.Update {
			rep.violate("update-relaxed", r.reader, r.object,
				"update txn %d read version %v of object %d, proper is %v",
				r.reader, r.version, r.object, properVersionTS(vs, properIdx))
			continue
		}
		if t.rootLimit == 0 {
			rep.violate("zero-epsilon-relaxed", r.reader, r.object,
				"zero-epsilon txn %d took a relaxed read of object %d (version %v, proper %v, dirty %v)",
				r.reader, r.object, r.version, properVersionTS(vs, properIdx), r.dirty)
			continue
		}

		// Recompute the true divergence from recorded values.
		var properVal core.Value
		known := true
		if properIdx >= 0 {
			properVal = vs[properIdx].value
		} else if hasInitial[r.object] {
			properVal = initial[r.object]
		} else {
			known = false
		}
		d := r.charged
		if known {
			d = absDist(r.value, properVal)
		} else {
			unrecomputable++
		}
		if d > rep.MaxDistance {
			rep.MaxDistance = d
		}
		if r.charged > 0 || r.dirty || r.replica {
			// Reader-charged relaxation (cases 1 and 2, and replica lag):
			// the divergence was admitted against the object's import
			// limit. A lagging follower always charges its own side, never
			// a primary writer, so replica reads are never case 3.
			if d > r.limit {
				rep.violate("object-import", r.reader, r.object,
					"txn %d imported divergence %d on object %d, import limit %d",
					r.reader, d, r.object, r.limit)
			}
		} else {
			// Writer-charged relaxation (case 3): a late write committed
			// under this read; its export was admitted against the
			// object's export limit, stamped on the covering write.
			oel := r.limit
			if properIdx >= 0 {
				oel = vs[properIdx].oel
			}
			if d > oel {
				rep.violate("object-export", r.reader, r.object,
					"txn %d views divergence %d on object %d from a late write, export limit %d",
					r.reader, d, r.object, oel)
			}
		}
	}
	if unrecomputable > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%d relaxed read(s) checked against engine-charged distance: initial value never observed", unrecomputable))
	}

	checkAccounting(txns, rep)

	// A topological order of the hard graph is the serializable witness.
	order, cycle := topoOrder(committedIDs(txns), edges)
	if cycle != nil {
		rep.violate("conflict-cycle", 0, 0, "hard conflict cycle %v", cycle)
	} else {
		rep.Witness = order
	}
	return rep
}

// properVersionTS formats the proper version for diagnostics.
func properVersionTS(vs []versionRec, properIdx int) tsgen.Timestamp {
	if properIdx < 0 {
		return tsgen.None
	}
	return vs[properIdx].ts
}

// collectTxns builds the transaction table from control events.
func collectTxns(events []tso.Event, rep *Report) map[core.TxnID]*txn {
	txns := make(map[core.TxnID]*txn)
	get := func(ev tso.Event) *txn {
		t := txns[ev.Txn]
		if t == nil {
			t = &txn{id: ev.Txn, kind: ev.TxnKind, ts: ev.TS}
			txns[ev.Txn] = t
		}
		return t
	}
	for _, ev := range events {
		switch ev.Kind {
		case tso.EvBegin:
			t := get(ev)
			t.hasBegin = true
			t.rootLimit = ev.Limit
		case tso.EvCommit:
			t := get(ev)
			t.committed = true
			t.commitInc = ev.Inconsistency
			t.commitLim = ev.Limit
		case tso.EvAbort:
			get(ev).aborted = true
		}
	}
	for _, t := range txns {
		if t.committed {
			rep.Txns++
			if t.kind == core.Query {
				rep.TotalImported += t.commitInc
			} else {
				rep.TotalExported += t.commitInc
			}
		} else if t.aborted {
			rep.Aborted++
		}
	}
	return txns
}

// collectOps gathers the committed transactions' reads and writes.
func collectOps(events []tso.Event, txns map[core.TxnID]*txn, rep *Report) (map[core.ObjectID][]versionRec, []readRec) {
	versions := make(map[core.ObjectID][]versionRec)
	var reads []readRec
	for _, ev := range events {
		t := txns[ev.Txn]
		if t == nil || !t.committed {
			continue
		}
		switch ev.Kind {
		case tso.EvWrite:
			t.chargeSum += ev.Inconsistency
			versions[ev.Object] = append(versions[ev.Object], versionRec{
				ts: ev.Version, writer: ev.Txn, value: ev.Value,
				charged: ev.Inconsistency, oel: ev.Limit,
			})
			rep.Ops++
		case tso.EvRead:
			t.chargeSum += ev.Inconsistency
			reads = append(reads, readRec{
				reader: ev.Txn, readTS: ev.TS, object: ev.Object,
				version: ev.Version, value: ev.Value,
				charged: ev.Inconsistency, limit: ev.Limit, dirty: ev.DirtyRead,
				replica: ev.Replica,
			})
		}
	}
	return versions, reads
}

// checkAccounting verifies per-transaction totals against the commit
// events and the root bounds.
func checkAccounting(txns map[core.TxnID]*txn, rep *Report) {
	ids := committedIDs(txns)
	for _, id := range ids {
		t := txns[id]
		if t.chargeSum != t.commitInc {
			rep.violate("accounting", t.id, 0,
				"txn %d per-op charges sum to %d but committed with inconsistency %d",
				t.id, t.chargeSum, t.commitInc)
		}
		limit := t.rootLimit
		if !t.hasBegin {
			// Torn trace head: the begin was recorded before this file
			// started; fall back to the commit event's stamp.
			limit = t.commitLim
		}
		if t.commitInc > limit {
			rep.violate("txn-limit", t.id, 0,
				"%s txn %d committed inconsistency %d over its transaction limit %d",
				t.kind, t.id, t.commitInc, limit)
		}
	}
}

// committedIDs returns the committed transaction ids in ascending order.
func committedIDs(txns map[core.TxnID]*txn) []core.TxnID {
	ids := make([]core.TxnID, 0, len(txns))
	for id, t := range txns {
		if t.committed {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// topoOrder returns a deterministic topological order of nodes under
// edges, or (nil, cycle) when a cycle exists. Ties broken by id, so the
// witness is reproducible.
func topoOrder(nodes []core.TxnID, edges map[core.TxnID]map[core.TxnID]bool) ([]core.TxnID, []core.TxnID) {
	indeg := make(map[core.TxnID]int, len(nodes))
	for _, n := range nodes {
		indeg[n] = 0
	}
	for from, tos := range edges {
		if _, ok := indeg[from]; !ok {
			continue
		}
		for to := range tos {
			if _, ok := indeg[to]; ok {
				indeg[to]++
			}
		}
	}
	// Kahn's algorithm with a sorted frontier.
	var ready []core.TxnID
	for _, n := range nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	order := make([]core.TxnID, 0, len(nodes))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		var woken []core.TxnID
		for to := range edges[n] {
			if _, ok := indeg[to]; !ok {
				continue
			}
			indeg[to]--
			if indeg[to] == 0 {
				woken = append(woken, to)
			}
		}
		sort.Slice(woken, func(i, j int) bool { return woken[i] < woken[j] })
		ready = append(ready, woken...)
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	}
	if len(order) != len(nodes) {
		// The leftover nodes all sit on or behind cycles; report one.
		return nil, findCycle(nodes, edges, indeg)
	}
	return order, nil
}

// findCycle extracts one concrete cycle among the nodes Kahn's algorithm
// could not order.
func findCycle(nodes []core.TxnID, edges map[core.TxnID]map[core.TxnID]bool, indeg map[core.TxnID]int) []core.TxnID {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[core.TxnID]int)
	parent := make(map[core.TxnID]core.TxnID)
	var cycleStart, cycleEnd core.TxnID
	var found bool
	var dfs func(u core.TxnID)
	dfs = func(u core.TxnID) {
		if found {
			return
		}
		color[u] = grey
		succs := make([]core.TxnID, 0, len(edges[u]))
		for v := range edges[u] {
			if _, ok := indeg[v]; ok {
				succs = append(succs, v)
			}
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, v := range succs {
			if found {
				return
			}
			switch color[v] {
			case white:
				parent[v] = u
				dfs(v)
			case grey:
				cycleStart, cycleEnd, found = v, u, true
				return
			}
		}
		color[u] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
			if found {
				break
			}
		}
	}
	if !found {
		return nil
	}
	cycle := []core.TxnID{cycleStart}
	for at := cycleEnd; at != cycleStart; at = parent[at] {
		cycle = append(cycle, at)
	}
	for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	return append(cycle, cycleStart)
}

// absDist is |u − v| as a distance, saturating at core.NoLimit like
// core.Dist. It is a deliberate copy, not a call to core.Dist: the
// oracle must re-derive charges independently of the engine, so that a
// defect in the engine's distance (say, one that halves it) is refuted
// here instead of blinding the engine and the oracle at once.
func absDist(u, v core.Value) core.Distance {
	d := uint64(u) - uint64(v)
	if u < v {
		d = uint64(v) - uint64(u)
	}
	if d > uint64(core.NoLimit) {
		return core.NoLimit
	}
	return core.Distance(d)
}
