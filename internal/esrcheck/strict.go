// Strict mode: the ε=0 special case of the oracle. Every read is a hard
// conflict — no relaxation is admissible — so the check degenerates to
// classic conflict serializability over the committed projection.
package esrcheck

import (
	"fmt"
	"sort"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
)

// CheckSerializable verifies that the committed projection of the
// history is conflict serializable with no reads of never-committed
// versions — the ε=0 contract. Unlike Check, no read may be excused by a
// bound: a dirty read of an aborted writer or a conflict cycle is an
// error regardless of any limits in the trace.
func CheckSerializable(events []tso.Event) error {
	committed := make(map[core.TxnID]bool)
	for _, ev := range events {
		if ev.Kind == tso.EvCommit {
			committed[ev.Txn] = true
		}
	}

	type vrec struct {
		ts     tsgen.Timestamp
		writer core.TxnID
	}
	type rrec struct {
		reader  core.TxnID
		version tsgen.Timestamp
	}
	versions := make(map[core.ObjectID][]vrec)
	writerOf := make(map[core.ObjectID]map[tsgen.Timestamp]core.TxnID)
	reads := make(map[core.ObjectID][]rrec)
	for _, ev := range events {
		if !committed[ev.Txn] {
			continue
		}
		switch ev.Kind {
		case tso.EvWrite:
			versions[ev.Object] = append(versions[ev.Object], vrec{ts: ev.Version, writer: ev.Txn})
			m := writerOf[ev.Object]
			if m == nil {
				m = make(map[tsgen.Timestamp]core.TxnID)
				writerOf[ev.Object] = m
			}
			m[ev.Version] = ev.Txn
		case tso.EvRead:
			reads[ev.Object] = append(reads[ev.Object], rrec{reader: ev.Txn, version: ev.Version})
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

	for obj, vs := range versions {
		sort.Slice(vs, func(i, j int) bool { return vs[i].ts.Before(vs[j].ts) })
		versions[obj] = vs
		for i := 1; i < len(vs); i++ {
			addEdge(vs[i-1].writer, vs[i].writer) // WW
		}
	}

	neverCommitted := 0
	for obj, rs := range reads {
		vs := versions[obj]
		for _, r := range rs {
			// WR: the writer of the version read precedes the reader;
			// version "none" is the initial load with no writer.
			if !r.version.IsNone() {
				if w, ok := writerOf[obj][r.version]; ok {
					addEdge(w, r.reader)
				} else {
					neverCommitted++
				}
			}
			// RW: the reader precedes the writer of the next version.
			for _, v := range vs {
				if r.version.Before(v.ts) {
					addEdge(r.reader, v.writer)
					break
				}
			}
		}
	}
	if neverCommitted > 0 {
		return fmt.Errorf("%d read(s) of versions that never committed", neverCommitted)
	}

	nodeSet := make(map[core.TxnID]bool, len(edges))
	for from, tos := range edges {
		nodeSet[from] = true
		for to := range tos {
			nodeSet[to] = true
		}
	}
	nodes := make([]core.TxnID, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	if _, cycle := topoOrder(nodes, edges); cycle != nil {
		return fmt.Errorf("conflict cycle %v", cycle)
	}
	return nil
}
