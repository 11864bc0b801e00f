// Trace decoding: the inverse of tso.AppendEventJSON for the
// esr-trace schema. Decoding is strict about field meaning and lenient
// about the physical stream: a missing header is accepted (flight-
// recorder dumps carry none), and a torn final line — the signature of a
// crash mid-append — is tolerated and flagged rather than failing the
// whole trace, because crash traces are exactly the ones worth checking.
package esrcheck

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/tsgen"
	"github.com/epsilondb/epsilondb/internal/tso"
)

// Trace is a decoded event stream.
type Trace struct {
	// Schema is the header's schema identifier ("" when the stream had
	// no header line).
	Schema string
	// Events are the decoded events in stream order.
	Events []tso.Event
	// TornTail is true when the final line was truncated mid-record and
	// dropped (a crash during append).
	TornTail bool
}

// jsonEvent mirrors the wire fields of AppendEventJSON. Integer fields
// are int64/uint64 so NoLimit (2^63−1) survives the round trip exactly —
// decoding through float64 would corrupt it.
type jsonEvent struct {
	Ev      string `json:"ev"`
	Schema  string `json:"schema"`
	Txn     uint64 `json:"txn"`
	Kind    string `json:"kind"`
	AtNs    int64  `json:"at_ns"`
	TS      uint64 `json:"ts"`
	Obj     uint32 `json:"obj"`
	Val     int64  `json:"val"`
	Ver     uint64 `json:"ver"`
	Inc     int64  `json:"inc"`
	Lim     int64  `json:"lim"`
	Dirty   bool   `json:"dirty"`
	Replica bool   `json:"replica"`
}

// ReadTrace decodes a JSONL trace stream.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	tr := &Trace{}
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			// The malformed line was not the last one: real corruption.
			return nil, pendingErr
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			pendingErr = fmt.Errorf("esrcheck: trace line %d: %w", lineNo, err)
			continue
		}
		if je.Schema != "" {
			if lineNo != 1 {
				return nil, fmt.Errorf("esrcheck: trace line %d: schema header not on first line", lineNo)
			}
			if !strings.HasPrefix(je.Schema, tso.TraceSchemaName+"/") {
				return nil, fmt.Errorf("esrcheck: unsupported trace schema %q", je.Schema)
			}
			tr.Schema = je.Schema
			continue
		}
		kind, ok := tso.ParseEventKind(je.Ev)
		if !ok {
			// Forward compatibility: later minor schema versions may add
			// event kinds; they cannot affect the checks defined here.
			continue
		}
		ev := tso.Event{
			Kind:          kind,
			Txn:           core.TxnID(je.Txn),
			At:            time.Duration(je.AtNs),
			TS:            tsgen.Timestamp(je.TS),
			Object:        core.ObjectID(je.Obj),
			Value:         core.Value(je.Val),
			Version:       tsgen.Timestamp(je.Ver),
			Inconsistency: core.Distance(je.Inc),
			Limit:         core.Distance(je.Lim),
			DirtyRead:     je.Dirty,
			Replica:       je.Replica,
		}
		switch je.Kind {
		case "query":
			ev.TxnKind = core.Query
		case "update":
			ev.TxnKind = core.Update
		default:
			return nil, fmt.Errorf("esrcheck: trace line %d: unknown transaction kind %q", lineNo, je.Kind)
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("esrcheck: reading trace: %w", err)
	}
	if pendingErr != nil {
		// Only the final record failed to decode: sheared by a crash
		// mid-append, drop it.
		tr.TornTail = true
	}
	return tr, nil
}
