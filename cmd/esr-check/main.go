// esr-check is the offline epsilon-serializability oracle's CLI: it
// reads recorded execution traces (esr-trace/1 JSONL, as written by
// `esr-server -trace` or a history.Recorder dump) and proves or refutes
// the epsilon guarantee after the fact — every relaxed read within its
// object bound, every transaction within its root bound, and a
// serializable witness order over the hard conflicts.
//
//	esr-check [-json] [-zero] [-merge] [trace.jsonl ...]
//
// With no file arguments the trace is read from stdin. -zero runs the
// strict mode instead: the history must be exactly conflict
// serializable with no reads of never-committed versions, the ε=0
// special case — what a serializable baseline (a zero-bound TO run)
// must satisfy. -json emits the full report per trace for CI
// consumption.
//
// -merge certifies all inputs as ONE history instead of one verdict
// per file. A replica deployment records one trace per process
// (primary plus each follower started with -replica-of), and no file
// alone is checkable: follower traces read versions whose writes live
// in the primary's trace. Merging restores the closed history the
// oracle needs.
//
// Exit codes: 0 every trace certified, 1 at least one refuted, 2
// operational failure (unreadable file, corrupt trace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/epsilondb/epsilondb/internal/esrcheck"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("esr-check: ")
	jsonFlag := flag.Bool("json", false, "emit the full report as JSON, one object per trace")
	zeroFlag := flag.Bool("zero", false, "strict mode: require exact conflict serializability (the ε=0 case)")
	mergeFlag := flag.Bool("merge", false, "certify all inputs as one history (primary + replica traces of one deployment)")
	flag.Parse()

	type input struct {
		name string
		open func() (io.ReadCloser, error)
	}
	var inputs []input
	if flag.NArg() == 0 {
		inputs = append(inputs, input{
			name: "<stdin>",
			open: func() (io.ReadCloser, error) { return io.NopCloser(os.Stdin), nil },
		})
	}
	for _, path := range flag.Args() {
		path := path
		inputs = append(inputs, input{
			name: path,
			open: func() (io.ReadCloser, error) { return os.Open(path) },
		})
	}

	var traces []*esrcheck.Trace
	for _, in := range inputs {
		r, err := in.open()
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		tr, err := esrcheck.ReadTrace(r)
		r.Close()
		if err != nil {
			log.Printf("%s: %v", in.name, err)
			os.Exit(2)
		}
		traces = append(traces, tr)
	}

	if *mergeFlag {
		merged := &esrcheck.Trace{}
		names := ""
		for i, tr := range traces {
			if i > 0 {
				names += "+"
			}
			names += inputs[i].name
			if tr.Schema != "" && merged.Schema != "" && tr.Schema != merged.Schema {
				log.Printf("%s: schema %q does not match %q; refusing to merge", inputs[i].name, tr.Schema, merged.Schema)
				os.Exit(2)
			}
			if tr.Schema != "" {
				merged.Schema = tr.Schema
			}
			merged.Events = append(merged.Events, tr.Events...)
			merged.TornTail = merged.TornTail || tr.TornTail
		}
		if !check(names, merged, *zeroFlag, *jsonFlag) {
			os.Exit(1)
		}
		return
	}

	refuted := false
	for i, tr := range traces {
		if !check(inputs[i].name, tr, *zeroFlag, *jsonFlag) {
			refuted = true
		}
	}
	if refuted {
		os.Exit(1)
	}
}

// check runs one decoded trace through the oracle and reports the
// verdict; it returns false when the trace is refuted.
func check(name string, tr *esrcheck.Trace, zero, asJSON bool) bool {
	rep := esrcheck.Check(tr.Events)
	if tr.TornTail {
		rep.Notes = append(rep.Notes, "torn final trace line dropped (crash mid-append)")
	}
	if zero {
		if err := esrcheck.CheckSerializable(tr.Events); err != nil {
			rep.Violations = append(rep.Violations, esrcheck.Violation{
				Code: "strict-serializability", Msg: err.Error(),
			})
		}
	}
	if asJSON {
		out := struct {
			Trace  string `json:"trace"`
			Schema string `json:"schema,omitempty"`
			*esrcheck.Report
		}{Trace: name, Schema: tr.Schema, Report: rep}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			log.Print(err)
			os.Exit(2)
		}
		return rep.OK()
	}
	if rep.OK() {
		fmt.Printf("%s: certified: %d txns (%d aborted attempts), %d ops, %d relaxed reads (%d dirty), max distance %d, witness of %d\n",
			name, rep.Txns, rep.Aborted, rep.Ops, rep.RelaxedReads, rep.DirtyReads, rep.MaxDistance, len(rep.Witness))
	} else {
		fmt.Printf("%s: REFUTED: %d violation(s)\n", name, len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  [%s] txn %d obj %d: %s\n", v.Code, v.Txn, v.Object, v.Msg)
		}
	}
	for _, n := range rep.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	return rep.OK()
}
