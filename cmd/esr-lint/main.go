// esr-lint is the repo's custom vet suite: the six analyzers under
// internal/analysis (epsiloncheck, wireexhaustive, lockorder, goleak,
// errprop, tracecomplete) behind two drivers.
//
// Standalone (what `make lint` runs):
//
//	go run ./cmd/esr-lint [-run analyzers] [-json] [packages]
//
// loads the named packages (default ./...) as one program, runs every
// analyzer — including the cross-package ones — and exits with a stable
// code: 0 clean, 1 diagnostics reported, 2 operational failure (bad
// flags, packages failed to load). -run selects a comma-separated subset
// of analyzers; -json emits machine-readable output for CI:
//
//	{"diagnostics": [{"analyzer": ..., "file": ..., "line": ...,
//	  "column": ..., "message": ...}, ...],
//	 "suppressed": [...]}   // findings waived by //lint:ignore
//
// Vettool (the `go vet` unit-at-a-time protocol):
//
//	go vet -vettool=$(which esr-lint) ./...
//
// cmd/go probes the tool with -V=full and -flags, then invokes it once
// per package with a JSON .cfg file naming the sources and export data.
// In this mode each package is checked in isolation, so program-level
// analyzers degrade to the invariants visible inside one package (wire
// checks run when vetting the wire package; the wire↔server handler
// check needs the standalone driver).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"github.com/epsilondb/epsilondb/internal/analysis"
	"github.com/epsilondb/epsilondb/internal/analysis/epsiloncheck"
	"github.com/epsilondb/epsilondb/internal/analysis/errprop"
	"github.com/epsilondb/epsilondb/internal/analysis/goleak"
	"github.com/epsilondb/epsilondb/internal/analysis/lockorder"
	"github.com/epsilondb/epsilondb/internal/analysis/tracecomplete"
	"github.com/epsilondb/epsilondb/internal/analysis/wireexhaustive"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	epsiloncheck.Analyzer,
	wireexhaustive.Analyzer,
	lockorder.Analyzer,
	goleak.Analyzer,
	errprop.Analyzer,
	tracecomplete.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("esr-lint: ")

	versionFlag := flag.String("V", "", "print version and exit (go vet tool protocol)")
	flagsFlag := flag.Bool("flags", false, "print flag definitions as JSON and exit (go vet tool protocol)")
	jsonFlag := flag.Bool("json", false, "emit machine-readable JSON diagnostics (standalone driver only)")
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all; standalone driver only)")
	flag.Usage = usage
	flag.Parse()

	if *versionFlag != "" {
		// cmd/go fingerprints vettools for build caching via `-V=full`
		// and requires a buildID field on devel versions; hashing the
		// executable itself gives a stable content-derived ID, the same
		// scheme the x/tools unitchecker uses.
		self, err := os.Open(os.Args[0])
		if err != nil {
			log.Fatal(err)
		}
		h := sha256.New()
		if _, err := io.Copy(h, self); err != nil {
			log.Fatal(err)
		}
		self.Close()
		fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
			filepath.Base(os.Args[0]), string(h.Sum(nil)))
		return
	}
	if *flagsFlag {
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		unitcheck(args[0])
		return
	}
	standalone(args, *runFlag, *jsonFlag)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: esr-lint [packages]  (standalone)\n")
	fmt.Fprintf(os.Stderr, "       go vet -vettool=esr-lint [packages]\n\nAnalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
	}
}

// standalone loads the whole program and runs the selected analyzers
// over it. Exit codes: 0 clean, 1 findings, 2 operational failure.
func standalone(patterns []string, run string, asJSON bool) {
	selected, err := selectAnalyzers(run)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(".", patterns...)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	res, err := prog.RunDetailed(selected)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if asJSON {
		if err := json.NewEncoder(os.Stdout).Encode(jsonReport(res)); err != nil {
			log.Print(err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Println(d)
		}
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers resolves a -run list against the suite.
func selectAnalyzers(run string) ([]*analysis.Analyzer, error) {
	if run == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type report struct {
	Diagnostics []jsonDiag `json:"diagnostics"`
	Suppressed  []jsonDiag `json:"suppressed"`
}

func jsonReport(res *analysis.Result) report {
	conv := func(in []analysis.Diagnostic) []jsonDiag {
		out := make([]jsonDiag, 0, len(in))
		for _, d := range in {
			out = append(out, jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		return out
	}
	return report{Diagnostics: conv(res.Diagnostics), Suppressed: conv(res.Suppressed)}
}
