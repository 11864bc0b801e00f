// Package history records the execution histories the engine emits.
//
// A Recorder is the in-process trace sink: tests, soaks and benchmarks
// attach one as the engine's tso.Tracer and hand its events to the
// oracle (internal/esrcheck), which certifies or refutes them — with
// epsilon bounds (esrcheck.Check) or at ε=0 under strict conflict
// serializability (esrcheck.CheckSerializable).
package history

import (
	"sync"

	"github.com/epsilondb/epsilondb/internal/tso"
)

// Recorder implements tso.Tracer, collecting events thread-safely.
type Recorder struct {
	mu     sync.Mutex
	events []tso.Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Trace implements tso.Tracer.
func (r *Recorder) Trace(ev tso.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []tso.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]tso.Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset clears the recorder.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}
