package main

import (
	"runtime"
	"syscall"
	"time"
)

// The paced arrival scheduler. Arrival i of a stream is due at
// start + i/rate whatever the executors are doing — an open loop — and
// the scheduler sleeps to each due time in turn instead of waking on a
// fixed tick and emitting the tick's worth at once. Every arrival
// carries its due time, so a transaction is timed from when it should
// have been sent, and the scheduler's own lateness is on record.
//
// The backlog is unbounded but counted: each stream's queue is sized
// for the whole phase, so emitting never blocks on slow executors and
// the queue depth at the end of the phase says whether the system kept
// up.

// spinWindow is how long before a due time the scheduler stops
// sleeping and polls the clock. Go's timers round sub-millisecond
// sleeps up to a millisecond when the process is otherwise idle, and a
// kernel sleep wakes tens of microseconds late; the final stretch is
// spun so that lateness stays far below the latencies being measured.
const spinWindow = 40 * time.Microsecond

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// Timer slack, in nanoseconds: what the scheduler's thread sleeps with,
// and Linux's default, which every other thread keeps.
const (
	pacerTimerSlack   = 1000
	defaultTimerSlack = 50000
)

// arrival is one scheduled transaction: its due time in nanoseconds
// since the run's epoch.
type arrival int64

// paceStream is one stream's schedule inside a pacer.
type paceStream struct {
	interval float64 // ns between arrivals
	q        chan arrival
	emitted  int
}

// pacer emits the arrivals of one phase for every paced stream.
type pacer struct {
	epoch   time.Time
	streams []*paceStream
	// late[i] is how long after its due time arrival i was emitted.
	late []time.Duration
	// behind counts arrivals emitted more than one inter-arrival gap
	// late: the schedule itself slipped, not just one wake-up.
	behind int
}

// newPacer plans a phase of the given length. rates are per stream, in
// arrivals per second; a zero rate leaves the stream's queue nil.
func newPacer(epoch time.Time, rates []float64, length time.Duration) *pacer {
	p := &pacer{epoch: epoch}
	total := 0
	for _, r := range rates {
		s := &paceStream{}
		if r > 0 {
			s.interval = 1e9 / r
			n := int(r*length.Seconds()) + 2
			s.q = make(chan arrival, n) // the whole phase: emitting never blocks
			total += n
		}
		p.streams = append(p.streams, s)
	}
	p.late = make([]time.Duration, 0, total)
	return p
}

// run emits every arrival due in [start, start+length) and then closes
// the queues. It pins itself to an OS thread so it can sleep in the
// kernel with a tight timer slack, and gives the thread its default
// slack back before the Go runtime may reuse it: threads and child
// processes inherit the slack of the thread that creates them, and a
// server forked with the scheduler's slack wakes its runtime's monitor
// thread several times as often (README, "Noise").
func (p *pacer) run(start time.Time, length time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(pacerTimerSlack)
	defer setTimerSlack(defaultTimerSlack)

	startNs := float64(start.Sub(p.epoch))
	endNs := startNs + float64(length)
	for {
		// The next arrival is the earliest across streams.
		var next *paceStream
		var due float64
		for _, s := range p.streams {
			if s.q == nil {
				continue
			}
			d := startNs + float64(s.emitted)*s.interval
			if d < endNs && (next == nil || d < due) {
				next, due = s, d
			}
		}
		if next == nil {
			break
		}
		dueAt := p.epoch.Add(time.Duration(due))
		sleepUntil(dueAt)
		lateBy := time.Since(dueAt)
		next.q <- arrival(due)
		next.emitted++
		p.late = append(p.late, lateBy)
		if float64(lateBy) > next.interval {
			p.behind++
		}
	}
	for _, s := range p.streams {
		if s.q != nil {
			close(s.q)
		}
	}
}

// sleepUntil blocks until t: a kernel sleep to just short of it, then a
// clock poll. An interrupted sleep just loops.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
		}
	}
}

// setTimerSlack sets the calling thread's timer slack. Failure only
// costs precision, which loadgen.late_p95_us reports.
func setTimerSlack(ns uintptr) {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}
