package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cluster is the system under test for one run: one esr-server, or a
// primary and a follower, either as real child processes (every
// end-to-end number) or built in-process from the same public
// constructors (the traced run and the tier-1 smoke test).
type cluster struct {
	spec *workloadSpec
	seed int64
	// dir is the run's scratch directory; the WAL lives under it.
	dir string
	// addrs are the listen addresses, primary first.
	addrs []string

	bin   string        // esr-server binary; empty means in-process
	pl    placement     // where child processes run
	procs []*serverProc // real child processes, primary first
	in    *inproc       // the in-process variant

	// followerStarted is when the follower was launched; bootstrap is how
	// long it then took to serve the primary's state.
	followerStarted time.Time
	bootstrap       time.Duration
}

// serverProc is one esr-server child process.
type serverProc struct {
	cmd     *exec.Cmd
	started time.Time
	addr    string

	mu    sync.Mutex
	lines []string // everything the server logged
	ready chan struct{}
	done  chan struct{} // closed when the log reader hits EOF
}

const listenMarker = "listening on "

// startProc executes the server and waits until it logs its listen
// address.
func startProc(pl placement, bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	// The servers must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	p := &serverProc{cmd: cmd, started: time.Now(), ready: make(chan struct{}), done: make(chan struct{})}
	if err := pl.startOn(pl.serverCPU, cmd); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go p.readLog(stderr)
	select {
	case <-p.ready:
		return p, nil
	case <-p.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("esr-server exited before listening:\n%s", p.log())
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("esr-server did not listen within 30s:\n%s", p.log())
	}
}

func (p *serverProc) readLog(r io.Reader) {
	defer close(p.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.lines = append(p.lines, line)
		p.mu.Unlock()
		if i := strings.Index(line, listenMarker); i >= 0 && p.addr == "" {
			p.addr = strings.TrimSpace(line[i+len(listenMarker):])
			close(p.ready)
		}
	}
}

func (p *serverProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// kill is kill -9: the process gets no chance to flush anything.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	_ = p.cmd.Wait()
}

// terminate asks for a graceful shutdown and falls back to kill.
func (p *serverProc) terminate() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		_ = p.cmd.Wait()
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// cpuTime is the process's user plus system CPU time so far.
func (p *serverProc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTick = 100 // USER_HZ on every Linux this runs on
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func (p *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverArgs is the command line of the workload's primary.
func (c *cluster) serverArgs() []string {
	s := c.spec
	args := []string{"-addr", "127.0.0.1:0", "-seed", strconv.FormatInt(c.seed, 10),
		"-objects", strconv.Itoa(s.objects)}
	if s.transfers {
		b := strconv.FormatInt(int64(initialBalance), 10)
		args = append(args, "-value-min", b, "-value-max", b)
	} else {
		// OIL = OEL = 2w for the generator's mean write delta w = 1500:
		// the regime of the paper's Figure 12.
		args = append(args, "-oil", "3000", "-oel", "3000")
	}
	if s.durable {
		// The flush policy is part of the benchmark: 1 ms group commit, a
		// snapshot (and log truncation) every 20000 logged records.
		args = append(args, "-wal-dir", c.walDir(), "-wal-sync-interval", "1ms", "-snapshot-every", "20000")
	}
	return args
}

func (c *cluster) walDir() string { return filepath.Join(c.dir, "wal") }

// startCluster brings the workload's servers up. With bin empty they
// are built in-process, wrapped by tr's decorators when tr is non-nil.
func startCluster(e *env, spec *workloadSpec, seed int64, tr *tracer) (*cluster, error) {
	bin, dir := e.serverBin, runDir(e)
	c := &cluster{spec: spec, seed: seed, bin: bin, dir: dir, pl: e.pl}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if bin == "" {
		in, err := startInproc(c, tr)
		if err != nil {
			return nil, err
		}
		c.in = in
		return c, nil
	}
	primary, err := startProc(c.pl, bin, c.serverArgs())
	if err != nil {
		return nil, err
	}
	c.procs = []*serverProc{primary}
	c.addrs = []string{primary.addr}
	if spec.replica {
		c.followerStarted = time.Now()
		follower, err := startProc(c.pl, bin, []string{"-addr", "127.0.0.1:0",
			"-replica-of", primary.addr, "-replica-index", "1"})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, follower)
		c.addrs = append(c.addrs, follower.addr)
	}
	return c, nil
}

// crashAndRestart kills the primary with SIGKILL and starts it again on
// the same WAL directory, returning how long it took to come back and
// how many log records it replayed.
func (c *cluster) crashAndRestart() (time.Duration, int, error) {
	if c.in != nil {
		return c.in.crashAndRestart()
	}
	c.procs[0].kill()
	p, err := startProc(c.pl, c.bin, c.serverArgs())
	if err != nil {
		return 0, 0, err
	}
	took := time.Since(p.started)
	c.procs[0] = p
	c.addrs[0] = p.addr
	// esr-server: recovered N objects from wal (snapshot lsn S, R records replayed, ...
	records := 0
	for _, line := range strings.Split(p.log(), "\n") {
		if _, rest, ok := strings.Cut(line, "snapshot lsn "); ok {
			f := strings.Fields(rest)
			if len(f) >= 2 {
				records, _ = strconv.Atoi(f[1])
			}
		}
	}
	return took, records, nil
}

// cpuTime sums CPU time over the server processes.
func (c *cluster) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, p := range c.procs {
		d, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// peakRSSMB sums the resident-set peaks of the server processes.
func (c *cluster) peakRSSMB() (float64, error) {
	var total float64
	for _, p := range c.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop shuts every server down and removes the WAL directory. Followers
// go first so their feeds do not log reconnect noise.
func (c *cluster) stop() {
	if c.in != nil {
		c.in.stop()
	}
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].terminate()
	}
	c.procs = nil
	_ = os.RemoveAll(c.walDir())
}
