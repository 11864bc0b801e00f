// This file exercises lockorder's single-committer fsync rule: in
// packages named "wal", Sync and SyncDir may only be called from the
// committer goroutine's call chain.
package wal

type file struct{}

func (file) Write(p []byte) (int, error) { return len(p), nil }
func (file) Sync() error                 { return nil }

type dirFS struct{}

func (dirFS) SyncDir() error { return nil }

type log struct {
	seg file
	fs  dirFS
}

// flushOnce is on the committer's call chain: fsync allowed.
func (l *log) flushOnce() {
	l.seg.Write(nil)
	l.seg.Sync()
}

// openSegment is on the committer's call chain: both syncs allowed.
func (l *log) openSegment() {
	l.seg.Sync()
	l.fs.SyncDir()
}

// writeSnapshot is on the committer's call chain.
func (l *log) writeSnapshot() {
	l.seg.Sync()
}

// rollSegment is on the committer's call chain.
func (l *log) rollSegment() {
	l.fs.SyncDir()
}

// run is the committer itself.
func (l *log) run() {
	l.seg.Sync()
}

// Sync is a sync wrapper by name: its own body may forward the call.
func (l *log) Sync() error {
	l.seg.Sync()
	return nil
}

// logCommit is an appender: it must hand the batch to the committer,
// never fsync itself.
func (l *log) logCommit() {
	l.seg.Write(nil)
	l.seg.Sync() // want `Sync called in logCommit, outside the committer goroutine`
}

// close sneaks a directory sync outside the committer.
func (l *log) close() {
	l.fs.SyncDir() // want `SyncDir called in close, outside the committer goroutine`
}
