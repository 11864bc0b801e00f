// Package wal is the golden model of the concrete log type and package
// functions whose error results the errprop analyzer tracks.
package wal

// Log mirrors wal.Log.
type Log struct{}

// Sync flushes and fsyncs the log.
func (l *Log) Sync() error { return nil }

// Close stops the committer.
func (l *Log) Close() error { return nil }

// Kill stops the committer without flushing; it cannot fail.
func (l *Log) Kill() {}

// Open replays and opens a log directory.
func Open(dir string) (*Log, error) { return &Log{}, nil }

// FS mirrors the WAL's filesystem surface.
type FS interface {
	Create(name string) (File, error)
	Rename(oldName, newName string) error
	SyncDir() error
}

// File mirrors the WAL's file handle.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// writeSnapshot handles every result of the filesystem surface; the bare
// Close after a failed Write is fine, the Write error is returned.
func writeSnapshot(fs FS, data []byte) error {
	f, err := fs.Create("snap.tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename("snap.tmp", "snap"); err != nil {
		return err
	}
	return fs.SyncDir()
}

// writeSnapshotUnsynced drops the image's fsync error and the directory
// fsync after the rename: a crash can then lose a snapshot that the log
// was already truncated behind.
func writeSnapshotUnsynced(fs FS, f File) error {
	_ = f.Sync() // want `error result of File\.Sync discarded`
	if err := fs.Rename("snap.tmp", "snap"); err != nil {
		return err
	}
	fs.SyncDir() // want `error result of FS\.SyncDir discarded`
	return nil
}
