package wal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"github.com/epsilondb/epsilondb/internal/storage"
)

// Recovery: load the newest decodable snapshot, then replay every
// record with LSN greater than the snapshot's from the segments in
// order. A torn tail (incomplete or checksum-mismatched frame) is legal
// only at the very end of the log — the last flush the crash
// interrupted; anywhere else it is corruption and recovery fails loudly
// rather than silently dropping committed transactions. Replay is
// deterministic and idempotent: two independent replays of the same
// directory produce identical stores.

// RecoveryInfo reports what recovery found and did.
type RecoveryInfo struct {
	// SnapshotLSN is the LSN covered by the snapshot that seeded the
	// store; zero when recovery started from empty.
	SnapshotLSN uint64
	// NextLSN is the first LSN the reopened log will assign.
	NextLSN uint64
	// Records is the number of log records applied (after the snapshot
	// filter); Commits and Creates break it down.
	Records int
	Commits int
	Creates int
	// TornTail reports that the log ended in a torn record, which was
	// discarded.
	TornTail bool

	// segments and lastSegSeq seed the reopened log's truncation list.
	segments   []string
	lastSegSeq uint64
}

// Recover rebuilds a store from the log directory and reopens the log
// on top of it, wiring the store's durability to the log. This is the
// boot path of a durable server.
func Recover(fs FS, cfg storage.Config, opts Options) (*storage.Store, *Log, RecoveryInfo, error) {
	store, info, err := Replay(fs, cfg)
	if err != nil {
		return nil, nil, info, err
	}
	l, err := newLog(fs, store, info, opts)
	if err != nil {
		return nil, nil, info, err
	}
	store.SetDurability(l)
	return store, l, info, nil
}

// Replay rebuilds a fresh store from the directory without opening a
// log: newest valid snapshot first, then the record tail. Tests use it
// directly to compare independent replays for idempotency.
func Replay(fs FS, cfg storage.Config) (*storage.Store, RecoveryInfo, error) {
	var info RecoveryInfo
	names, err := fs.List()
	if err != nil {
		return nil, info, err
	}
	segs, snaps, err := classify(names)
	if err != nil {
		return nil, info, err
	}
	for _, s := range segs {
		info.segments = append(info.segments, s.name)
		info.lastSegSeq = s.seq
	}

	store := storage.NewStore(cfg)
	// Newest decodable snapshot wins; an undecodable one (corrupt disk)
	// falls back to the previous, whose covering segments may already be
	// truncated — in that case replay fails on the LSN gap below rather
	// than returning silently stale data.
	for i := len(snaps) - 1; i >= 0; i-- {
		data, rerr := fs.ReadFile(snaps[i].name)
		if rerr != nil {
			continue
		}
		st, lsn, derr := decodeSnapshot(data)
		if derr != nil {
			continue
		}
		for _, os := range st.Objects {
			if err := store.RestoreObject(os); err != nil {
				return nil, info, err
			}
		}
		store.RestoreCommittedInconsistency(st.Imported, st.Exported)
		info.SnapshotLSN = lsn
		break
	}

	maxLSN := info.SnapshotLSN
	for i, seg := range segs {
		data, rerr := fs.ReadFile(seg.name)
		if rerr != nil {
			return nil, info, rerr
		}
		torn, terr := replaySegment(store, data, seg.name, info.SnapshotLSN, &maxLSN, &info)
		if terr != nil {
			return nil, info, terr
		}
		if torn {
			info.TornTail = true
			if i != len(segs)-1 {
				return nil, info, fmt.Errorf("wal: torn record in %s but later segments exist — log corrupted mid-stream", seg.name)
			}
		}
	}
	info.NextLSN = maxLSN + 1
	return store, info, nil
}

// replaySegment applies one segment's records, returning whether it
// ended in a torn tail.
func replaySegment(store *storage.Store, data []byte, name string, snapLSN uint64, maxLSN *uint64, info *RecoveryInfo) (torn bool, err error) {
	if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], segMagic) {
		// The header itself was sheared by the crash (a roll's SyncDir
		// raced the power cut): an empty-of-records torn segment.
		return true, nil
	}
	off := len(segMagic)
	for {
		payload, next, ok, isTorn := nextFrame(data, off)
		if isTorn {
			return true, nil
		}
		if !ok {
			return false, nil
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return false, fmt.Errorf("wal: %s: %w", name, derr)
		}
		off = next
		if rec.LSN > *maxLSN {
			*maxLSN = rec.LSN
		}
		if rec.LSN <= snapLSN {
			continue
		}
		if err := applyRecord(store, rec); err != nil {
			return false, fmt.Errorf("wal: %s: replay lsn %d: %w", name, rec.LSN, err)
		}
		info.Records++
		switch rec.Type {
		case RecordCommit:
			info.Commits++
		case RecordCreate:
			info.Creates++
		}
	}
}

// applyRecord installs one record into a recovering store. Records are
// applied unconditionally in log order: the log was written in publish
// order under one mutex, so replaying it in order reproduces the same
// final state.
func applyRecord(store *storage.Store, rec Record) error {
	switch rec.Type {
	case RecordCommit:
		for _, w := range rec.Commit.Writes {
			if err := store.ApplyCommitted(w.Object, w.Value, w.TS); err != nil {
				return err
			}
		}
		store.AddCommittedInconsistency(rec.Commit.Imported, rec.Commit.Exported)
		return nil
	case RecordCreate:
		_, err := store.CreateWithLimits(rec.Object, rec.Value, rec.OIL, rec.OEL)
		if err != nil && isDuplicateCreate(err) {
			// Idempotency: a create that also survived in a snapshot (or
			// a double replay) is a no-op.
			return nil
		}
		return err
	case RecordLimits:
		store.SetAllLimits(rec.OIL, rec.OEL)
		return nil
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
}

// isDuplicateCreate matches the store's duplicate-id error without
// threading a sentinel through the storage API.
func isDuplicateCreate(err error) bool {
	return err != nil && strings.Contains(err.Error(), "already exists")
}

// ErrNoLog reports a Scan over a directory with no segments.
var ErrNoLog = errors.New("wal: no log segments")

// Scan iterates every decodable record in every segment in order —
// including records a snapshot already covers — stopping cleanly at a
// torn tail. The soak's invariant checks use it to audit per-record
// epsilon bounds offline.
func Scan(fs FS, fn func(Record) error) (RecoveryInfo, error) {
	var info RecoveryInfo
	names, err := fs.List()
	if err != nil {
		return info, err
	}
	segs, snaps, err := classify(names)
	if err != nil {
		return info, err
	}
	if len(segs) == 0 && len(snaps) == 0 {
		return info, ErrNoLog
	}
	if len(snaps) > 0 {
		info.SnapshotLSN = snaps[len(snaps)-1].seq
	}
	for i, seg := range segs {
		data, rerr := fs.ReadFile(seg.name)
		if rerr != nil {
			return info, rerr
		}
		if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], segMagic) {
			info.TornTail = true
			break
		}
		off := len(segMagic)
		for {
			payload, next, ok, torn := nextFrame(data, off)
			if torn {
				info.TornTail = true
				if i != len(segs)-1 {
					return info, fmt.Errorf("wal: torn record in %s but later segments exist", seg.name)
				}
				break
			}
			if !ok {
				break
			}
			rec, derr := decodeRecord(payload)
			if derr != nil {
				return info, fmt.Errorf("wal: %s: %w", seg.name, derr)
			}
			off = next
			info.Records++
			if fn != nil {
				if err := fn(rec); err != nil {
					return info, err
				}
			}
		}
		if info.TornTail {
			break
		}
	}
	return info, nil
}
