// Package wire implements the framed binary protocol between transaction
// clients and the transaction server.
//
// The prototype of the paper ran synchronous RPC over a LAN (§6); this
// package plays that role over TCP. Each message is one frame:
//
//	offset  size  field
//	0       2     magic 0xED 0x05
//	2       1     protocol version (2)
//	3       1     message type
//	4       4     payload length, big endian
//	8       n     payload
//
// The request set mirrors the five basic operations of the prototype —
// Begin, Read, Write, Commit, Abort — plus a clock-synchronization
// handshake (the virtual-clock correction factor of §6) and a statistics
// probe used by the measurement tools.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Magic identifies epsilondb frames.
var Magic = [2]byte{0xED, 0x05}

// Version is the protocol version this package speaks. Version 2 added
// the latency histograms and live-transaction gauge to StatsOK; version 3
// dropped StatsOK's deadlock-abort counter, which renumbered the abort
// reason after it.
const Version = 3

// MaxPayload bounds frame payloads; larger frames are rejected to protect
// the peer from corrupt length fields.
const MaxPayload = 1 << 20

// MsgType identifies the message carried by a frame.
type MsgType uint8

// Request message types. Tagged and Batch are the pipelining envelopes
// (see pipeline.go); the rest is the seed protocol's synchronous set.
const (
	MsgBegin MsgType = iota + 1
	MsgRead
	MsgWrite
	MsgCommit
	MsgAbort
	MsgSync
	MsgStats
	MsgTagged
	MsgBatch
	MsgReplicaHello
)

// Response message types.
const (
	MsgBeginOK MsgType = iota + 64
	MsgValue
	MsgOK
	MsgSyncOK
	MsgStatsOK
	MsgError
	MsgTaggedReply
	MsgBatchReply
	MsgReplicaSnap
	MsgReplicaRecords
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgBegin:
		return "Begin"
	case MsgRead:
		return "Read"
	case MsgWrite:
		return "Write"
	case MsgCommit:
		return "Commit"
	case MsgAbort:
		return "Abort"
	case MsgSync:
		return "Sync"
	case MsgStats:
		return "Stats"
	case MsgTagged:
		return "Tagged"
	case MsgBatch:
		return "Batch"
	case MsgReplicaHello:
		return "ReplicaHello"
	case MsgBeginOK:
		return "BeginOK"
	case MsgValue:
		return "Value"
	case MsgOK:
		return "OK"
	case MsgSyncOK:
		return "SyncOK"
	case MsgStatsOK:
		return "StatsOK"
	case MsgError:
		return "Error"
	case MsgTaggedReply:
		return "TaggedReply"
	case MsgBatchReply:
		return "BatchReply"
	case MsgReplicaSnap:
		return "ReplicaSnap"
	case MsgReplicaRecords:
		return "ReplicaRecords"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is one protocol message. Implementations append their payload
// encoding and decode from a payload slice.
type Message interface {
	// MsgType returns the frame type byte.
	MsgType() MsgType
	// appendPayload appends the message payload to dst.
	appendPayload(dst []byte) []byte
	// decodePayload parses the payload.
	decodePayload(src *reader)
}

// ErrUnknownMessage reports a frame whose type byte names no message in
// this protocol version. The frame's payload has already been consumed
// when it is returned, so the stream is still in sync: the receiver can
// report the tag to the peer before closing, or even skip the frame.
type ErrUnknownMessage struct {
	// Tag is the offending type byte.
	Tag MsgType
}

func (e *ErrUnknownMessage) Error() string {
	return fmt.Sprintf("wire: unknown message type %d", uint8(e.Tag))
}

// newMessage constructs the empty message for a frame type, drawing
// from the per-type pools (see pool.go). The switch enumerates every
// frame type so the wireexhaustive analyzer can anchor its decode check
// here; recycled structs are zeroed on Recycle, so a pooled message is
// indistinguishable from a fresh one.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case MsgBegin, MsgRead, MsgWrite, MsgCommit, MsgAbort, MsgSync, MsgStats,
		MsgTagged, MsgBatch, MsgReplicaHello,
		MsgBeginOK, MsgValue, MsgOK, MsgSyncOK, MsgStatsOK, MsgError,
		MsgTaggedReply, MsgBatchReply, MsgReplicaSnap, MsgReplicaRecords:
		return pools[t].Get().(Message), nil
	default:
		return nil, &ErrUnknownMessage{Tag: t}
	}
}

// reader is a cursor over a payload with sticky error handling.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload reading %s at offset %d", what, r.off)
	}
}

func (r *reader) u8(what string) uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16(what string) uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64(what string) int64 { return int64(r.u64(what)) }

// rest returns the not-yet-consumed remainder of the payload without
// advancing the cursor (used for checksums over nested sections).
func (r *reader) rest() []byte {
	if r.err != nil || r.off > len(r.b) {
		return nil
	}
	return r.b[r.off:]
}

// take consumes n raw bytes and returns them (aliasing the payload
// buffer: callers must finish with the slice before the next frame).
func (r *reader) take(n int, what string) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) str(what string) string {
	n := int(r.u16(what))
	if r.err != nil || r.off+n > len(r.b) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// leftover reports trailing bytes, which indicate a peer bug.
func (r *reader) finish(t MsgType) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %v payload has %d trailing bytes", t, len(r.b)-r.off)
	}
	return nil
}

func appendU8(dst []byte, v uint8) []byte   { return append(dst, v) }
func putU32(dst []byte, v uint32)           { binary.BigEndian.PutUint32(dst, v) }
func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }

func appendStr(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}
