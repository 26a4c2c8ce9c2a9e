// Package journal is a durable write-ahead journal of request lifecycle
// records for the live serving engine. It exists so that "admitted" can mean
// something across a crash: every admitted request is journaled with its
// full serialized payload before the caller's submission returns, terminal
// outcomes are journaled as requests resolve, and recovery replays every
// journaled request that never reached a terminal record.
//
// Records are committed by one flush goroutine using batched group commit
// — the size+max-wait batcher idiom — so the serving pipeline's stages
// never wait on the disk: the flush goroutine collects a batch, writes and
// fsyncs it while later appends queue behind it, and durability is
// acknowledged asynchronously on per-record response channels. Nothing in
// the serving path waits for the acknowledgement; callers that need the
// durability guarantee take it explicitly (server.Handle.AdmitDurable).
//
// On-disk format: segment files named journal-NNNNNNNN.wal, each starting
// with an 8-byte magic header, followed by CRC-framed records:
//
//	[u32 body length][u32 CRC-32C of body][body]
//
// A torn or corrupt frame ends the readable prefix of its segment; recovery
// keeps everything before it (see Recover). All integers are little-endian.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Kind classifies a journal record.
type Kind uint8

// Record kinds.
const (
	// KindAdmit marks a request's admission; it carries the full serialized
	// request payload and the absolute deadline (0 = none).
	KindAdmit Kind = 1
	// KindCancel marks a caller's cancellation intent, journaled before the
	// cancellation takes effect so recovery never re-executes a request the
	// caller had already given up on.
	KindCancel Kind = 2
	// KindTerminal marks a request reaching its terminal state, with the
	// outcome and a human-readable reason.
	KindTerminal Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindAdmit:
		return "admit"
	case KindCancel:
		return "cancel"
	case KindTerminal:
		return "terminal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Outcome is a journaled terminal state.
type Outcome uint8

// Terminal outcomes.
const (
	OutcomeCompleted Outcome = 1
	OutcomeFailed    Outcome = 2
	OutcomeExpired   Outcome = 3
	OutcomeCancelled Outcome = 4
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeFailed:
		return "failed"
	case OutcomeExpired:
		return "expired"
	case OutcomeCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Record is one journal entry. Which fields are meaningful depends on Kind:
// admit uses Payload and DeadlineNs, terminal uses Outcome and Reason,
// cancel uses only ID.
type Record struct {
	Kind       Kind
	ID         uint64 // server-assigned request ID
	DeadlineNs int64  // absolute unix nanoseconds; 0 = no deadline
	Payload    []byte // full serialized request (admit only)
	Outcome    Outcome
	Reason     string
}

// Framing and segment constants.
const (
	segmentMagic = "BMJRNL01"
	frameHeader  = 8 // u32 length + u32 crc
	// maxBody bounds a single record body; larger frames are rejected at
	// both encode and decode time so a corrupt length field cannot drive a
	// multi-gigabyte allocation during recovery.
	maxBody = 16 << 20
)

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes rec as one CRC-framed record appended to buf and
// returns the extended slice.
func appendRecord(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = append(buf, byte(rec.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, rec.ID)
	switch rec.Kind {
	case KindAdmit:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.DeadlineNs))
		if len(rec.Payload) > maxBody/2 {
			return nil, fmt.Errorf("journal: payload of %d bytes exceeds the %d-byte record bound", len(rec.Payload), maxBody/2)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Payload)))
		buf = append(buf, rec.Payload...)
	case KindCancel:
		// ID only.
	case KindTerminal:
		buf = append(buf, byte(rec.Outcome))
		reason := rec.Reason
		if len(reason) > 1<<16-1 {
			reason = reason[:1<<16-1]
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(reason)))
		buf = append(buf, reason...)
	default:
		return nil, fmt.Errorf("journal: cannot encode record of kind %d", rec.Kind)
	}
	body := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf, nil
}

// decodeRecord parses one frame from data. It returns the decoded record
// and the number of bytes consumed. A short, oversized, or CRC-mismatched
// frame returns an error with n==0 — the caller treats everything from this
// offset on as the segment's torn tail.
func decodeRecord(data []byte) (rec Record, n int, err error) {
	if len(data) < frameHeader {
		return rec, 0, fmt.Errorf("journal: %d trailing bytes, frame header needs %d", len(data), frameHeader)
	}
	bodyLen := binary.LittleEndian.Uint32(data)
	wantCRC := binary.LittleEndian.Uint32(data[4:])
	if bodyLen == 0 || bodyLen > maxBody {
		return rec, 0, fmt.Errorf("journal: implausible frame length %d", bodyLen)
	}
	if uint32(len(data)-frameHeader) < bodyLen {
		return rec, 0, fmt.Errorf("journal: truncated frame: %d of %d body bytes", len(data)-frameHeader, bodyLen)
	}
	body := data[frameHeader : frameHeader+int(bodyLen)]
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		return rec, 0, fmt.Errorf("journal: CRC mismatch: frame says %08x, body hashes to %08x", wantCRC, got)
	}
	if len(body) < 9 {
		return rec, 0, fmt.Errorf("journal: body of %d bytes is smaller than the fixed prefix", len(body))
	}
	rec.Kind = Kind(body[0])
	rec.ID = binary.LittleEndian.Uint64(body[1:])
	rest := body[9:]
	switch rec.Kind {
	case KindAdmit:
		if len(rest) < 12 {
			return rec, 0, fmt.Errorf("journal: admit body too short (%d bytes)", len(rest))
		}
		rec.DeadlineNs = int64(binary.LittleEndian.Uint64(rest))
		plen := binary.LittleEndian.Uint32(rest[8:])
		rest = rest[12:]
		if uint32(len(rest)) != plen {
			return rec, 0, fmt.Errorf("journal: admit payload length %d, body holds %d", plen, len(rest))
		}
		if plen > 0 {
			rec.Payload = append([]byte(nil), rest...)
		}
	case KindCancel:
		if len(rest) != 0 {
			return rec, 0, fmt.Errorf("journal: cancel body has %d unexpected bytes", len(rest))
		}
	case KindTerminal:
		if len(rest) < 3 {
			return rec, 0, fmt.Errorf("journal: terminal body too short (%d bytes)", len(rest))
		}
		rec.Outcome = Outcome(rest[0])
		rlen := binary.LittleEndian.Uint16(rest[1:])
		rest = rest[3:]
		if int(rlen) != len(rest) {
			return rec, 0, fmt.Errorf("journal: terminal reason length %d, body holds %d", rlen, len(rest))
		}
		rec.Reason = string(rest)
	default:
		return rec, 0, fmt.Errorf("journal: unknown record kind %d", body[0])
	}
	return rec, frameHeader + int(bodyLen), nil
}
