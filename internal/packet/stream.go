package packet

// Persistent-stream transport layer for the VN2F frame format. A frame is
// already length-prefixed and self-delimiting (see frame.go), so streaming
// over one long-lived connection is pure transport: the sender writes
// consecutive frames, the receiver answers each with a fixed-size ACK/NACK
// response:
//
//	offset len
//	0      4   magic "VN2A" (big endian 0x564E3241)
//	4      1   status (see StreamStatus)
//	5      1   retry-after hint, seconds (0 = none; set on backpressure
//	           NACKs, mirroring the HTTP 503 Retry-After header)
//	6      2   accepted record count (big endian)
//
// Byte 5 was reserved-must-be-zero before the retry-after hint existed,
// so old receivers paired with new sinks would have dropped the
// connection on a hinted NACK; both ends ship together in this repo, and
// an old SINK always sends 0, which a new receiver reads as "no hint" —
// the direction that matters for mixed fleets of reporters.
//
// The response is the transport's commit signal: StreamAck means every
// record of the frame is journaled and queued (the same durability contract
// as the HTTP 202), any NACK means the sender must treat its delta
// baselines as desynced — Forget and retransmit with full encoding.
//
// Framing errors on a byte stream are unrecoverable: once a header fails to
// parse there is no reliable way to find the next frame boundary, so both
// sides close the connection and the client re-dials. A frame whose header
// parsed but whose payload is corrupt (CRC mismatch, bad record structure)
// IS recoverable — the receiver has consumed exactly the declared length,
// NACKs, and the stream continues.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// StreamStatus is the per-frame verdict a stream sink sends back.
type StreamStatus byte

// Stream response statuses.
const (
	// StreamAck: the whole frame is committed (journaled + queued).
	StreamAck StreamStatus = 0
	// StreamNackBad: the frame was rejected (CRC, structure, or delta-base
	// mismatch); nothing was committed. Resend with full encoding.
	StreamNackBad StreamStatus = 1
	// StreamNackBusy: backpressure — the ingest queue filled before the
	// whole frame was queued. Accepted carries how many records made it;
	// the sender should slow down, Forget, and retransmit fully encoded
	// (the surplus is absorbed by the sink's duplicate handling).
	StreamNackBusy StreamStatus = 2
	// StreamNackUnavailable: the sink is degraded or draining; nothing was
	// committed. Back off and retry (possibly on a new connection).
	StreamNackUnavailable StreamStatus = 3
)

// String names the status for logs and errors.
func (st StreamStatus) String() string {
	switch st {
	case StreamAck:
		return "ack"
	case StreamNackBad:
		return "nack-bad-frame"
	case StreamNackBusy:
		return "nack-busy"
	case StreamNackUnavailable:
		return "nack-unavailable"
	}
	return fmt.Sprintf("status(%d)", byte(st))
}

// StreamRespLen is the fixed byte length of a stream response.
const StreamRespLen = 8

const respMagic = 0x564E3241 // "VN2A"

// ErrBadResp reports a stream response that did not parse; like a framing
// error it is unrecoverable and the connection must be dropped.
var ErrBadResp = errors.New("packet: bad stream response")

// StreamResp is one decoded per-frame verdict.
type StreamResp struct {
	Status   StreamStatus
	Accepted int // records committed (StreamNackBusy: before the queue filled)
	// RetryAfter is the sink's backoff hint in seconds (0 = none), carried
	// in the former reserved byte. Sinks set it on StreamNackBusy and
	// StreamNackUnavailable with the same values their HTTP edge puts in
	// the 503 Retry-After header, so a reporter backs off identically on
	// either transport.
	RetryAfter int
}

// AppendStreamResp appends the wire form of a response to b.
func AppendStreamResp(b []byte, r StreamResp) []byte {
	b = binary.BigEndian.AppendUint32(b, respMagic)
	ra := r.RetryAfter
	if ra < 0 {
		ra = 0
	}
	if ra > 255 {
		ra = 255
	}
	b = append(b, byte(r.Status), byte(ra))
	n := r.Accepted
	if n < 0 {
		n = 0
	}
	if n > MaxFrameRecords {
		n = MaxFrameRecords
	}
	return binary.BigEndian.AppendUint16(b, uint16(n))
}

// ReadStreamResp reads exactly one response off the stream.
func ReadStreamResp(r io.Reader, buf []byte) (StreamResp, error) {
	if cap(buf) < StreamRespLen {
		buf = make([]byte, StreamRespLen)
	}
	buf = buf[:StreamRespLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return StreamResp{}, err
	}
	if binary.BigEndian.Uint32(buf) != respMagic {
		return StreamResp{}, fmt.Errorf("%w: bad magic", ErrBadResp)
	}
	return StreamResp{
		Status:     StreamStatus(buf[4]),
		RetryAfter: int(buf[5]),
		Accepted:   int(binary.BigEndian.Uint16(buf[6:])),
	}, nil
}

// ReadFrame reads one complete frame (header + payload) off the stream into
// buf (grown as needed, reused across calls) and returns it. The header is
// validated — magic, version, reserved flags, payload bound — before the
// payload is read, so a corrupt length field can neither stall the read nor
// force a huge allocation. CRC and record structure are NOT checked here;
// that is FrameDecoder.Decode's job, and a CRC failure is recoverable
// in-stream because the declared length was still consumed.
//
// An error return means the stream is unusable: io errors (EOF, deadline)
// or a malformed header after which no frame boundary can be trusted.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < FrameHeaderLen {
		buf = make([]byte, FrameHeaderLen, 4096)
	}
	buf = buf[:FrameHeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	_, plen, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	total := FrameHeaderLen + plen
	if cap(buf) < total {
		grown := make([]byte, total)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf[FrameHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
