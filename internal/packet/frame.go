package packet

// Batched binary wire format for sink ingest (the /report/bin endpoint and
// the WAL's batch records).
//
// A frame is one length-prefixed, CRC-guarded batch of report records:
//
//	offset len
//	0      4   magic "VN2F" (big endian 0x564E3246)
//	4      1   version (1)
//	5      1   flags (reserved, must be 0)
//	6      2   record count n (big endian)
//	8      4   payload length in bytes (big endian)
//	12     4   CRC-32C (Castagnoli) of the payload
//	16     …   payload: exactly n records, back to back
//
// The length prefix lets frames stream over a persistent connection; the
// CRC turns a torn wire into a clean reject (the HTTP handler answers 400
// and the client retransmits) instead of a half-applied batch.
//
// Two record encodings share the payload. All integers are big endian;
// metric values travel as raw IEEE-754 float64 bit patterns, so decoding
// reproduces the sender's vector bit for bit — including −0 and any NaN
// payload, which matters because the delta path reconstructs vectors the
// monitor then first-differences:
//
//	full   0x01 | node u16 | epoch u32 | m u8 | m × value f64
//	delta  0x02 | node u16 | epoch u32 | base u32 | m u8 | k u8 |
//	            k × (index u8, value f64)
//
// A delta record rewrites k entries of the node's previous vector (the one
// with epoch == base): the receiver copies its cached base vector of length
// m and overwrites the k changed indices with the transmitted values. Most
// of the 43 metrics move slowly between consecutive reports, so k ≪ m and
// the record shrinks from 8+8m bytes to 13+9k. A receiver whose cache does
// not hold (node, base) must reject the whole frame so the sender can fall
// back to full encoding — reconstruction against the wrong base would be
// silent corruption.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Frame limits and layout constants.
const (
	// FrameHeaderLen is the fixed byte length of a frame header.
	FrameHeaderLen = 16
	// MaxFrameRecords caps the records one frame may carry (u16 count).
	MaxFrameRecords = 1<<16 - 1
	// MaxFramePayload bounds one frame's payload so a corrupt length field
	// cannot force a huge allocation (matches the WAL's record bound).
	MaxFramePayload = 16 << 20
	// MaxVectorLen caps a record's metric-vector length (u8 on the wire).
	MaxVectorLen = 1<<8 - 1
)

const (
	frameMagic   = 0x564E3246 // "VN2F"
	frameVersion = 1

	recFull  = 0x01
	recDelta = 0x02
)

// Frame codec errors.
var (
	// ErrBadFrame reports a frame whose header, CRC, or record structure is
	// invalid (including truncation — the torn-wire case).
	ErrBadFrame = errors.New("packet: bad frame")
	// ErrFrameTooLarge reports an encode that exceeded the frame limits.
	ErrFrameTooLarge = errors.New("packet: frame limits exceeded")
)

var frameCRCTable = crc32.MakeTable(crc32.Castagnoli)

// RecKind tags a decoded frame record.
type RecKind byte

// Record kinds a frame may carry.
const (
	RecFull  RecKind = recFull
	RecDelta RecKind = recDelta
)

// WireRecord is one decoded frame record. For RecFull, Values holds the
// complete metric vector. For RecDelta, Values is nil and
// the record rewrites entries Idx[i] ← Diff[i] of the node's cached vector
// whose epoch equals Base and whose length equals Len.
//
// Values, Idx and Diff alias the decoder's arena and the frame buffer; they
// are valid only until the next Decode call.
type WireRecord struct {
	Node   NodeID
	Epoch  uint32
	Kind   RecKind
	Base   uint32 // RecDelta: epoch of the base vector
	Len    int    // vector length (RecDelta: required base length)
	Values []float64
	Idx    []byte
	Diff   []float64
}

// --- encoder ---------------------------------------------------------------

type encBase struct {
	epoch uint32
	vals  []float64
}

// FrameEncoder builds frames and owns the sender side of the delta
// protocol: a per-node cache of the last vector added, against which Add
// encodes sparse diffs whenever they are smaller than a full record. The
// encoder is not safe for concurrent use.
type FrameEncoder struct {
	buf  []byte
	n    int
	last map[NodeID]*encBase
}

// NewFrameEncoder returns an encoder with an empty frame and no delta
// baselines.
func NewFrameEncoder() *FrameEncoder {
	return &FrameEncoder{
		buf:  make([]byte, FrameHeaderLen, 1024),
		last: make(map[NodeID]*encBase),
	}
}

// Reset starts a new frame, reusing the buffer. Delta baselines survive —
// consecutive frames diff against the previous frame's vectors, which is
// the whole point.
func (e *FrameEncoder) Reset() {
	e.buf = e.buf[:FrameHeaderLen]
	e.n = 0
}

// Forget drops every delta baseline: subsequent Add calls encode full
// records. Senders call this after any rejected or unacknowledged frame,
// because a receiver that did not commit the frame no longer shares the
// sender's baselines.
func (e *FrameEncoder) Forget() {
	clear(e.last)
}

// Count reports how many records the current frame holds.
func (e *FrameEncoder) Count() int { return e.n }

func (e *FrameEncoder) precheck(epoch int, m int) error {
	if e.n >= MaxFrameRecords {
		return fmt.Errorf("%w: %d records", ErrFrameTooLarge, e.n)
	}
	if epoch < 0 || int64(epoch) > math.MaxUint32 {
		return fmt.Errorf("%w: epoch %d outside u32", ErrFrameTooLarge, epoch)
	}
	if m > MaxVectorLen {
		return fmt.Errorf("%w: vector length %d", ErrFrameTooLarge, m)
	}
	return nil
}

// Add appends one report, choosing delta encoding when the node has a
// baseline of the same length and the diff is smaller than a full record,
// and full encoding otherwise. The baseline advances to vec either way.
func (e *FrameEncoder) Add(node NodeID, epoch int, vec []float64) error {
	if err := e.precheck(epoch, len(vec)); err != nil {
		return err
	}
	base, ok := e.last[node]
	if !ok || len(base.vals) != len(vec) {
		return e.addFull(node, epoch, vec)
	}
	changed := 0
	for k, v := range vec {
		if math.Float64bits(v) != math.Float64bits(base.vals[k]) {
			changed++
		}
	}
	// delta = 1+2+4+4+1+1+9k bytes vs full = 1+2+4+1+8m.
	if changed > MaxVectorLen || 13+9*changed >= 8+8*len(vec) {
		return e.addFull(node, epoch, vec)
	}
	e.buf = append(e.buf, recDelta)
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(node))
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(epoch))
	e.buf = binary.BigEndian.AppendUint32(e.buf, base.epoch)
	e.buf = append(e.buf, byte(len(vec)), byte(changed))
	for k, v := range vec {
		if math.Float64bits(v) != math.Float64bits(base.vals[k]) {
			e.buf = append(e.buf, byte(k))
			e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
		}
	}
	e.commit(node, epoch, vec)
	return nil
}

// AddFull appends one report with full encoding regardless of any baseline
// (the WAL path stores batches fully materialized so replay never depends
// on truncated history).
func (e *FrameEncoder) AddFull(node NodeID, epoch int, vec []float64) error {
	if err := e.precheck(epoch, len(vec)); err != nil {
		return err
	}
	return e.addFull(node, epoch, vec)
}

func (e *FrameEncoder) addFull(node NodeID, epoch int, vec []float64) error {
	e.buf = append(e.buf, recFull)
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(node))
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(epoch))
	e.buf = append(e.buf, byte(len(vec)))
	for _, v := range vec {
		e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
	e.commit(node, epoch, vec)
	return nil
}

func (e *FrameEncoder) commit(node NodeID, epoch int, vec []float64) {
	e.n++
	e.baseline(node, uint32(epoch), vec)
}

func (e *FrameEncoder) baseline(node NodeID, epoch uint32, vec []float64) {
	base, ok := e.last[node]
	if !ok {
		base = &encBase{}
		e.last[node] = base
	}
	if len(base.vals) != len(vec) {
		base.vals = make([]float64, len(vec))
	}
	copy(base.vals, vec)
	base.epoch = epoch
}

// Frame finalizes the header (count, length, CRC) and returns the encoded
// frame. The slice aliases the encoder's buffer: it is valid until the next
// Reset or Add.
func (e *FrameEncoder) Frame() ([]byte, error) {
	payload := e.buf[FrameHeaderLen:]
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, len(payload))
	}
	binary.BigEndian.PutUint32(e.buf[0:], frameMagic)
	e.buf[4] = frameVersion
	e.buf[5] = 0
	binary.BigEndian.PutUint16(e.buf[6:], uint16(e.n))
	binary.BigEndian.PutUint32(e.buf[8:], uint32(len(payload)))
	binary.BigEndian.PutUint32(e.buf[12:], crc32.Checksum(payload, frameCRCTable))
	return e.buf, nil
}

// --- decoder ---------------------------------------------------------------

// FrameDecoder parses frames into WireRecords without allocating in steady
// state: records, vector values and delta indices live in arenas reused
// across Decode calls. The returned records are valid only until the next
// Decode. The decoder is not safe for concurrent use.
type FrameDecoder struct {
	recs []WireRecord
	vals []float64 // arena backing Values/Diff (fixed up after the scan)
	idxs []byte    // arena backing Idx
	refs []valRef
}

// valRef remembers which arena spans a record's Values/Diff and Idx occupy
// while the arenas may still grow (append can move them).
type valRef struct{ off, n, ioff int }

// Decode parses one frame. On any error the decoder state is unchanged and
// no records are returned — a frame is all-or-nothing, so a torn wire or a
// flipped bit can never half-apply a batch.
func (d *FrameDecoder) Decode(frame []byte) ([]WireRecord, error) {
	if len(frame) < FrameHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, need %d header bytes", ErrBadFrame, len(frame), FrameHeaderLen)
	}
	if binary.BigEndian.Uint32(frame) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if frame[4] != frameVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, frame[4], frameVersion)
	}
	if frame[5] != 0 {
		return nil, fmt.Errorf("%w: reserved flags %#x", ErrBadFrame, frame[5])
	}
	count := int(binary.BigEndian.Uint16(frame[6:]))
	plen := int(binary.BigEndian.Uint32(frame[8:]))
	if plen > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload length %d", ErrBadFrame, plen)
	}
	if len(frame) < FrameHeaderLen+plen {
		return nil, fmt.Errorf("%w: %d payload bytes, header says %d", ErrBadFrame, len(frame)-FrameHeaderLen, plen)
	}
	payload := frame[FrameHeaderLen : FrameHeaderLen+plen]
	if crc := crc32.Checksum(payload, frameCRCTable); crc != binary.BigEndian.Uint32(frame[12:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}

	d.recs = d.recs[:0]
	d.vals = d.vals[:0]
	d.idxs = d.idxs[:0]
	d.refs = d.refs[:0]
	off := 0
	for i := 0; i < count; i++ {
		if off >= len(payload) {
			return nil, fmt.Errorf("%w: record %d past payload end", ErrBadFrame, i)
		}
		kind := payload[off]
		var rec WireRecord
		var ref valRef
		switch kind {
		case recFull:
			if len(payload)-off < 8 {
				return nil, fmt.Errorf("%w: truncated full record %d", ErrBadFrame, i)
			}
			m := int(payload[off+7])
			need := 8 + 8*m
			if len(payload)-off < need {
				return nil, fmt.Errorf("%w: truncated full record %d", ErrBadFrame, i)
			}
			rec = WireRecord{
				Kind:  RecFull,
				Node:  NodeID(binary.BigEndian.Uint16(payload[off+1:])),
				Epoch: binary.BigEndian.Uint32(payload[off+3:]),
				Len:   m,
			}
			ref = valRef{off: len(d.vals), n: m}
			for k := 0; k < m; k++ {
				d.vals = append(d.vals, math.Float64frombits(binary.BigEndian.Uint64(payload[off+8+8*k:])))
			}
			off += need
		case recDelta:
			if len(payload)-off < 13 {
				return nil, fmt.Errorf("%w: truncated delta record %d", ErrBadFrame, i)
			}
			m := int(payload[off+11])
			k := int(payload[off+12])
			need := 13 + 9*k
			if len(payload)-off < need {
				return nil, fmt.Errorf("%w: truncated delta record %d", ErrBadFrame, i)
			}
			rec = WireRecord{
				Kind:  RecDelta,
				Node:  NodeID(binary.BigEndian.Uint16(payload[off+1:])),
				Epoch: binary.BigEndian.Uint32(payload[off+3:]),
				Base:  binary.BigEndian.Uint32(payload[off+7:]),
				Len:   m,
			}
			ref = valRef{off: len(d.vals), n: k, ioff: len(d.idxs)}
			// Indices must be strictly ascending and within the declared
			// length, so a record cannot set one entry twice or out of range.
			prev := -1
			for j := 0; j < k; j++ {
				ix := int(payload[off+13+9*j])
				if ix >= m || ix <= prev {
					return nil, fmt.Errorf("%w: delta record %d index %d (len %d)", ErrBadFrame, i, ix, m)
				}
				prev = ix
				d.idxs = append(d.idxs, byte(ix))
				d.vals = append(d.vals, math.Float64frombits(binary.BigEndian.Uint64(payload[off+13+9*j+1:])))
			}
			off += need
		default:
			return nil, fmt.Errorf("%w: record %d kind %#x", ErrBadFrame, i, kind)
		}
		d.recs = append(d.recs, rec)
		d.refs = append(d.refs, ref)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(payload)-off)
	}
	// The arenas have stopped growing; materialize the spans.
	for i := range d.recs {
		ref := d.refs[i]
		span := d.vals[ref.off : ref.off+ref.n]
		if d.recs[i].Kind == RecDelta {
			d.recs[i].Diff = span
			d.recs[i].Idx = d.idxs[ref.ioff : ref.ioff+ref.n]
		} else {
			d.recs[i].Values = span
		}
	}
	return d.recs, nil
}
