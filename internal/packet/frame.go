package packet

// Batched binary wire format for sink ingest (the /report/bin endpoint and
// the WAL's batch records).
//
// A frame is one length-prefixed, CRC-guarded batch of report records:
//
//	offset len
//	0      4   magic "VN2F" (big endian 0x564E3246)
//	4      1   version (2; any other version is rejected)
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
//	delta  0x02 | node u16 | epoch u32 | m u8 | gap uvarint | bitmap ⌈m/8⌉ |
//	            ⌈k/2⌉ × (control u8, 1..8 XOR bytes, 1..8 XOR bytes)
//
// A delta record patches the node's previous vector: the one of length m
// and epoch == epoch − gap (mod 2³²). Bitmap bit i (byte i/8, bit i%8 from
// the least significant; bits ≥ m are 0) marks slot i changed, k bits in
// all. A changed slot carries x = bits(new) XOR bits(base) without its zero
// bytes: a control nibble — top two bits the leading zero bytes dropped
// (0..3), low two bits selecting the trailing ones dropped (0, 3, 4, 5) —
// and the 8 − lead − tail bytes between. Slots travel in pairs: a control
// byte, high nibble first, then both spans; an odd k ends on a 0 low nibble
// and one span. The receiver XORs x back onto its cached base; XOR is its
// own inverse on bit patterns, so no arithmetic ever touches a value.
// Consecutive values of a metric share sign, exponent and top mantissa
// bytes, and an integer counter below 2²⁸/2²⁰/2¹² has 3/4/5 zero low bytes,
// so a counter tick costs 1–2 bytes and a float gauge 5–6 instead of 9. A
// receiver whose cache does not hold (node, base) must reject the whole
// frame so the sender can fall back to full encoding — reconstruction
// against the wrong base would be silent corruption.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
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

// FramePreamble is the first six bytes of every frame header: magic,
// version 2, zero flags. Frames that start otherwise are rejected; a probe
// sends it alone to stall mid-header.
const FramePreamble = "VN2F\x02\x00"

// A delta control nibble c says its XOR word lost c>>2 leading and
// deltaTail[c] trailing zero bytes, leaving deltaSpan[c] = 8 − lead − tail
// on the wire (0: no such nibble).
var (
	deltaTail = [16]uint8{0, 3, 4, 5, 0, 3, 4, 5, 0, 3, 4, 5, 0, 3, 4, 5}
	deltaSpan = [16]uint8{8, 5, 4, 3, 7, 4, 3, 2, 6, 3, 2, 1, 5, 2, 1, 0}
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
	RecFull  RecKind = 0x01
	RecDelta RecKind = 0x02
)

// WireRecord is one decoded frame record. For RecFull, Values holds the
// complete metric vector. For RecDelta, Values is nil and Patch rewrites
// the node's cached vector — the one whose epoch equals Base and whose
// length equals Len — into this record's vector.
//
// Values and the patch alias the decoder's arena and the frame buffer; they
// are valid only until the next Decode call.
type WireRecord struct {
	Node   NodeID
	Epoch  uint32
	Kind   RecKind
	Base   uint32 // RecDelta: epoch of the base vector
	Len    int    // vector length (RecDelta: required base length)
	Values []float64
	bitmap []byte   // RecDelta: bit i set = slot i changed; no bit ≥ Len
	xor    []uint64 // RecDelta: one nonzero XOR word per set bit, in slot order
	wire   []byte   // the record's validated bytes in the frame, kind byte to last value
}

// Patch turns vec, a copy of the base vector of a RecDelta record, into the
// record's vector by XORing each changed slot's bit pattern.
func (r *WireRecord) Patch(vec []float64) {
	k := 0
	for j, b := range r.bitmap {
		for ; b != 0; b &= b - 1 {
			ix := 8*j + bits.TrailingZeros8(b)
			vec[ix] = math.Float64frombits(math.Float64bits(vec[ix]) ^ r.xor[k])
			k++
		}
	}
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
	buf   []byte
	n     int
	fulls int
	last  map[NodeID]*encBase
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
	e.n, e.fulls = 0, 0
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

// Fulls reports how many of them are full records.
func (e *FrameEncoder) Fulls() int { return e.fulls }

// checkRecord checks one more record, of epoch and vector length m, for a
// frame holding n against the wire's ranges.
func checkRecord(n, epoch, m int) error {
	if n >= MaxFrameRecords {
		return fmt.Errorf("%w: %d records", ErrFrameTooLarge, n)
	}
	if epoch < 0 || int64(epoch) > math.MaxUint32 {
		return fmt.Errorf("%w: epoch %d outside u32", ErrFrameTooLarge, epoch)
	}
	if m > MaxVectorLen {
		return fmt.Errorf("%w: vector length %d", ErrFrameTooLarge, m)
	}
	return nil
}

// Add appends one report, delta-encoded when the node has a baseline of
// the same length and the delta comes out smaller than a full record, and
// full otherwise. The baseline advances to vec either way.
func (e *FrameEncoder) Add(node NodeID, epoch int, vec []float64) error {
	if err := checkRecord(e.n, epoch, len(vec)); err != nil {
		return err
	}
	base, ok := e.last[node]
	if !ok || len(base.vals) != len(vec) {
		return e.addFull(node, epoch, vec)
	}
	start := len(e.buf)
	e.buf = append(e.buf, byte(RecDelta))
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(node))
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(epoch))
	e.buf = append(e.buf, byte(len(vec)))
	e.buf = binary.AppendUvarint(e.buf, uint64(uint32(epoch)-base.epoch))
	bitmap := len(e.buf)
	buf := append(e.buf, make([]byte, (len(vec)+7)/8)...)
	k, control := 0, 0
	for i, v := range vec {
		x := math.Float64bits(v) ^ math.Float64bits(base.vals[i])
		if x == 0 {
			continue
		}
		buf[bitmap+i/8] |= 1 << (i % 8)
		lead := min(bits.LeadingZeros64(x)/8, 3)
		nib := byte(lead<<2 + max(min(bits.TrailingZeros64(x)/8, 5)-2, 0))
		if k%2 == 0 {
			control = len(buf)
			buf = append(buf, nib<<4)
		} else {
			buf[control] |= nib
		}
		k++
		// Write the word from its first kept byte, then keep only the span.
		n := len(buf)
		buf = binary.BigEndian.AppendUint64(buf, x<<(8*lead))
		buf = buf[:n+int(deltaSpan[nib])]
	}
	e.buf = buf
	if len(e.buf)-start >= 8+8*len(vec) {
		e.buf = e.buf[:start]
		return e.addFull(node, epoch, vec)
	}
	e.n++
	base.epoch = uint32(epoch)
	copy(base.vals, vec)
	return nil
}

// AddFull appends one report with full encoding regardless of any baseline
// (the WAL path stores batches fully materialized so replay never depends
// on truncated history).
func (e *FrameEncoder) AddFull(node NodeID, epoch int, vec []float64) error {
	if err := checkRecord(e.n, epoch, len(vec)); err != nil {
		return err
	}
	return e.addFull(node, epoch, vec)
}

func (e *FrameEncoder) addFull(node NodeID, epoch int, vec []float64) (err error) {
	if e.buf, err = AppendFull(e.buf, node, epoch, vec); err != nil {
		return err
	}
	e.fulls++
	e.n++
	base, ok := e.last[node]
	if !ok {
		base = &encBase{}
		e.last[node] = base
	}
	if len(base.vals) != len(vec) {
		base.vals = make([]float64, len(vec))
	}
	base.epoch = uint32(epoch)
	copy(base.vals, vec)
	return nil
}

// Frame finalizes the header (count, length, CRC) and returns the encoded
// frame. The slice aliases the encoder's buffer: it is valid until the next
// Reset or Add.
func (e *FrameEncoder) Frame() ([]byte, error) { return SealFrame(e.buf, e.n) }

// AppendFull appends one full record to buf, a frame under construction —
// the bytes AddFull writes, with no delta baseline kept — or returns buf
// unchanged with the error AddFull would give.
func AppendFull(buf []byte, node NodeID, epoch int, vec []float64) ([]byte, error) {
	if err := checkRecord(0, epoch, len(vec)); err != nil {
		return buf, err
	}
	buf = append(buf, byte(RecFull))
	buf = binary.BigEndian.AppendUint16(buf, uint16(node))
	buf = binary.BigEndian.AppendUint32(buf, uint32(epoch))
	buf = append(buf, byte(len(vec)))
	for _, v := range vec {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// SealFrame checks the frame limits of buf — FrameHeaderLen bytes of header
// room, then n records — and fills in its header.
func SealFrame(buf []byte, n int) ([]byte, error) {
	if n > MaxFrameRecords {
		return nil, fmt.Errorf("%w: %d records", ErrFrameTooLarge, n)
	}
	if payload := len(buf) - FrameHeaderLen; payload > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, payload)
	}
	sealFrame(buf, n)
	return buf, nil
}

// sealFrame fills in the header of buf, a frame of n records: FrameHeaderLen
// bytes to overwrite, then the payload.
func sealFrame(buf []byte, n int) {
	payload := buf[FrameHeaderLen:]
	copy(buf, FramePreamble)
	binary.BigEndian.PutUint16(buf[6:], uint16(n))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[12:], crc32.Checksum(payload, frameCRCTable))
}

// --- decoder ---------------------------------------------------------------

// FrameDecoder parses frames into WireRecords without allocating in steady
// state: records, vector values and delta XOR words live in arenas reused
// across Decode calls. The returned records are valid only until the next
// Decode. The decoder is not safe for concurrent use.
type FrameDecoder struct {
	recs []WireRecord
	vals []float64 // arena backing Values (fixed up after the scan)
	xors []uint64  // arena backing the delta XOR words
	refs []valRef
}

// valRef remembers which arena span a record's Values or XOR words occupy
// while the arenas may still grow (append can move them).
type valRef struct{ off, n int }

// decodeDelta parses the delta record rec of vector length m from offset p
// (bitmap, then control bytes and XOR spans), appending the XOR words to
// xors. It returns the record's length, or a non-empty defect. A function
// of its own so the value loop's few variables stay in registers.
func decodeDelta(rec []byte, p, m int, xors []uint64) (int, []uint64, string) {
	if len(rec)-p < (m+7)/8 {
		return 0, nil, "truncated bitmap"
	}
	k := 0
	for _, b := range rec[p : p+(m+7)/8] {
		k += bits.OnesCount8(b)
	}
	if m%8 != 0 && rec[p+m/8]>>(m%8) != 0 {
		return 0, nil, "bitmap bit past vector length"
	}
	p += (m + 7) / 8
	var control byte
	for j := 0; j < k; j++ {
		nib := control & 0x0f
		if j%2 == 0 {
			if p == len(rec) {
				return 0, nil, "truncated"
			}
			control, p = rec[p], p+1
			nib = control >> 4
		}
		span := deltaSpan[nib]
		p += int(span)
		if span == 0 || p > len(rec) {
			return 0, nil, "value span"
		}
		// The span is the low bytes of the 8 that end with it; the record's
		// 8 fixed header bytes guarantee there are 8.
		x := (binary.BigEndian.Uint64(rec[p-8:]) & (1<<(8*span) - 1)) << (8 * deltaTail[nib])
		if x == 0 {
			return 0, nil, "zero XOR for a changed slot"
		}
		xors = append(xors, x)
	}
	if k%2 == 1 && control&0x0f != 0 {
		return 0, nil, "nonzero padding nibble"
	}
	return p, xors, ""
}

// parseHeader validates the preamble and payload bound of a frame's 16
// header bytes and returns its record count and payload length.
func parseHeader(h []byte) (count, plen int, err error) {
	if string(h[:len(FramePreamble)]) != FramePreamble {
		return 0, 0, fmt.Errorf("%w: header starts % x, want % x", ErrBadFrame, h[:len(FramePreamble)], FramePreamble)
	}
	if plen = int(binary.BigEndian.Uint32(h[8:])); plen > MaxFramePayload {
		return 0, 0, fmt.Errorf("%w: payload length %d", ErrBadFrame, plen)
	}
	return int(binary.BigEndian.Uint16(h[6:])), plen, nil
}

// Decode parses one frame. On any error the decoder state is unchanged and
// no records are returned — a frame is all-or-nothing, so a torn wire or a
// flipped bit can never half-apply a batch.
func (d *FrameDecoder) Decode(frame []byte) ([]WireRecord, error) {
	if len(frame) < FrameHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, need %d header bytes", ErrBadFrame, len(frame), FrameHeaderLen)
	}
	count, plen, err := parseHeader(frame)
	if err != nil {
		return nil, err
	}
	if len(frame) < FrameHeaderLen+plen {
		return nil, fmt.Errorf("%w: %d payload bytes, header says %d", ErrBadFrame, len(frame)-FrameHeaderLen, plen)
	}
	payload := frame[FrameHeaderLen : FrameHeaderLen+plen]
	if crc := crc32.Checksum(payload, frameCRCTable); crc != binary.BigEndian.Uint32(frame[12:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}

	d.recs, d.refs, d.vals, d.xors = d.recs[:0], d.refs[:0], d.vals[:0], d.xors[:0]
	off := 0
	for i := 0; i < count; i++ {
		rest := payload[off:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: record %d truncated or past payload end", ErrBadFrame, i)
		}
		rec := WireRecord{
			Kind:  RecKind(rest[0]),
			Node:  NodeID(binary.BigEndian.Uint16(rest[1:])),
			Epoch: binary.BigEndian.Uint32(rest[3:]),
			Len:   int(rest[7]),
		}
		var ref valRef
		switch rec.Kind {
		case RecFull:
			if len(rest) < 8+8*rec.Len {
				return nil, fmt.Errorf("%w: truncated full record %d", ErrBadFrame, i)
			}
			ref = valRef{off: len(d.vals), n: rec.Len}
			for k := 0; k < rec.Len; k++ {
				d.vals = append(d.vals, math.Float64frombits(binary.BigEndian.Uint64(rest[8+8*k:])))
			}
			off += 8 + 8*rec.Len
		case RecDelta:
			gap, n := binary.Uvarint(rest[8:])
			if n <= 0 || gap > math.MaxUint32 {
				return nil, fmt.Errorf("%w: delta record %d: base epoch gap", ErrBadFrame, i)
			}
			rec.Base = rec.Epoch - uint32(gap)
			size, grown, defect := decodeDelta(rest, 8+n, rec.Len, d.xors)
			if defect != "" {
				return nil, fmt.Errorf("%w: delta record %d: %s", ErrBadFrame, i, defect)
			}
			rec.bitmap = rest[8+n : 8+n+(rec.Len+7)/8]
			ref = valRef{off: len(d.xors), n: len(grown) - len(d.xors)}
			d.xors = grown
			off += size
		default:
			return nil, fmt.Errorf("%w: record %d kind %#x", ErrBadFrame, i, rec.Kind)
		}
		rec.wire = payload[len(payload)-len(rest) : off] // rest starts where the record does
		d.recs = append(d.recs, rec)
		d.refs = append(d.refs, ref)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(payload)-off)
	}
	// The arenas have stopped growing; materialize the spans.
	for i := range d.recs {
		ref := d.refs[i]
		if d.recs[i].Kind == RecDelta {
			d.recs[i].xor = d.xors[ref.off : ref.off+ref.n]
		} else {
			d.recs[i].Values = d.vals[ref.off : ref.off+ref.n]
		}
	}
	return d.recs, nil
}

// Split validates frame exactly as Decode does and cuts it at record
// boundaries into k frames: each record's bytes go verbatim, in arrival
// order, into the frame of the part owner(node) names (0 ≤ part < k), under
// that part's own count, length and CRC; a part that owns no record is nil.
// A delta stays a delta against the base its sender chose, so whoever gets a
// part must get every record of its nodes. The parts are fresh allocations;
// the int is the frame's record count.
func (d *FrameDecoder) Split(frame []byte, k int, owner func(NodeID) int) ([][]byte, int, error) {
	recs, err := d.Decode(frame)
	if err != nil {
		return nil, 0, err
	}
	parts, counts := make([][]byte, k), make([]int, k)
	for i := range recs {
		s := owner(recs[i].Node)
		if parts[s] == nil { // sized for an even split's share; append grows the rest
			parts[s] = make([]byte, FrameHeaderLen, FrameHeaderLen+len(frame)/k)
		}
		parts[s] = append(parts[s], recs[i].wire...)
		counts[s]++
	}
	for s, part := range parts {
		if part != nil {
			sealFrame(part, counts[s])
		}
	}
	return parts, len(recs), nil
}
