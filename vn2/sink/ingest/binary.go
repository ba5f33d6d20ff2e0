package ingest

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// Binary ingest errors.
var (
	// ErrEmptyFrame reports a structurally valid frame with zero records —
	// accepting it would ACK nothing as if it were something.
	ErrEmptyFrame = errors.New("ingest: empty binary frame")
	// ErrDeltaBase reports a delta record whose base vector this sink does
	// not hold (cold cache after a restart, or a desynced sender). The whole
	// frame is rejected; the client must retransmit with full encoding.
	ErrDeltaBase = errors.New("ingest: delta base not cached, resend full")
)

// nodeBase is one node's slot in the sink's last-vector cache.
type nodeBase struct {
	epoch uint32
	vec   []float64
}

// BinaryDecoder is the sink side of the batched binary ingest protocol: it
// parses /report/bin frames and reconstructs delta-encoded records against
// a per-node cache of the last vector received. Reconstruction is bit-exact
// because a delta carries the XOR of raw float64 bit patterns and is only
// ever applied to a cached vector the sender provably shares (epoch and
// length are checked; any mismatch rejects the whole frame before the cache
// moves).
//
// Decode is all-or-nothing: the cache commits only after every record in
// the frame has been reconstructed, so a rejected frame leaves the decoder
// exactly as it was — a torn wire or desynced sender can never half-apply
// a batch or poison later deltas.
//
// Not safe for concurrent use but for Release; the server serializes access.
type BinaryDecoder struct {
	dec     packet.FrameDecoder
	last    map[packet.NodeID]*nodeBase
	inFrame map[packet.NodeID]int // node → latest record index, current frame
	deltas  atomic.Uint64         // cumulative delta-encoded records decoded
	free    sync.Pool             // released arenas, for the next frames
}

// Arena is the memory one decoded frame lives in: its records and the one
// flat array their vectors share.
type Arena struct {
	recs []trace.Record
	flat []float64
}

// Records returns the frame's records, valid until the arena is released.
func (a *Arena) Records() []trace.Record { return a.recs }

// keepRecords bounds the arenas Release keeps, at 64 metrics a record (a
// CitySee report has 43): a rare huge frame cannot pin its memory.
const keepRecords = 128

// Deltas reports how many delta-encoded records this decoder has
// reconstructed (the wire-efficiency signal surfaced at /status).
func (d *BinaryDecoder) Deltas() uint64 { return d.deltas.Load() }

// NewBinaryDecoder returns a decoder with a cold cache: until a node's
// first full record arrives, deltas for it are rejected.
func NewBinaryDecoder() *BinaryDecoder {
	return &BinaryDecoder{
		last:    make(map[packet.NodeID]*nodeBase),
		inFrame: make(map[packet.NodeID]int),
		free:    sync.Pool{New: func() any { return new(Arena) }},
	}
}

// Nodes reports how many nodes the last-vector cache holds.
func (d *BinaryDecoder) Nodes() int { return len(d.last) }

// Decode parses one binary frame into trace records. The records own their
// memory — an arena nobody releases — and stay valid after the next
// Decode, so they can sit on a queue while the decoder moves on.
func (d *BinaryDecoder) Decode(raw []byte) ([]trace.Record, error) {
	a, err := d.DecodeArena(raw)
	if err != nil {
		return nil, err
	}
	return a.recs, nil
}

// DecodeArena is Decode into a released arena when there is one. The
// records stay valid until Release takes the arena back: a sink releasing
// each frame's arena once it is applied decodes into memory it has.
func (d *BinaryDecoder) DecodeArena(raw []byte) (*Arena, error) {
	wrecs, err := d.dec.Decode(raw)
	if err != nil {
		return nil, err
	}
	if len(wrecs) == 0 {
		return nil, ErrEmptyFrame
	}
	total := 0
	for i := range wrecs {
		total += wrecs[i].Len
	}
	a := d.free.Get().(*Arena)
	a.recs = slices.Grow(a.recs[:0], len(wrecs))[:len(wrecs)]
	a.flat = slices.Grow(a.flat[:0], total)[:total]
	out, off := a.recs, 0
	clear(d.inFrame)
	for i := range wrecs {
		wr := &wrecs[i]
		vec := a.flat[off : off+wr.Len : off+wr.Len]
		off += wr.Len
		switch wr.Kind {
		case packet.RecFull:
			copy(vec, wr.Values)
		case packet.RecDelta:
			// The base is the node's latest vector: the one earlier in this
			// frame if present, else the cached one from previous frames.
			var baseEpoch uint32
			var base []float64
			if j, ok := d.inFrame[wr.Node]; ok {
				baseEpoch = uint32(out[j].Epoch)
				base = out[j].Vector
			} else if nb, ok := d.last[wr.Node]; ok {
				baseEpoch = nb.epoch
				base = nb.vec
			} else {
				return nil, fmt.Errorf("%w: node %d has no cached vector", ErrDeltaBase, wr.Node)
			}
			if baseEpoch != wr.Base || len(base) != wr.Len {
				return nil, fmt.Errorf("%w: node %d base epoch %d len %d, cached epoch %d len %d",
					ErrDeltaBase, wr.Node, wr.Base, wr.Len, baseEpoch, len(base))
			}
			copy(vec, base)
			wr.Patch(vec)
			d.deltas.Add(1)
		default:
			return nil, fmt.Errorf("%w: record kind %#x", packet.ErrBadFrame, wr.Kind)
		}
		out[i] = trace.Record{Node: wr.Node, Epoch: int(wr.Epoch), Vector: vec}
		d.inFrame[wr.Node] = i
	}
	// Every record reconstructed — commit the cache.
	d.Observe(out)
	return a, nil
}

// Release takes a back for a later frame; none of its records may be in
// use any more. An arena larger than keepRecords allows is left to the
// collector.
func (d *BinaryDecoder) Release(a *Arena) {
	if a != nil && cap(a.recs) <= keepRecords && cap(a.flat) <= keepRecords*64 {
		d.free.Put(a)
	}
}

// Observe advances the last-vector cache to recs, exactly as decoding a
// frame of the same records would: each node's slot moves to its last
// vector in the batch. The commit point calls it for batches that arrived
// as JSON, so the cache is the same function of the journaled batches
// whichever transport carried them — WAL replay feeds every batch through
// Decode. Records must fit the wire's ranges (ingest.Decode guarantees it).
func (d *BinaryDecoder) Observe(recs []trace.Record) {
	for i := range recs {
		nb, ok := d.last[recs[i].Node]
		if !ok {
			nb = &nodeBase{}
			d.last[recs[i].Node] = nb
		}
		if len(nb.vec) != len(recs[i].Vector) {
			nb.vec = make([]float64, len(recs[i].Vector))
		}
		copy(nb.vec, recs[i].Vector)
		nb.epoch = uint32(recs[i].Epoch)
	}
}

// SplitFrame cuts recs into the longest prefix one full-encoded frame can
// hold (record count and payload bytes) and the remainder.
func SplitFrame(recs []trace.Record) (head, rest []trace.Record) {
	size := 0
	for i := range recs {
		size += 8 + 8*len(recs[i].Vector) // one full record on the wire
		if i == packet.MaxFrameRecords || size > packet.MaxFramePayload {
			return recs[:i], recs[i:]
		}
	}
	return recs, nil
}

// FullFrame encodes recs as one frame of full records — the form the WAL
// stores, so a replay that starts after a snapshot truncation never needs
// delta history — reusing buf's storage from its start. It keeps no per-node
// state: the bytes are FrameEncoder.AddFull's for the same records.
func FullFrame(buf []byte, recs []trace.Record) (_ []byte, err error) {
	buf = append(buf[:0], make([]byte, packet.FrameHeaderLen)...)
	for i := range recs {
		if buf, err = packet.AppendFull(buf, recs[i].Node, recs[i].Epoch, recs[i].Vector); err != nil {
			return nil, err
		}
	}
	return packet.SealFrame(buf, len(recs))
}
