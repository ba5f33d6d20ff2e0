package ingest

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// encodeFrame builds a frame through the real client-side encoder so the
// decoder tests exercise the actual wire bytes, not hand-rolled ones.
func encodeFrame(t *testing.T, enc *packet.FrameEncoder, add func(e *packet.FrameEncoder) error) []byte {
	t.Helper()
	enc.Reset()
	if err := add(enc); err != nil {
		t.Fatalf("encode: %v", err)
	}
	frame, err := enc.Frame()
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	return append([]byte(nil), frame...)
}

func TestDecodeEnvelopeEmptyArray(t *testing.T) {
	// {"reports": []} must be diagnosed as an empty batch, not fall through
	// to bare-record parsing and the misleading "report without a vector".
	for _, body := range []string{`{"reports": []}`, `{"reports":[]}`, ` { "reports" : [ ] } `} {
		_, err := Decode([]byte(body))
		if err == nil {
			t.Fatalf("Decode(%q): expected error", body)
		}
		if !strings.Contains(err.Error(), "empty report array") {
			t.Fatalf("Decode(%q): got %q, want empty-report-array", body, err)
		}
	}
	// {"reports": null} names the key with no reports — same diagnosis.
	if _, err := Decode([]byte(`{"reports": null}`)); err == nil ||
		!strings.Contains(err.Error(), "empty report array") {
		t.Fatalf("Decode null reports: got %v, want empty-report-array", err)
	}
	// And a populated envelope still decodes.
	recs, err := Decode([]byte(`{"reports":[{"node":3,"epoch":7,"vector":[1,2]}]}`))
	if err != nil || len(recs) != 1 || recs[0].Node != 3 {
		t.Fatalf("envelope decode: recs=%v err=%v", recs, err)
	}
}

func TestBinaryDecoderFullRoundTrip(t *testing.T) {
	enc := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()
	vecs := map[packet.NodeID][]float64{
		1: {1.5, -0.25, math.Inf(1), 0},
		2: {0, 0, 0, math.Copysign(0, -1)},
	}
	frame := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		for node, v := range vecs {
			if err := e.AddFull(node, 10, v); err != nil {
				return err
			}
		}
		return nil
	})
	recs, err := dec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	for _, rec := range recs {
		want := vecs[rec.Node]
		if rec.Epoch != 10 || len(rec.Vector) != len(want) {
			t.Fatalf("record shape: %+v", rec)
		}
		for i := range want {
			if math.Float64bits(rec.Vector[i]) != math.Float64bits(want[i]) {
				t.Fatalf("node %d [%d]: %v != %v", rec.Node, i, rec.Vector[i], want[i])
			}
		}
	}
	if dec.Nodes() != 2 {
		t.Fatalf("cache holds %d nodes, want 2", dec.Nodes())
	}
}

func TestBinaryDecoderDeltaAcrossFrames(t *testing.T) {
	enc := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()
	base := []float64{100, 200, 300, 400, 500}

	frame1 := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		return e.Add(7, 1, base)
	})
	if _, err := dec.Decode(frame1); err != nil {
		t.Fatal(err)
	}

	// Same vector with two slots bumped: the encoder emits a delta against
	// epoch 1, the decoder reconstructs from its cache.
	next := append([]float64(nil), base...)
	next[0] += 1
	next[4] = math.NaN()
	frame2 := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		return e.Add(7, 2, next)
	})
	before := dec.Deltas()
	recs, err := dec.Decode(frame2)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Deltas() != before+1 {
		t.Fatalf("expected a delta record on the wire (deltas %d -> %d)", before, dec.Deltas())
	}
	for i := range next {
		if math.Float64bits(recs[0].Vector[i]) != math.Float64bits(next[i]) {
			t.Fatalf("slot %d: %v != %v", i, recs[0].Vector[i], next[i])
		}
	}
}

func TestBinaryDecoderIntraFrameDelta(t *testing.T) {
	enc := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()
	v1 := []float64{1, 2, 3}
	v2 := []float64{1, 2, 4}
	v3 := []float64{1, 5, 4}
	frame := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		if err := e.Add(9, 1, v1); err != nil {
			return err
		}
		if err := e.Add(9, 2, v2); err != nil {
			return err
		}
		return e.Add(9, 3, v3)
	})
	recs, err := dec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, want := range [][]float64{v1, v2, v3} {
		for j := range want {
			if recs[i].Vector[j] != want[j] {
				t.Fatalf("rec %d slot %d: %v != %v", i, j, recs[i].Vector[j], want[j])
			}
		}
	}
}

func TestBinaryDecoderRejectsColdDelta(t *testing.T) {
	// A delta for a node the sink has never seen must reject the frame and
	// leave the cache untouched (all-or-nothing).
	enc := packet.NewFrameEncoder()
	warm := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()

	// Prime only the CLIENT encoder so it willingly emits a delta.
	encodeFrame(t, warm, func(e *packet.FrameEncoder) error { return nil })
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.Add(5, 1, base) })
	next := append([]float64(nil), base...)
	next[2] += 1
	deltaFrame := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		if err := e.AddFull(6, 1, base); err != nil { // a valid full rides along
			return err
		}
		return e.Add(5, 2, next)
	})

	if _, err := dec.Decode(deltaFrame); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("got %v, want ErrDeltaBase", err)
	}
	// All-or-nothing: node 6's full record must NOT have been committed.
	if dec.Nodes() != 0 {
		t.Fatalf("cache advanced on a rejected frame: %d nodes", dec.Nodes())
	}
}

func TestBinaryDecoderRejectsStaleBase(t *testing.T) {
	enc := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	f1 := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.Add(5, 1, base) })
	if _, err := dec.Decode(f1); err != nil {
		t.Fatal(err)
	}
	// Advance the sink past the client: the sink now caches epoch 3, but
	// the client still deltas against epoch 1.
	bumped := append([]float64(nil), base...)
	bumped[0] = 9
	f2 := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.AddFull(5, 3, bumped) })
	if _, err := dec.Decode(f2); err != nil {
		t.Fatal(err)
	}
	enc.Forget()
	encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.Add(5, 1, base) })
	next := append([]float64(nil), base...)
	next[1] += 1
	f3 := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.Add(5, 2, next) })
	if _, err := dec.Decode(f3); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("got %v, want ErrDeltaBase for stale base epoch", err)
	}
}

// TestBinaryDecoderMalformedDeltaKeepsCache sweeps every single-byte
// corruption of a delta record (CRC resealed, so the structure checks are
// what rejects it) plus a version-1 header: each frame either decodes or is
// rejected whole as a bad frame, and after a reject the cache still holds
// the base — the untouched delta frame reconstructs next bit for bit.
func TestBinaryDecoderMalformedDeltaKeepsCache(t *testing.T) {
	enc := packet.NewFrameEncoder()
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	next := []float64{1, 2.5, 3, math.Copysign(0, -1), 5, 6, 7, math.NaN(), 1e300}
	full := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.Add(5, 1, base) })
	delta := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.Add(5, 2, next) })
	if enc.Fulls() != 0 {
		t.Fatal("fixture did not delta-encode")
	}
	var frames [][]byte
	for i := packet.FrameHeaderLen; i < len(delta); i++ {
		for _, flip := range []byte{0x01, 0x10, 0x80, 0xff} {
			bad := append([]byte(nil), delta...)
			bad[i] ^= flip
			binary.BigEndian.PutUint32(bad[12:], crc32.Checksum(bad[packet.FrameHeaderLen:], crc32.MakeTable(crc32.Castagnoli)))
			frames = append(frames, bad)
		}
	}
	v1 := append([]byte(nil), delta...)
	v1[4] = 1
	frames = append(frames, v1, delta[:len(delta)-1])
	rejected := 0
	for _, bad := range frames {
		dec := NewBinaryDecoder()
		if _, err := dec.Decode(full); err != nil {
			t.Fatal(err)
		}
		_, err := dec.Decode(bad)
		if err == nil {
			continue // the corruption landed on a value byte, node or epoch
		}
		rejected++
		if !errors.Is(err, packet.ErrBadFrame) && !errors.Is(err, ErrDeltaBase) {
			t.Fatalf("frame %x: err %v, want a bad-frame or delta-base reject", bad, err)
		}
		recs, err := dec.Decode(delta)
		if err != nil {
			t.Fatalf("after rejecting %x the good delta fails: %v", bad, err)
		}
		for i, v := range recs[0].Vector {
			if math.Float64bits(v) != math.Float64bits(next[i]) {
				t.Fatalf("after rejecting %x slot %d: got %v, want %v", bad, i, v, next[i])
			}
		}
	}
	if rejected < len(frames)/4 {
		t.Fatalf("only %d of %d corruptions rejected — the sweep is not reaching the structure checks", rejected, len(frames))
	}
}

func TestBinaryDecoderEmptyFrame(t *testing.T) {
	enc := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()
	frame := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return nil })
	if _, err := dec.Decode(frame); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("got %v, want ErrEmptyFrame", err)
	}
}

// TestBinaryDecoderRecordsOutliveDecode pins the ownership contract: records
// from one Decode stay intact after the next Decode reuses the arenas.
func TestBinaryDecoderRecordsOutliveDecode(t *testing.T) {
	enc := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()
	f1 := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		return e.Add(1, 1, []float64{10, 20, 30})
	})
	recs1, err := dec.Decode(f1)
	if err != nil {
		t.Fatal(err)
	}
	f2 := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		return e.Add(2, 1, []float64{-1, -2, -3})
	})
	if _, err := dec.Decode(f2); err != nil {
		t.Fatal(err)
	}
	if recs1[0].Vector[0] != 10 || recs1[0].Vector[2] != 30 {
		t.Fatalf("first batch clobbered by second decode: %v", recs1[0].Vector)
	}
}

// TestBinaryDecoderAllocBudget pins the hot-path promise: decoding a
// 64-report batch costs well under one allocation per report once the
// caches are warm (one flat float64 backing + one record slice per batch).
func TestBinaryDecoderAllocBudget(t *testing.T) {
	enc := packet.NewFrameEncoder()
	dec := NewBinaryDecoder()
	const reports = 64
	vec := make([]float64, 12)
	for i := range vec {
		vec[i] = float64(i) * 3.5
	}
	// A full frame at epoch 10 and a delta frame at epoch 11 whose bases are
	// the full frame's vectors: the pair cycles cleanly (each full overwrite
	// re-arms the next round of deltas).
	fullFrame := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		for n := 0; n < reports; n++ {
			if err := e.AddFull(packet.NodeID(n+1), 10, vec); err != nil {
				return err
			}
		}
		return nil
	})
	next := append([]float64(nil), vec...)
	next[3] += 42
	deltaFrame := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
		for n := 0; n < reports; n++ {
			if err := e.Add(packet.NodeID(n+1), 11, next); err != nil {
				return err
			}
		}
		return nil
	})
	// Warm the decoder so its cache maps and slices stop growing.
	for i := 0; i < 3; i++ {
		if _, err := dec.Decode(fullFrame); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(deltaFrame); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := dec.Decode(fullFrame); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(deltaFrame); err != nil {
			t.Fatal(err)
		}
	})
	allocs /= 2 // two batches per run
	t.Logf("allocs per 64-report batch: %.1f", allocs)
	if allocs > float64(reports) {
		t.Fatalf("decode allocates %.1f per %d-report batch (> 1 alloc/report)", allocs, reports)
	}
}

// TestObserveMatchesDecode: a batch that arrived as JSON (Observe) leaves
// the delta cache exactly where decoding the same records off a frame
// would — so a client's next delta frame is accepted either way, bit for
// bit, and a cold node still is not.
func TestObserveMatchesDecode(t *testing.T) {
	vec := []float64{1, 2.5, math.Copysign(0, -1), 4}
	recs := []trace.Record{{Node: 3, Epoch: 7, Vector: vec}, {Node: 4, Epoch: 7, Vector: vec}}
	enc := packet.NewFrameEncoder()
	full := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { // primes the client's baselines
		for _, r := range recs {
			if err := e.AddFull(r.Node, r.Epoch, r.Vector); err != nil {
				return err
			}
		}
		return nil
	})
	viaFrame, viaJSON := NewBinaryDecoder(), NewBinaryDecoder()
	if _, err := viaFrame.Decode(full); err != nil {
		t.Fatal(err)
	}
	viaJSON.Observe(recs)
	if viaJSON.Nodes() != 2 {
		t.Fatalf("Observe cached %d nodes, want 2", viaJSON.Nodes())
	}

	next := append([]float64(nil), vec...)
	next[1] = 9
	delta := encodeFrame(t, enc, func(e *packet.FrameEncoder) error { return e.Add(3, 8, next) })
	a, errA := viaFrame.Decode(delta)
	b, errB := viaJSON.Decode(delta)
	if errA != nil || errB != nil {
		t.Fatalf("delta after Decode: %v; after Observe: %v", errA, errB)
	}
	if viaJSON.Deltas() != 1 {
		t.Fatal("follow-up frame carried no delta; the test exercised nothing")
	}
	for k := range next {
		if math.Float64bits(a[0].Vector[k]) != math.Float64bits(b[0].Vector[k]) ||
			math.Float64bits(b[0].Vector[k]) != math.Float64bits(next[k]) {
			t.Fatalf("metric %d: %v via frame, %v via Observe, want %v", k, a[0].Vector[k], b[0].Vector[k], next[k])
		}
	}
	cold := encodeFrame(t, packet.NewFrameEncoder(), func(e *packet.FrameEncoder) error {
		if err := e.AddFull(5, 1, vec); err != nil {
			return err
		}
		e.Reset()
		return e.Add(5, 2, next)
	})
	if _, err := viaJSON.Decode(cold); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("delta for an unobserved node: err %v, want ErrDeltaBase", err)
	}
}

// TestSplitFrame: a batch is cut at whichever frame limit it reaches first
// — record count or payload bytes — and every piece frame-encodes.
func TestSplitFrame(t *testing.T) {
	batch := func(n, m int) []trace.Record {
		vec := make([]float64, m)
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Node: 1, Epoch: i, Vector: vec}
		}
		return recs
	}
	perFull := packet.MaxFramePayload / (8 + 8*packet.MaxVectorLen) // widest records per frame
	cases := []struct {
		name     string
		recs     []trace.Record
		wantHead int
	}{
		{"fits", batch(64, 43), 64},
		{"exactly the record limit", batch(packet.MaxFrameRecords, 0), packet.MaxFrameRecords},
		{"past the record limit", batch(packet.MaxFrameRecords+1, 0), packet.MaxFrameRecords},
		{"past the payload limit", batch(perFull+1, packet.MaxVectorLen), perFull},
	}
	for _, c := range cases {
		head, rest := SplitFrame(c.recs)
		if len(head) != c.wantHead || len(head)+len(rest) != len(c.recs) {
			t.Errorf("%s: split %d → %d + %d, want head %d", c.name, len(c.recs), len(head), len(rest), c.wantHead)
			continue
		}
		if _, err := FullFrame(nil, head); err != nil {
			t.Errorf("%s: head does not encode: %v", c.name, err)
		}
	}
}

// TestFullFrameMatchesEncoder: the WAL's frame builder, which keeps no
// per-node state, writes exactly the bytes FrameEncoder.AddFull does for the
// same records — ±0, NaN payloads, infinities and 255-metric vectors
// included — and reusing its buffer changes nothing.
func TestFullFrameMatchesEncoder(t *testing.T) {
	words := []uint64{0, 1 << 63, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff7ffffffffffff,
		0x7ff0000000000000, 1, math.Float64bits(-1234.5)}
	wide := make([]float64, packet.MaxVectorLen)
	for i := range wide {
		wide[i] = math.Float64frombits(words[i%len(words)] ^ uint64(i)<<20)
	}
	recs := []trace.Record{
		{Node: 1, Epoch: 0, Vector: []float64{math.Copysign(0, -1), 0, math.NaN()}},
		{Node: 2, Epoch: math.MaxUint32, Vector: wide},
		{Node: 1, Epoch: 5, Vector: []float64{}},
		{Node: 65535, Epoch: 7, Vector: wide[:43]},
	}
	enc := packet.NewFrameEncoder()
	var buf []byte
	for n := range recs {
		want := encodeFrame(t, enc, func(e *packet.FrameEncoder) error {
			for _, r := range recs[n:] {
				if err := e.AddFull(r.Node, r.Epoch, r.Vector); err != nil {
					return err
				}
			}
			return nil
		})
		var err error
		if buf, err = FullFrame(buf, recs[n:]); err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(want) {
			t.Fatalf("records %d..: FullFrame differs from AddFull's frame (%d vs %d bytes)", n, len(buf), len(want))
		}
	}
	if _, err := FullFrame(buf, []trace.Record{{Node: 1, Epoch: -1}}); !errors.Is(err, packet.ErrFrameTooLarge) {
		t.Fatalf("epoch -1: err %v, want ErrFrameTooLarge as AddFull gives", err)
	}
}
