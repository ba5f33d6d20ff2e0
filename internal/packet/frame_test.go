package packet

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
)

// applyWire reconstructs the vectors a frame describes, the way a sink-side
// consumer does: full records replace the cache, delta records XOR onto the
// cached base. It fails the test on any protocol violation.
func applyWire(t *testing.T, recs []WireRecord, cache map[NodeID][]float64, epochs map[NodeID]uint32) map[NodeID][]float64 {
	t.Helper()
	out := make(map[NodeID][]float64)
	for _, r := range recs {
		switch r.Kind {
		case RecFull:
			v := append([]float64(nil), r.Values...)
			cache[r.Node] = v
			epochs[r.Node] = r.Epoch
			out[r.Node] = v
		case RecDelta:
			base, ok := cache[r.Node]
			if !ok || epochs[r.Node] != r.Base || len(base) != r.Len {
				t.Fatalf("delta for node %d base %d: cache miss", r.Node, r.Base)
			}
			v := append([]float64(nil), base...)
			r.Patch(v)
			cache[r.Node] = v
			epochs[r.Node] = r.Epoch
			out[r.Node] = v
		}
	}
	return out
}

func TestFrameFullRoundTrip(t *testing.T) {
	enc := NewFrameEncoder()
	want := map[NodeID][]float64{
		1: {1.5, -2.25, math.Inf(1), 0, -0.0},
		2: {3, 4, 5},
	}
	for node, vec := range want {
		if err := enc.AddFull(node, 7, vec); err != nil {
			t.Fatalf("AddFull: %v", err)
		}
	}
	frame, err := enc.Frame()
	if err != nil {
		t.Fatalf("Frame: %v", err)
	}
	var dec FrameDecoder
	recs, err := dec.Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	got := applyWire(t, recs, map[NodeID][]float64{}, map[NodeID]uint32{})
	for node, vec := range want {
		g := got[node]
		if len(g) != len(vec) {
			t.Fatalf("node %d: got %v, want %v", node, g, vec)
		}
		for k := range vec {
			if math.Float64bits(g[k]) != math.Float64bits(vec[k]) {
				t.Errorf("node %d metric %d: got %v (bits %x), want %v (bits %x)",
					node, k, g[k], math.Float64bits(g[k]), vec[k], math.Float64bits(vec[k]))
			}
		}
	}
}

// TestFrameDeltaRoundTrip drives several epochs of slowly-moving vectors
// through encoder and a decoder-side cache, asserting bit-exact
// reconstruction and that the codec actually chose delta encoding.
func TestFrameDeltaRoundTrip(t *testing.T) {
	const nodes, epochs = 5, 8
	enc := NewFrameEncoder()
	var dec FrameDecoder
	cache := map[NodeID][]float64{}
	epochMap := map[NodeID]uint32{}
	vecs := make(map[NodeID][]float64)
	for n := NodeID(1); n <= nodes; n++ {
		v := make([]float64, metricspec.MetricCount)
		for k := range v {
			v[k] = float64(int(n)*100 + k)
		}
		vecs[n] = v
	}
	sawDelta := false
	var fullBytes, wireBytes int
	for e := 1; e <= epochs; e++ {
		enc.Reset()
		for n := NodeID(1); n <= nodes; n++ {
			v := vecs[n]
			if e > 1 {
				// Slow counters: only a couple of metrics move per epoch.
				v[metricspec.TransmitCounter] += 3
				v[metricspec.Uptime] += 60
				v[metricspec.Temperature] += 0.125
			}
			if err := enc.Add(n, e, v); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		frame, err := enc.Frame()
		if err != nil {
			t.Fatalf("Frame: %v", err)
		}
		wireBytes += len(frame)
		fullBytes += nodes * (8 + 8*metricspec.MetricCount)
		recs, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("epoch %d Decode: %v", e, err)
		}
		for _, r := range recs {
			if r.Kind == RecDelta {
				sawDelta = true
			}
		}
		got := applyWire(t, recs, cache, epochMap)
		for n := NodeID(1); n <= nodes; n++ {
			for k, wv := range vecs[n] {
				if math.Float64bits(got[n][k]) != math.Float64bits(wv) {
					t.Fatalf("epoch %d node %d metric %d: got %v, want %v", e, n, k, got[n][k], wv)
				}
			}
		}
	}
	if !sawDelta {
		t.Fatal("no delta records were emitted for a slow-moving stream")
	}
	if wireBytes >= fullBytes/2 {
		t.Errorf("delta frames used %d bytes, full payloads would be %d — expected well under half", wireBytes, fullBytes)
	}
}

// reportRecordFrame returns a CRC-valid frame holding a full record, a
// delta record and one record of the retired kind 0x03 (the three mote
// packets verbatim) — what an old client could still put on the wire.
func reportRecordFrame(t testing.TB) []byte {
	t.Helper()
	enc := NewFrameEncoder()
	vec := make([]float64, metricspec.MetricCount)
	for k := range vec {
		vec[k] = float64(k) * 1.5
	}
	if err := enc.AddFull(1, 1, vec); err != nil {
		t.Fatal(err)
	}
	vec[7] = math.Pi
	if err := enc.Add(1, 2, vec); err != nil {
		t.Fatal(err)
	}
	rep := sampleReport()
	c1, _ := rep.C1.MarshalBinary()
	c2, _ := rep.C2.MarshalBinary()
	c3, _ := rep.C3.MarshalBinary()
	enc.buf = append(enc.buf, 0x03, 0, 0, 0, 3, byte(len(c2)))
	enc.buf = append(append(append(enc.buf, c1...), c2...), c3...)
	enc.n++
	frame, err := enc.Frame()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), frame...)
}

// TestFrameReportRecord: record kind 0x03 is retired. A frame carrying one
// is rejected whole as ErrBadFrame — the valid records ahead of it are not
// returned either — like any other unknown kind.
func TestFrameReportRecord(t *testing.T) {
	var dec FrameDecoder
	recs, err := dec.Decode(reportRecordFrame(t))
	if !errors.Is(err, ErrBadFrame) || recs != nil {
		t.Fatalf("Decode = %d records, err %v; want none and ErrBadFrame", len(recs), err)
	}
}

func TestFrameRejects(t *testing.T) {
	enc := NewFrameEncoder()
	vec := make([]float64, metricspec.MetricCount)
	for e := 1; e <= 2; e++ {
		enc.Reset()
		vec[3] = float64(e)
		if err := enc.Add(4, e, vec); err != nil {
			t.Fatal(err)
		}
	}
	frame, err := enc.Frame()
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), frame...)
	var dec FrameDecoder

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:FrameHeaderLen-1],
		"truncated": good[:len(good)-3],
		"bad magic": append([]byte{0, 0, 0, 0}, good[4:]...),
		"bad crc":   flipByte(good, len(good)-1),
		"version":   flipByte(good, 4),
		"version 1": append(append(append([]byte(nil), good[:4]...), 1), good[5:]...),
		"flags":     flipByte(good, 5),
	}
	for name, b := range cases {
		if _, err := dec.Decode(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
		if parts, _, err := dec.Split(b, 2, func(n NodeID) int { return int(n) % 2 }); !errors.Is(err, ErrBadFrame) || parts != nil {
			t.Errorf("%s: Split = %d parts, err %v; want none and ErrBadFrame", name, len(parts), err)
		}
	}
	// The good frame still decodes after all those rejects.
	if _, err := dec.Decode(good); err != nil {
		t.Fatalf("good frame after rejects: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// rawFrame wraps a hand-built payload of n records in a valid header, so a
// structural defect is what the decoder sees, not a CRC mismatch.
func rawFrame(n int, payload []byte) []byte {
	enc := NewFrameEncoder()
	enc.buf = append(enc.buf, payload...)
	enc.n = n
	frame, _ := enc.Frame()
	return append([]byte(nil), frame...)
}

// malformedDeltaFrames returns CRC-valid frames whose one delta record
// (node 1, epoch 9, m = 9 unless noted) breaks one structural rule each.
func malformedDeltaFrames() map[string][]byte {
	head := func(m byte, rest ...byte) []byte {
		return append([]byte{byte(RecDelta), 0, 1, 0, 0, 0, 9, m}, rest...)
	}
	return map[string][]byte{
		"truncated header":   rawFrame(1, head(9)[:7]),
		"no gap":             rawFrame(1, head(9)),
		"unterminated gap":   rawFrame(1, head(9, 0x80, 0x80)),
		"gap past u32":       rawFrame(1, head(9, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0)),
		"truncated bitmap":   rawFrame(1, head(9, 1, 0x00)),
		"bitmap bit >= m":    rawFrame(1, head(9, 1, 0x00, 0x02, 0x00, 0xaa)),
		"missing control":    rawFrame(1, head(9, 1, 0x01, 0x00)),
		"padding nibble set": rawFrame(1, head(9, 1, 0x01, 0x00, 0xc1, 0xaa)),
		"span of zero bytes": rawFrame(1, head(9, 1, 0x01, 0x00, 0xf0)),
		"span overruns":      rawFrame(1, head(9, 1, 0x01, 0x00, 0x00, 1, 2, 3, 4, 5, 6, 7)),
		"zero XOR":           rawFrame(1, head(9, 1, 0x01, 0x00, 0xc0, 0, 0, 0, 0, 0)),
		"trailing byte":      rawFrame(1, head(9, 1, 0x01, 0x00, 0xd0, 0xaa, 0xbb, 0xcc)),
		"count short":        rawFrame(2, head(9, 1, 0x00, 0x00)),
	}
}

// TestDeltaControlTables: the two nibble tables say the same thing — a span
// is what the leading and trailing trims leave of the 8 bytes.
func TestDeltaControlTables(t *testing.T) {
	for c := range deltaSpan {
		if got, want := int(deltaSpan[c]), 8-c>>2-int(deltaTail[c]); got != want {
			t.Errorf("nibble %#x: span %d, lead and tail leave %d", c, got, want)
		}
	}
}

// TestFrameDeltaRejects: every structural defect of a delta record rejects
// the whole frame as ErrBadFrame.
func TestFrameDeltaRejects(t *testing.T) {
	var dec FrameDecoder
	for name, frame := range malformedDeltaFrames() {
		if recs, err := dec.Decode(frame); !errors.Is(err, ErrBadFrame) || recs != nil {
			t.Errorf("%s: %d records, err %v; want none and ErrBadFrame", name, len(recs), err)
		}
		if parts, _, err := dec.Split(frame, 2, func(n NodeID) int { return int(n) % 2 }); !errors.Is(err, ErrBadFrame) || parts != nil {
			t.Errorf("%s: Split = %d parts, err %v; want none and ErrBadFrame", name, len(parts), err)
		}
	}
	// The nearest well-formed records: an empty bitmap, and three slots —
	// one control byte and two spans, then a control byte with a 0 low
	// nibble and the last span.
	empty := []byte{byte(RecDelta), 0, 1, 0, 0, 0, 9, 9, 1, 0x00, 0x00}
	three := []byte{byte(RecDelta), 0, 1, 0, 0, 0, 9, 9, 1, 0x03, 0x01,
		0xce, 1, 2, 3, 4, 5, 0x7f, // lead 3 tail 0: 5 bytes; lead 3 tail 4: 1 byte
		0xb0, 0x80} // lead 2 tail 5: 1 byte
	recs, err := dec.Decode(rawFrame(2, append(empty, three...)))
	if err != nil || len(recs) != 2 || recs[0].Base != 8 || recs[0].Len != 9 || len(recs[0].xor) != 0 {
		t.Fatalf("well-formed deltas: recs %+v, err %v", recs, err)
	}
	vec := make([]float64, 9)
	recs[1].Patch(vec)
	want := []float64{0: math.Float64frombits(0x0102030405), 1: math.Float64frombits(0x7f << 32), 8: math.Float64frombits(0x80 << 40)}
	if len(recs[1].xor) != 3 || !slices.Equal(vec, want) {
		t.Fatalf("patched a zero vector into %v (%d slots), want %v", vec, len(recs[1].xor), want)
	}
}

// checkSplit cuts frame — which must decode — k ways by node mod k and
// checks the split's contract: part s is a frame that decodes to exactly
// the records s owns, in the original's order and saying the same thing
// (header fields; values or patch bit for bit), an ownerless part is nil,
// and the parts' payloads add up to the original's — nothing re-encoded.
func checkSplit(t *testing.T, frame []byte, k int) {
	t.Helper()
	var dec, splitter FrameDecoder
	recs, err := dec.Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	parts, n, err := splitter.Split(frame, k, func(n NodeID) int { return int(n) % k })
	if err != nil || n != len(recs) || len(parts) != k {
		t.Fatalf("Split %d ways: %d parts, n %d of %d, err %v", k, len(parts), n, len(recs), err)
	}
	got := make([][]WireRecord, k)
	payload, held := 0, 0
	for s, part := range parts {
		if part == nil {
			continue
		}
		if got[s], err = new(FrameDecoder).Decode(part); err != nil || len(got[s]) == 0 {
			t.Fatalf("part %d of %d: %d records, err %v", s, k, len(got[s]), err)
		}
		payload, held = payload+len(part)-FrameHeaderLen, held+len(got[s])
	}
	if want := int(binary.BigEndian.Uint32(frame[8:])); payload != want || held != n {
		t.Fatalf("%d parts carry %d records in %d payload bytes, the frame %d in %d", k, held, payload, n, want)
	}
	for _, w := range recs {
		s := int(w.Node) % k
		if len(got[s]) == 0 {
			t.Fatalf("part %d of %d lacks node %d epoch %d", s, k, w.Node, w.Epoch)
		}
		g := got[s][0]
		if g.Kind != w.Kind || g.Node != w.Node || g.Epoch != w.Epoch || g.Base != w.Base || g.Len != w.Len ||
			!slices.Equal(g.bitmap, w.bitmap) || !slices.Equal(g.xor, w.xor) ||
			!slices.EqualFunc(g.Values, w.Values, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("part %d of %d: record %+v, want %+v", s, k, g, w)
		}
		got[s] = got[s][1:]
	}
}

// TestFrameDeltaOrFull pins the delta-vs-full choice to real sizes: 43
// slots changing to unrelated bit patterns fall back to a full record, a
// repeat of the same vector costs header and empty bitmap only, and the
// baseline advances exactly once either way.
func TestFrameDeltaOrFull(t *testing.T) {
	const m = metricspec.MetricCount
	enc := NewFrameEncoder()
	var dec FrameDecoder
	vec := make([]float64, m)
	add := func(epoch int) WireRecord {
		t.Helper()
		enc.Reset()
		if err := enc.Add(7, epoch, vec); err != nil {
			t.Fatal(err)
		}
		frame, err := enc.Frame()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := dec.Decode(frame)
		if err != nil || len(recs) != 1 {
			t.Fatalf("epoch %d: %d records, err %v", epoch, len(recs), err)
		}
		return recs[0]
	}
	add(1)
	for k := range vec { // every byte of every slot changes
		vec[k] = math.Float64frombits(0x0123456789abcdef*uint64(k+1) | 0x0100000000000001)
	}
	if r := add(2); r.Kind != RecFull || enc.Fulls() != 1 || len(enc.buf)-FrameHeaderLen != 8+8*m {
		t.Fatalf("all-slots-changed record: kind %#x, %d payload bytes; want full, %d", r.Kind, len(enc.buf)-FrameHeaderLen, 8+8*m)
	}
	r := add(3)
	if want := 9 + (m+7)/8; r.Kind != RecDelta || r.Base != 2 || len(r.xor) != 0 || len(enc.buf)-FrameHeaderLen != want {
		t.Fatalf("repeat record: kind %#x base %d, %d changed, %d payload bytes; want delta on 2, 0, %d",
			r.Kind, r.Base, len(r.xor), len(enc.buf)-FrameHeaderLen, want)
	}
	vec[3]++ // the base after the fallback is the full record's vector, once
	if r := add(500); r.Kind != RecDelta || r.Base != 3 || len(r.xor) != 1 || enc.Fulls() != 0 {
		t.Fatalf("delta after fallback: %+v", r)
	}
}

// TestFrameDecoderZeroAlloc pins the decode hot path at zero steady-state
// allocations: every buffer comes from the decoder's reused arenas.
func TestFrameDecoderZeroAlloc(t *testing.T) {
	enc := NewFrameEncoder()
	vec := make([]float64, metricspec.MetricCount)
	for n := NodeID(1); n <= 8; n++ {
		for k := range vec {
			vec[k] = float64(n) + float64(k)
		}
		if err := enc.AddFull(n, 1, vec); err != nil {
			t.Fatal(err)
		}
		vec[5] += 1
		if err := enc.Add(n, 2, vec); err != nil {
			t.Fatal(err)
		}
	}
	frame, err := enc.Frame()
	if err != nil {
		t.Fatal(err)
	}
	var dec FrameDecoder
	if _, err := dec.Decode(frame); err != nil { // warm the arenas
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FrameDecoder.Decode allocates %.1f per call, want 0", allocs)
	}
	// The encoder's delta path reuses its buffer and baselines the same way.
	allocs = testing.AllocsPerRun(100, func() {
		enc.Reset()
		vec[5]++
		if err := enc.Add(1, 3, vec); err != nil || enc.Fulls() != 0 {
			t.Fatalf("Add: %v, %d full records", err, enc.Fulls())
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("FrameEncoder.Add allocates %.1f per delta record, want 0", allocs)
	}
}

// TestC2UnmarshalReusesEntries pins the C2 decode at zero steady-state
// allocations once the Entries table has grown to capacity.
func TestC2UnmarshalReusesEntries(t *testing.T) {
	in := sampleReport().C2
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out C2
	if err := out.UnmarshalBinary(b); err != nil { // warm the table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := out.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("C2.UnmarshalBinary allocates %.1f per call, want 0", allocs)
	}
	if len(out.Entries) != len(in.Entries) || out.Entries[1] != in.Entries[1] {
		t.Fatalf("reused decode corrupted entries: %+v", out.Entries)
	}
}
