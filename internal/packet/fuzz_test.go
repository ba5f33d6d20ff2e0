package packet

import (
	"math"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
)

// The packet fuzz invariant is decode-or-reject: arbitrary bytes never
// panic a decoder, and anything that decodes successfully re-encodes to
// bytes that decode to the same value (the codec has one canonical form).
// Additional seed corpora live in testdata/fuzz/<target>/.

func fuzzSeedPackets(f *testing.F) {
	r := sampleReport()
	if b, err := r.C1.MarshalBinary(); err == nil {
		f.Add(b)
	}
	if b, err := r.C2.MarshalBinary(); err == nil {
		f.Add(b)
	}
	if b, err := r.C3.MarshalBinary(); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TypeC1)})
	f.Add([]byte{0xff, 0x00, 0x01})
}

func FuzzC1(f *testing.F) {
	fuzzSeedPackets(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var p C1
		if err := p.UnmarshalBinary(b); err != nil {
			return
		}
		out, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of decoded C1 failed: %v", err)
		}
		var q C1
		if err := q.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q != p {
			t.Fatalf("canonical round trip diverged: %+v vs %+v", q, p)
		}
	})
}

func FuzzC2(f *testing.F) {
	fuzzSeedPackets(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var p C2
		if err := p.UnmarshalBinary(b); err != nil {
			return
		}
		if len(p.Entries) > metricspec.MaxNeighbors {
			t.Fatalf("decoded %d entries past capacity", len(p.Entries))
		}
		out, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of decoded C2 failed: %v", err)
		}
		var q C2
		if err := q.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q.Node != p.Node || q.Seq != p.Seq || len(q.Entries) != len(p.Entries) {
			t.Fatalf("canonical round trip diverged: %+v vs %+v", q, p)
		}
		for i := range p.Entries {
			if q.Entries[i] != p.Entries[i] {
				t.Fatalf("entry %d diverged: %+v vs %+v", i, q.Entries[i], p.Entries[i])
			}
		}
	})
}

func FuzzC3(f *testing.F) {
	fuzzSeedPackets(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var p C3
		if err := p.UnmarshalBinary(b); err != nil {
			return
		}
		out, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of decoded C3 failed: %v", err)
		}
		var q C3
		if err := q.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q != p {
			t.Fatalf("canonical round trip diverged: %+v vs %+v", q, p)
		}
	})
}

// FuzzFrame hammers the batch frame decoder. Invariants: never panic, never
// accept a frame whose record structure is inconsistent (every accepted
// record has a sane kind, a delta patch that rewrites exactly its announced
// slots inside the declared length, and Values lengths matching its
// header), and accepted frames re-decode identically (the decoder is
// deterministic over its reused arenas). Split rides the same walk and must
// agree with it: a frame Decode rejects Split rejects, and one it accepts
// splits 1 to 4 ways into frames holding the same records per owner, in
// order, in the same payload bytes (checkSplit). Each input is tried twice:
// as a frame, and as a record count byte plus payload sealed in a valid
// header, so mutations reach the record parsers behind the CRC.
func FuzzFrame(f *testing.F) {
	f.Add(reportRecordFrame(f)) // retired kind 0x03: a rejection input
	for _, frame := range malformedDeltaFrames() {
		f.Add(frame)
		f.Add(append([]byte{1}, frame[FrameHeaderLen:]...))
	}
	enc := NewFrameEncoder()
	if b, err := enc.Frame(); err == nil { // empty frame
		f.Add(append([]byte(nil), b...))
	}
	vec := make([]float64, 9)
	enc.AddFull(1, 1, vec)
	vec[0], vec[8] = 1, math.Pi
	enc.Add(1, 2, vec)
	if b, err := enc.Frame(); err == nil { // full + delta, accepted
		f.Add(append([]byte(nil), b...))
		f.Add(append([]byte{2}, b[FrameHeaderLen:]...))
	}
	enc.Reset() // ten nodes six times over: a split must keep deltas behind their in-frame bases
	for e := 1; e <= 6; e++ {
		for n := NodeID(1); n <= 10; n++ {
			vec[0], vec[n%9] = float64(e)*1.25, math.Float64frombits(0x7ff8000000000000|uint64(e)) // a NaN payload
			enc.Add(n, e, vec)
		}
	}
	if b, err := enc.Frame(); err == nil {
		f.Add(append([]byte(nil), b...))
	}
	f.Add([]byte{})
	f.Add([]byte("VN2F"))

	check := func(t *testing.T, b []byte) {
		var dec FrameDecoder
		recs, err := dec.Decode(b)
		if err != nil {
			if parts, _, serr := new(FrameDecoder).Split(b, 2, func(n NodeID) int { return int(n) % 2 }); serr == nil {
				t.Fatalf("Split accepted (%d parts) a frame Decode rejects: %v", len(parts), err)
			}
			return
		}
		for k := 1; k <= 4; k++ {
			checkSplit(t, b, k)
		}
		for i, r := range recs {
			switch r.Kind {
			case RecFull:
				if len(r.Values) != r.Len {
					t.Fatalf("record %d: %d values, header says %d", i, len(r.Values), r.Len)
				}
			case RecDelta:
				// Patch must stay inside a vector of the declared length and
				// flip exactly the announced slots.
				vec := make([]float64, r.Len)
				r.Patch(vec)
				changed := 0
				for _, v := range vec {
					if math.Float64bits(v) != 0 {
						changed++
					}
				}
				if changed != len(r.xor) {
					t.Fatalf("record %d: patch changed %d slots, record says %d", i, changed, len(r.xor))
				}
			default:
				t.Fatalf("record %d: impossible kind %#x", i, r.Kind)
			}
		}
		// Deterministic: a second decode of the same bytes agrees.
		var dec2 FrameDecoder
		recs2, err := dec2.Decode(b)
		if err != nil || len(recs2) != len(recs) {
			t.Fatalf("re-decode diverged: %v, %d vs %d records", err, len(recs2), len(recs))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b)
		if len(b) > 0 {
			check(t, rawFrame(int(b[0]), b[1:]))
		}
	})
}
