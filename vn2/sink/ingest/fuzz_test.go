package ingest

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// FuzzDecodeReports hammers the POST /report body decoder with arbitrary
// bytes across its three accepted shapes (bare record, bare array,
// {"reports": [...]} envelope). The invariant is decode-or-reject: never
// panic, never return success with an empty batch (an accepted empty batch
// would ACK nothing as if it were something), and never accept a batch the
// commit point could not journal — every accepted body must survive the
// frame split + full re-encode the WAL append uses, and decode back to the
// same reports.
func FuzzDecodeReports(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`hello`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"reports":[]}`))
	f.Add([]byte(`{"bogus":true}`))
	f.Add([]byte(`{"node":1,"epoch":1,`))
	f.Add([]byte(`{"node":1,"epoch":1}`))
	f.Add([]byte(`{"node":1,"epoch":1,"vector":[1,2,3]}`))
	f.Add([]byte(`[{"node":1,"epoch":1,"vector":[1,2,3]}]`))
	f.Add([]byte(`{"reports":[{"node":1,"epoch":1,"vector":[1,2,3]}]}`))
	f.Add([]byte(`{"reports":[{"node":1,"epoch":1,"vector":[1e308,2e308]}]}`))
	f.Add([]byte(`  [ {"node": 9, "epoch": 2, "vector": [0]} ] `))
	f.Add([]byte(`{"reports":null}`))
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[{"node":1,"epoch":-1,"vector":[1]}]`))
	f.Add([]byte(`[{"node":1,"epoch":4294967296,"vector":[1]}]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := Decode(body)
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("error %v but %d records returned", err, len(recs))
			}
			return
		}
		if len(recs) == 0 {
			t.Fatal("success with an empty batch")
		}
		dec := NewBinaryDecoder()
		for rest := recs; len(rest) > 0; {
			var head []trace.Record
			head, rest = SplitFrame(rest)
			frame, err := FullFrame(nil, head)
			if err != nil {
				t.Fatalf("accepted batch does not frame-encode: %v", err)
			}
			back, err := dec.Decode(frame)
			if err != nil || len(back) != len(head) {
				t.Fatalf("journal frame decodes to %d of %d reports: %v", len(back), len(head), err)
			}
		}
	})
}

// FuzzDeltaRoundTrip is the bit-exactness property of the delta wire: for
// any vector length m and any (base, next) float64 bit patterns — slot i's
// pair is read from data, cycled when short — Add(base), Add(next) through
// the frame decoder and the sink's delta cache returns next bit for bit,
// for any pair of epochs (the gap wraps mod 2³² when next is the earlier),
// and the second record is never larger than a full one. Each frame carries
// the step for three nodes (node j's vector is the step's rotated j slots)
// and the router's hop is held to the same property: the frame split k ways
// by node into k sink caches reconstructs what the one cache fed all of it does.
func FuzzDeltaRoundTrip(f *testing.F) {
	special := []uint64{
		0, 1 << 63, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000001, 0x7ff0000000000001, 0xfff7ffffffffffff, // quiet, signaling, negative NaN payloads
		1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
		math.Float64bits(1234), math.Float64bits(1237), math.Float64bits(0.1), math.Float64bits(0.1000001),
		0x0123456789abcdef, 0xfedcba9876543210,
	}
	var pairs, shifted []byte
	for i, w := range special {
		pairs = binary.BigEndian.AppendUint64(pairs, w)
		pairs = binary.BigEndian.AppendUint64(pairs, special[(i+1)%len(special)])
		shifted = binary.BigEndian.AppendUint64(shifted, w)
		shifted = binary.BigEndian.AppendUint64(shifted, w^0xff<<(8*(i%8))) // one byte differs
	}
	for _, m := range []uint8{0, 1, 8, 9, 43, 255} {
		f.Add(m, uint32(7), uint32(8), pairs)
		f.Add(m, uint32(1<<32-1), uint32(0), pairs[8:]) // base and next roles swapped
		f.Add(m, uint32(9), uint32(1<<31), shifted)
		f.Add(m, uint32(5), uint32(5), []byte{})
	}

	f.Fuzz(func(t *testing.T, m uint8, e0, e1 uint32, data []byte) {
		word := func(j int) float64 {
			var w [8]byte
			for k := range w {
				if len(data) > 0 {
					w[k] = data[(8*j+k)%len(data)]
				}
			}
			return math.Float64frombits(binary.BigEndian.Uint64(w[:]))
		}
		base, next := make([]float64, m), make([]float64, m)
		for i := range base {
			base[i], next[i] = word(2*i), word(2*i+1)
		}
		const nodes = 3
		k := 1 + int(e0)%nodes
		enc := packet.NewFrameEncoder()
		dec := NewBinaryDecoder()
		var splitter packet.FrameDecoder
		shards := []*BinaryDecoder{NewBinaryDecoder(), NewBinaryDecoder(), NewBinaryDecoder()}
		for _, step := range []struct {
			epoch int
			vec   []float64
		}{{int(e0), base}, {int(e1), next}} {
			enc.Reset()
			for j := 0; j < nodes; j++ {
				r := min(j, int(m))
				if err := enc.Add(packet.NodeID(j), step.epoch, slices.Concat(step.vec[r:], step.vec[:r])); err != nil {
					t.Fatal(err)
				}
			}
			frame, err := enc.Frame()
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) > packet.FrameHeaderLen+nodes*(8+8*int(m)) {
				t.Fatalf("%d records in %d bytes, full ones take %d each", nodes, len(frame)-packet.FrameHeaderLen, 8+8*int(m))
			}
			recs, err := dec.Decode(frame)
			if err != nil || len(recs) != nodes {
				t.Fatalf("epoch %d: %d records, err %v", step.epoch, len(recs), err)
			}
			for j, rec := range recs {
				for i, v := range rec.Vector {
					if want := step.vec[(i+j)%int(m)]; rec.Epoch != step.epoch || math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("epoch %d node %d slot %d: got %x, want %x", step.epoch, j, i, math.Float64bits(v), math.Float64bits(want))
					}
				}
			}
			parts, _, err := splitter.Split(frame, k, func(n packet.NodeID) int { return int(n) % k })
			if err != nil {
				t.Fatalf("epoch %d: split %d ways: %v", step.epoch, k, err)
			}
			seen := 0
			for s, part := range parts {
				got, err := shards[s].Decode(part)
				if err != nil {
					t.Fatalf("epoch %d: shard %d of %d: %v", step.epoch, s, k, err)
				}
				for _, rec := range got { // recs[j] is node j's
					if want := recs[rec.Node]; int(rec.Node)%k != s || rec.Epoch != want.Epoch || !slices.EqualFunc(rec.Vector, want.Vector,
						func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
						t.Fatalf("epoch %d: shard %d of %d diverges from the single sink at node %d", step.epoch, s, k, rec.Node)
					}
				}
				seen += len(got)
			}
			if seen != nodes {
				t.Fatalf("epoch %d: %d shards decoded %d records of %d", step.epoch, k, seen, nodes)
			}
		}
	})
}
