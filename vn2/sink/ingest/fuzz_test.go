package ingest

import (
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
		enc := packet.NewFrameEncoder()
		dec := NewBinaryDecoder()
		for rest := recs; len(rest) > 0; {
			var head []trace.Record
			head, rest = SplitFrame(rest)
			frame, err := FullFrame(enc, head)
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
