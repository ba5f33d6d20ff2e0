package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// --- Ingest decode ladder ----------------------------------------------------

// ingestFrames is how many consecutive epoch batches the ladder cycles
// through; with delta encoding, frame 0 is full (cold encoder) and frames
// 1..ingestFrames-1 are deltas, so the cycle wraps cleanly — the full frame
// re-arms the decoder's cache every revolution.
const ingestFrames = 8

// district is the production-shape report stream the ingest ladder and the
// wire budget share: one seeded CitySee district — 72 nodes, two days, the
// full 43-metric vector with the trace's own epoch-to-epoch sparsity —
// grouped per node in epoch order.
var district = sync.OnceValues(func() ([][]trace.Record, error) {
	res, err := tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: 2, Days: 2, Nodes: 72})
	if err != nil {
		return nil, err
	}
	var nodes [][]trace.Record
	for _, id := range res.Dataset.Nodes() {
		nodes = append(nodes, res.Dataset.Records(id))
	}
	return nodes, nil
})

// ingestWorkload builds the report stream the decode ladder replays: batch
// f holds the f-th report of each of the district's first `batch` nodes, so
// successive batches differ exactly as consecutive real reports do.
func ingestWorkload(tb testing.TB, batch int) [][]trace.Record {
	nodes, err := district()
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]trace.Record, ingestFrames)
	for f := range out {
		for _, recs := range nodes[:batch] {
			out[f] = append(out[f], recs[f])
		}
	}
	return out
}

// TestDeltaWireBudget pins the delta codec's byte cost in tier-1: the whole
// district in (epoch, node) order through one FrameEncoder in 64-record
// frames — frame headers and every node's first full record included —
// must average at most 175 B/report (full encoding costs 352). The subtests
// hold the inner hop to the same budget: what a real cluster.Router sends 2
// and 4 shards is the bytes that arrived, cut at record boundaries, plus a
// frame header per extra slice — never less; re-encoded full it was 352.
func TestDeltaWireBudget(t *testing.T) {
	nodes, err := district()
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for _, n := range nodes {
		recs = append(recs, n...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Epoch < recs[j].Epoch })
	enc := packet.NewFrameEncoder()
	var frames [][]byte
	wire := 0
	for i, rec := range recs {
		if err := enc.Add(rec.Node, rec.Epoch, rec.Vector); err != nil {
			t.Fatal(err)
		}
		if enc.Count() == 64 || i == len(recs)-1 {
			frame, err := enc.Frame()
			if err != nil {
				t.Fatal(err)
			}
			frames, wire = append(frames, bytes.Clone(frame)), wire+len(frame)
			enc.Reset()
		}
	}
	budget := func(t *testing.T, hop int) {
		perReport := float64(hop) / float64(len(recs))
		t.Logf("%d reports, %.1f B/report", len(recs), perReport)
		if hop < wire || perReport > 175 {
			t.Fatalf("%.1f B/report (%d bytes of the client's %d), budget 175", perReport, hop, wire)
		}
	}
	budget(t, wire)
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("router to %d shards", k), func(t *testing.T) {
			hop, urls := &hopBytes{}, strings.Fields(strings.Repeat("http://shard ", k))
			rt, err := cluster.NewRouter(cluster.Config{Shards: urls, Seed: 7, Client: &http.Client{Transport: hop}})
			if err != nil {
				t.Fatal(err)
			}
			h := rt.Handler()
			for _, frame := range frames {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/report/bin", bytes.NewReader(frame)))
				if w.Code != http.StatusAccepted {
					t.Fatalf("router answered %d: %s", w.Code, w.Body)
				}
			}
			budget(t, hop.n)
		})
	}
}

// hopBytes stands in for the network between a router and its shards: it
// counts the bytes of every slice and answers 202.
type hopBytes struct{ n int }

func (h *hopBytes) RoundTrip(req *http.Request) (*http.Response, error) {
	n, err := io.Copy(io.Discard, req.Body)
	h.n += int(n)
	return &http.Response{StatusCode: http.StatusAccepted, Body: http.NoBody}, err
}

// reportIngestMetrics derives the ladder's headline numbers: reports/sec
// through the decoder and allocations per report (total mallocs across the
// run divided by reports decoded — the ≤1 alloc/report budget).
func reportIngestMetrics(b *testing.B, batch int, mallocs uint64) {
	reports := float64(b.N) * float64(batch)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(reports/s, "reports/s")
	}
	b.ReportMetric(float64(mallocs)/reports, "allocs/report")
	b.ReportMetric(float64(batch), "batch")
}

// BenchmarkIngestDecode measures the sink's decode hot path across the
// ingest ladder: batch sizes 1/8/64 × (per-report JSON, binary full
// frames, binary delta frames). The binary rungs also report the wire's
// B/report over one revolution (one full frame in every ingestFrames on the
// delta rung, frame headers included). The JSON rung decodes the same records
// through ingest.Decode; the binary rungs run the frame decoder plus delta
// reconstruction — the full /report/bin decode path minus HTTP and WAL.
func BenchmarkIngestDecode(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		batches := ingestWorkload(b, batch)

		b.Run(fmt.Sprintf("json/batch%d", batch), func(b *testing.B) {
			bodies := make([][]byte, len(batches))
			for i, recs := range batches {
				body, err := json.Marshal(recs)
				if err != nil {
					b.Fatal(err)
				}
				bodies[i] = body
			}
			b.ReportAllocs()
			b.ResetTimer()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				recs, err := ingest.Decode(bodies[i%ingestFrames])
				if err != nil || len(recs) != batch {
					b.Fatalf("decode: %d records, %v", len(recs), err)
				}
			}
			runtime.ReadMemStats(&ms1)
			reportIngestMetrics(b, batch, ms1.Mallocs-ms0.Mallocs)
		})

		encodeFrames := func(b *testing.B, delta bool) [][]byte {
			b.Helper()
			enc := packet.NewFrameEncoder()
			frames := make([][]byte, len(batches))
			for i, recs := range batches {
				enc.Reset()
				for _, rec := range recs {
					var err error
					if delta {
						err = enc.Add(rec.Node, rec.Epoch, rec.Vector)
					} else {
						err = enc.AddFull(rec.Node, rec.Epoch, rec.Vector)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				f, err := enc.Frame()
				if err != nil {
					b.Fatal(err)
				}
				frames[i] = append([]byte(nil), f...)
			}
			return frames
		}
		runBin := func(b *testing.B, delta bool) {
			frames := encodeFrames(b, delta)
			dec := ingest.NewBinaryDecoder()
			// Warm one full revolution so the decoder's arenas and cache
			// maps reach steady state before the clock starts.
			for _, f := range frames {
				if _, err := dec.Decode(f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				recs, err := dec.Decode(frames[i%ingestFrames])
				if err != nil || len(recs) != batch {
					b.Fatalf("decode: %d records, %v", len(recs), err)
				}
			}
			runtime.ReadMemStats(&ms1)
			reportIngestMetrics(b, batch, ms1.Mallocs-ms0.Mallocs)
			wire := 0
			for _, f := range frames {
				wire += len(f)
			}
			b.ReportMetric(float64(wire)/float64(ingestFrames*batch), "B/report")
			if delta && dec.Deltas() == 0 {
				b.Fatal("delta rung decoded no delta records")
			}
		}
		b.Run(fmt.Sprintf("bin/batch%d", batch), func(b *testing.B) { runBin(b, false) })
		b.Run(fmt.Sprintf("bindelta/batch%d", batch), func(b *testing.B) { runBin(b, true) })
	}
}
