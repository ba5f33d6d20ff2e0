package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/vn2/cluster"
)

// --- Router forward ladder ---------------------------------------------------

// routerShardStub is the cheapest possible shard: drain the body, say 202.
// The benchmark then measures the ROUTER's own cost — body decode, ring
// split, per-shard re-marshal, and the forward — not shard ingest.
func routerShardStub() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
	}))
}

func newBenchRouter(b *testing.B, shards int) (*cluster.Router, *httptest.Server, func()) {
	b.Helper()
	stubs := make([]*httptest.Server, shards)
	urls := make([]string, shards)
	for i := range stubs {
		stubs[i] = routerShardStub()
		urls[i] = stubs[i].URL
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Shards:   urls,
		Seed:     7,
		Sleep:    func(time.Duration) {},
		RetryMin: time.Microsecond,
		RetryMax: 2 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	return rt, rts, func() {
		rts.Close()
		for _, s := range stubs {
			s.Close()
		}
	}
}

// BenchmarkRouterForward measures the cluster front door end to end over
// HTTP: a JSON report batch in, the ring split, and one forwarded POST per
// owning shard — the per-batch overhead the router adds on top of a bare
// sink. Rungs scale batch size and fan-out.
func BenchmarkRouterForward(b *testing.B) {
	client := &http.Client{}
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{8, 64} {
			b.Run(fmt.Sprintf("shards%d/batch%d", shards, batch), func(b *testing.B) {
				_, rts, cleanup := newBenchRouter(b, shards)
				defer cleanup()
				batches := ingestWorkload(b, batch)
				bodies := make([][]byte, len(batches))
				for i, recs := range batches {
					body, err := json.Marshal(recs)
					if err != nil {
						b.Fatal(err)
					}
					bodies[i] = body
				}
				post := func(body []byte) {
					req, err := http.NewRequest(http.MethodPost, rts.URL+"/report", bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					req.Header.Set("Content-Type", "application/json")
					resp, err := client.Do(req)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusAccepted {
						b.Fatalf("router: %d", resp.StatusCode)
					}
				}
				post(bodies[0]) // warm connections
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					post(bodies[i%ingestFrames])
				}
				reports := float64(b.N) * float64(batch)
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(reports/s, "reports/s")
				}
				b.ReportMetric(float64(batch), "batch")
			})
		}
	}
}

// BenchmarkRouterForwardBin is the same ladder over POST /report/bin: the
// router decodes the client's delta frame and re-encodes full per-shard
// frames, so this rung carries the decode+re-encode tax.
func BenchmarkRouterForwardBin(b *testing.B) {
	client := &http.Client{}
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{8, 64} {
			b.Run(fmt.Sprintf("shards%d/batch%d", shards, batch), func(b *testing.B) {
				_, rts, cleanup := newBenchRouter(b, shards)
				defer cleanup()
				batches := ingestWorkload(b, batch)
				enc := packet.NewFrameEncoder()
				frames := make([][]byte, len(batches))
				for i, recs := range batches {
					enc.Reset()
					for _, rec := range recs {
						if err := enc.Add(rec.Node, rec.Epoch, rec.Vector); err != nil {
							b.Fatal(err)
						}
					}
					f, err := enc.Frame()
					if err != nil {
						b.Fatal(err)
					}
					frames[i] = append([]byte(nil), f...)
				}
				post := func(frame []byte) {
					req, err := http.NewRequest(http.MethodPost, rts.URL+"/report/bin", bytes.NewReader(frame))
					if err != nil {
						b.Fatal(err)
					}
					req.Header.Set("Content-Type", "application/octet-stream")
					resp, err := client.Do(req)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusAccepted {
						b.Fatalf("router: %d", resp.StatusCode)
					}
				}
				for _, f := range frames { // warm the router's delta cache
					post(f)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					post(frames[i%ingestFrames])
				}
				reports := float64(b.N) * float64(batch)
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(reports/s, "reports/s")
				}
				b.ReportMetric(float64(batch), "batch")
			})
		}
	}
}
