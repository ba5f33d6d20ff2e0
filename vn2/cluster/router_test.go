package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// fakeShard is a scriptable stand-in for one `vn2 serve` shard: it records
// every record that reaches its ingest endpoints (decoding both the JSON
// and the binary path with the sink's own decoder), counts ingest requests,
// and answers a scripted status.
type fakeShard struct {
	mu         sync.Mutex
	status     int    // ingest answers this instead of 202 (0 = accept)
	retryAfter string // Retry-After sent with a scripted status
	hits       int    // ingest requests received, whatever the answer
	recs       []trace.Record
	dec        *ingest.BinaryDecoder
	ts         *httptest.Server

	// entered, when non-nil, gets one token per ingest request, which then
	// waits for release to be closed before it is handled.
	entered chan struct{}
	release chan struct{}
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	f := &fakeShard{dec: ingest.NewBinaryDecoder()}
	ingestHandler := func(decode func(raw []byte) ([]trace.Record, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			raw, _ := io.ReadAll(r.Body)
			if f.entered != nil {
				f.entered <- struct{}{}
				<-f.release
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			f.hits++
			if f.status != 0 {
				if f.retryAfter != "" {
					w.Header().Set("Retry-After", f.retryAfter)
				}
				w.WriteHeader(f.status)
				return
			}
			recs, err := decode(raw)
			if err != nil {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			for _, rec := range recs {
				rec.Vector = append([]float64(nil), rec.Vector...)
				f.recs = append(f.recs, rec)
			}
			w.WriteHeader(http.StatusAccepted)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /report", ingestHandler(ingest.Decode))
	mux.HandleFunc("POST /report/bin", ingestHandler(f.dec.Decode))
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.status == 0 {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// answer scripts the shard's ingest status (0 = accept again).
func (f *fakeShard) answer(status int, retryAfter string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.status, f.retryAfter = status, retryAfter
}

func (f *fakeShard) requests() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func (f *fakeShard) records() []trace.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]trace.Record(nil), f.recs...)
}

func testRecords(n, epochs int) []trace.Record {
	var recs []trace.Record
	for e := 1; e <= epochs; e++ {
		for id := 1; id <= n; id++ {
			recs = append(recs, trace.Record{
				Node:   packet.NodeID(id),
				Epoch:  e,
				Vector: []float64{float64(id), float64(e), float64(id * e)},
			})
		}
	}
	return recs
}

func newTestRouter(t *testing.T, shards []*fakeShard) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.ts.URL
	}
	r, err := NewRouter(Config{
		Shards:   urls,
		Seed:     7,
		Attempts: 2,
		RetryMin: time.Microsecond,
		RetryMax: time.Microsecond,
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return r, ts
}

func postBody(t *testing.T, url, ct string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, ct, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestRouterForwardSplit: a mixed-node JSON batch lands on each node's
// ring owner, with per-node record order preserved.
func TestRouterForwardSplit(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	r, ts := newTestRouter(t, shards)

	recs := testRecords(12, 3)
	body, _ := json.Marshal(recs)
	if resp := postBody(t, ts.URL+"/report", "application/json", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report status %d", resp.StatusCode)
	}

	total := 0
	for i, sh := range shards {
		got := sh.records()
		total += len(got)
		lastEpoch := map[packet.NodeID]int{}
		for _, rec := range got {
			if own := r.Ring().Owner(rec.Node); own != i {
				t.Fatalf("shard %d received node %d owned by shard %d", i, rec.Node, own)
			}
			if rec.Epoch <= lastEpoch[rec.Node] {
				t.Fatalf("shard %d: node %d epoch %d arrived out of order", i, rec.Node, rec.Epoch)
			}
			lastEpoch[rec.Node] = rec.Epoch
		}
	}
	if total != len(recs) {
		t.Fatalf("shards received %d records, want %d", total, len(recs))
	}
}

// TestRouterForwardBin: the binary path decodes at the router and reaches
// shards as full-encoded frames with the same split guarantee.
func TestRouterForwardBin(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	r, ts := newTestRouter(t, shards)

	recs := testRecords(8, 2)
	enc := packet.NewFrameEncoder()
	var frames [][]byte
	for e := 0; e < 2; e++ {
		enc.Reset()
		for _, rec := range recs[e*8 : (e+1)*8] {
			if err := enc.Add(rec.Node, rec.Epoch, rec.Vector); err != nil {
				t.Fatal(err)
			}
		}
		frame, err := enc.Frame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), frame...))
	}
	for _, frame := range frames {
		if resp := postBody(t, ts.URL+"/report/bin", "application/octet-stream", frame); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report/bin status %d", resp.StatusCode)
		}
	}
	total := 0
	for i, sh := range shards {
		for _, rec := range sh.records() {
			if own := r.Ring().Owner(rec.Node); own != i {
				t.Fatalf("shard %d received node %d owned by shard %d", i, rec.Node, own)
			}
			total++
		}
	}
	if total != len(recs) {
		t.Fatalf("shards received %d records, want %d", total, len(recs))
	}
}

// wirePost sends recs to the router at base as one batch; full forces the
// binary client's resend form (baselines forgotten, every record fully
// materialized) and means nothing on the JSON wire.
type wirePost func(t *testing.T, base string, recs []trace.Record, full bool) *http.Response

// wires are the ingest encodings a client can speak to the router; each
// call of a constructor is a fresh client (the binary one owns baselines).
var wires = map[string]func() wirePost{
	"json": func() wirePost {
		return func(t *testing.T, base string, recs []trace.Record, _ bool) *http.Response {
			body, err := json.Marshal(recs)
			if err != nil {
				t.Fatal(err)
			}
			return postBody(t, base+"/report", "application/json", body)
		}
	},
	"bin": func() wirePost {
		enc := packet.NewFrameEncoder()
		return func(t *testing.T, base string, recs []trace.Record, full bool) *http.Response {
			if full {
				enc.Forget()
			}
			enc.Reset()
			for _, rec := range recs {
				if err := enc.Add(rec.Node, rec.Epoch, rec.Vector); err != nil {
					t.Fatal(err)
				}
			}
			frame, err := enc.Frame()
			if err != nil {
				t.Fatal(err)
			}
			return postBody(t, base+"/report/bin", "application/octet-stream", frame)
		}
	},
}

// ownedBy filters recs down to the ones shard s owns, order kept.
func ownedBy(r *Router, s int, recs []trace.Record) []trace.Record {
	var out []trace.Record
	for _, rec := range recs {
		if r.Ring().Owner(rec.Node) == s {
			out = append(out, rec)
		}
	}
	return out
}

// TestRouterAckMeansDurable pins the router's one contract on both wires:
// a 202 means every owner shard answered 202 for its slice; anything less
// is a 503 + Retry-After, nothing is kept at the router, and the client's
// whole-batch resend completes the batch with only exact duplicates on the
// shards that already had their slice.
func TestRouterAckMeansDurable(t *testing.T) {
	const nodes, epochs = 10, 3
	for name, client := range wires {
		t.Run(name+"/all shards up", func(t *testing.T) {
			post := client()
			shards := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
			r, ts := newTestRouter(t, shards)
			recs := testRecords(nodes, epochs)
			for e := 0; e < epochs; e++ {
				if resp := post(t, ts.URL, recs[e*nodes:(e+1)*nodes], false); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("epoch %d: status %d, want 202", e+1, resp.StatusCode)
				}
			}
			// Equality with the owner-filtered input is both claims at once:
			// every record on its ring owner, in per-node order.
			for i, sh := range shards {
				if got, want := sh.records(), ownedBy(r, i, recs); !reflect.DeepEqual(got, want) {
					t.Fatalf("shard %d has %d records, want its %d owned ones in order", i, len(got), len(want))
				}
			}
		})

		t.Run(name+"/one shard failing", func(t *testing.T) {
			post := client()
			shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
			r, ts := newTestRouter(t, shards)
			batch := testRecords(nodes, 1)
			want0, want1 := ownedBy(r, 0, batch), ownedBy(r, 1, batch)
			if len(want0) == 0 || len(want1) == 0 {
				t.Fatalf("degenerate split: %d/%d", len(want0), len(want1))
			}

			shards[1].answer(http.StatusServiceUnavailable, "2")
			resp := post(t, ts.URL, batch, false)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
				t.Fatalf("failing shard: status %d Retry-After %q, want 503 with the shard's hint 2",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if got := shards[1].requests(); got != 2 {
				t.Fatalf("failing shard saw %d attempts, want the whole ladder of 2", got)
			}
			// The shard is now marked unready: the resend is refused up front.
			before := shards[0].requests()
			if resp := post(t, ts.URL, batch, true); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("resend during the outage: status %d, want 503", resp.StatusCode)
			}
			if shards[0].requests() != before || shards[1].requests() != 2 {
				t.Fatal("a batch spanning an unready shard was forwarded")
			}

			shards[1].answer(0, "")
			r.ProbeOnce()
			if resp := post(t, ts.URL, batch, true); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("resend after recovery: status %d, want 202", resp.StatusCode)
			}
			if got := shards[1].records(); !reflect.DeepEqual(got, want1) {
				t.Fatalf("recovered shard has %d records, want each of its %d exactly once", len(got), len(want1))
			}
			if got := shards[0].records(); !reflect.DeepEqual(got, append(want0, want0...)) {
				t.Fatalf("healthy shard has %d records, want its slice and one exact duplicate of it", len(got))
			}
		})

		t.Run(name+"/owner already unready", func(t *testing.T) {
			post := client()
			shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
			r, ts := newTestRouter(t, shards)
			r.SetShard(1, shards[1].ts.URL)
			resp := post(t, ts.URL, testRecords(nodes, 1), false)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
				t.Fatalf("unready owner: status %d Retry-After %q, want 503 with the minimum hint 1",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if shards[0].requests() != 0 || shards[1].requests() != 0 {
				t.Fatal("requests reached a shard although an owner was unready")
			}
		})
	}
}

// TestRouterShardRejectPassesThrough is the poison-pill case: a shard that
// answers 4xx to a router-built slice will answer it again, so the status
// goes to the client unretried, the shard stays ready, and the next
// well-formed batch gets through.
func TestRouterShardRejectPassesThrough(t *testing.T) {
	for _, status := range []int{http.StatusRequestEntityTooLarge, http.StatusBadRequest} {
		shards := []*fakeShard{newFakeShard(t)}
		_, ts := newTestRouter(t, shards)
		body, _ := json.Marshal(testRecords(4, 1))

		shards[0].answer(status, "")
		if resp := postBody(t, ts.URL+"/report", "application/json", body); resp.StatusCode != status {
			t.Fatalf("shard answered %d, client saw %d", status, resp.StatusCode)
		}
		if got := shards[0].requests(); got != 1 {
			t.Fatalf("a %d was retried: shard saw %d requests", status, got)
		}
		shards[0].answer(0, "")
		if resp := postBody(t, ts.URL+"/report", "application/json", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch after a %d: status %d, want 202 with no probe in between", status, resp.StatusCode)
		}
	}
}

// TestRouterRejectNamesBadReport: a JSON batch the router itself cannot
// decode draws a 400 carrying ingest.Decode's by-index reason — the same
// text a client posting straight to a sink gets — and reaches no shard.
func TestRouterRejectNamesBadReport(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	_, ts := newTestRouter(t, shards)
	recs := testRecords(5, 1)
	recs[3].Epoch = -1
	body, _ := json.Marshal(recs)

	resp, err := http.Post(ts.URL+"/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "report 3: epoch -1 outside") {
		t.Fatalf("status %d, body %s; want 400 naming report 3 and its epoch", resp.StatusCode, msg)
	}
	for i, sh := range shards {
		if got := sh.requests(); got != 0 {
			t.Fatalf("shard %d saw %d requests for a batch the router rejected", i, got)
		}
	}
}

// TestRouterSetShard: repointing a shard marks it unready — batches that
// span it get 503 and reach neither address — until a probe confirms the
// new address, which then takes the traffic.
func TestRouterSetShard(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t)}
	r, ts := newTestRouter(t, shards)

	replacement := newFakeShard(t)
	r.SetShard(0, replacement.ts.URL)

	body, _ := json.Marshal([]trace.Record{{Node: 3, Epoch: 1, Vector: []float64{1}}})
	if resp := postBody(t, ts.URL+"/report", "application/json", body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("repointed shard before a probe: status %d, want 503", resp.StatusCode)
	}
	if replacement.requests() != 0 {
		t.Fatal("repointed shard got traffic before a probe")
	}
	r.ProbeOnce()
	if resp := postBody(t, ts.URL+"/report", "application/json", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("after the probe: status %d, want 202", resp.StatusCode)
	}
	if got := replacement.records(); len(got) != 1 || got[0].Node != 3 {
		t.Fatalf("replacement records %+v", got)
	}
	if shards[0].requests() != 0 {
		t.Fatal("old shard address still received traffic")
	}
}

// TestRouterNoLockAcrossForward: while one shard sits on a forwarded slice,
// everything that does not need that shard's answer still completes —
// batches owned by another shard, /healthz, /metrics, and SetShard on the
// stuck shard itself. Run under -race (make race).
func TestRouterNoLockAcrossForward(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	shards[1].entered = make(chan struct{}, 1)
	shards[1].release = make(chan struct{})
	r, ts := newTestRouter(t, shards)
	all := testRecords(10, 1)
	post := func(recs []trace.Record) (int, error) {
		body, _ := json.Marshal(recs)
		resp, err := http.Post(ts.URL+"/report", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	stuck := make(chan int, 1)
	go func() {
		code, _ := post(ownedBy(r, 1, all))
		stuck <- code
	}()
	<-shards[1].entered // the forward to shard 1 is now in flight

	done := make(chan error, 1)
	go func() {
		done <- func() error {
			if code, err := post(ownedBy(r, 0, all)); err != nil || code != http.StatusAccepted {
				return fmt.Errorf("batch owned by the other shard: status %d, err %v", code, err)
			}
			for _, path := range []string{"/healthz", "/metrics"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
			}
			r.SetShard(1, shards[1].ts.URL)
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("router work that does not need the stuck shard blocked behind its forward")
	}
	close(shards[1].release)
	if code := <-stuck; code != http.StatusAccepted {
		t.Errorf("the stuck forward finished with status %d, want 202", code)
	}
}
