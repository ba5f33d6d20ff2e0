package cluster

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// fakeShard is a scriptable stand-in for one `vn2 serve` shard: it records
// every record that reaches its ingest endpoints (decoding both the JSON
// and the binary path with the sink's own decoder), counts ingest requests,
// and answers a scripted status, refusals in the sink's {"error": …} shape.
type fakeShard struct {
	mu         sync.Mutex
	status     int    // ingest answers this instead of 202 (0 = accept)
	retryAfter string // Retry-After sent with a scripted status
	busyOnce   bool   // decode the next request, then refuse it 503 — the sink's order
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
				api.Error(w, f.status, fmt.Sprintf("scripted %d", f.status), nil)
				return
			}
			recs, err := decode(raw)
			if err != nil {
				api.Error(w, http.StatusBadRequest, err.Error(), nil)
				return
			}
			if f.busyOnce {
				f.busyOnce = false
				api.Unavailable(w, 1, "ingest queue full", nil)
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

// testRecords is a fleet's stream in (epoch, node) order. Three of eight
// slots move per epoch, one between 0 and −0: the binary wire sends deltas
// after a node's first report, and equality is bit for bit (sameRecords).
func testRecords(n, epochs int) []trace.Record {
	var recs []trace.Record
	for e := 1; e <= epochs; e++ {
		for id := 1; id <= n; id++ {
			vec := []float64{float64(id), float64(e), float64(id*e) / 7, math.Copysign(0, float64(e%2)-0.5), 4, 5, 6, 7}
			recs = append(recs, trace.Record{Node: packet.NodeID(id), Epoch: e, Vector: vec})
		}
	}
	return recs
}

func sameRecords(a, b []trace.Record) bool {
	return slices.EqualFunc(a, b, func(x, y trace.Record) bool {
		return x.Node == y.Node && x.Epoch == y.Epoch && slices.EqualFunc(x.Vector, y.Vector,
			func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	})
}

func newTestRouter(t *testing.T, shards []*fakeShard) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.ts.URL
	}
	r, err := NewRouter(Config{Shards: urls, Seed: 7})
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
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw)) // replyOf reads it
	return resp
}

// postStatus posts without a *testing.T, so off the test goroutine too.
func postStatus(url, ct string, body []byte) (int, error) {
	resp, err := http.Post(url, ct, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// replyOf decodes the JSON body of a router answer.
func replyOf(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var reply map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("status %d, body is not JSON: %v", resp.StatusCode, err)
	}
	return reply
}

// TestRouterForwardSplit: a mixed-node JSON batch — every node three times
// over — is split stably: each shard holds exactly the records it owns, in
// the batch's order, bit for bit.
func TestRouterForwardSplit(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	r, ts := newTestRouter(t, shards)

	recs := testRecords(12, 3)
	body, _ := json.Marshal(recs)
	if resp := postBody(t, ts.URL+"/report", "application/json", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	for i, sh := range shards {
		if got, want := sh.records(), ownedBy(r, i, recs); !sameRecords(got, want) {
			t.Fatalf("shard %d has %d records, want its %d owned ones in order", i, len(got), len(want))
		}
	}
}

// TestRouterForwardBin: the binary path is a byte split that holds nothing a
// delta needs and shares nothing between requests but pooled frame walkers.
// Gateways owning disjoint node sets post their delta streams at once, and
// half way each moves to a second router that has seen none of it: no Forget,
// no full resend, every answer 202, the deltas reach the shards as deltas and
// every shard reconstructs each owned node's stream, in order, bit for bit
// (across gateways the arrival order is the scheduler's). Run under -race.
func TestRouterForwardBin(t *testing.T) {
	const gateways, nodes, epochs = 4, 8, 4
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	_, first := newTestRouter(t, shards)
	r, second := newTestRouter(t, shards)
	all := testRecords(gateways*nodes, epochs)
	var wg sync.WaitGroup
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc := packet.NewFrameEncoder()
			for e := 0; e < epochs; e++ {
				enc.Reset()
				for _, rec := range all[(e*gateways+g)*nodes:][:nodes] {
					enc.Add(rec.Node, rec.Epoch, rec.Vector)
				}
				frame, _ := enc.Frame()
				ts := []*httptest.Server{first, second}[2*e/epochs]
				if code, err := postStatus(ts.URL+"/report/bin", "application/octet-stream", frame); code != http.StatusAccepted {
					t.Errorf("gateway %d epoch %d: status %d, err %v; want 202", g, e+1, code, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	byNode := func(recs []trace.Record) []trace.Record {
		slices.SortStableFunc(recs, func(a, b trace.Record) int { return cmp.Compare(a.Node, b.Node) })
		return recs
	}
	for i, sh := range shards {
		got, want := byNode(sh.records()), byNode(ownedBy(r, i, all))
		if !sameRecords(got, want) {
			t.Fatalf("shard %d has %d records, want its %d owned ones, each node's in order, bit for bit", i, len(got), len(want))
		}
		if got, want := sh.dec.Deltas(), uint64(len(want)*(epochs-1)/epochs); got != want {
			t.Fatalf("shard %d decoded %d deltas, want all %d the gateways sent it", i, got, want)
		}
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
				if got, want := sh.records(), ownedBy(r, i, recs); !sameRecords(got, want) {
					t.Fatalf("shard %d has %d records, want its %d owned ones in order", i, len(got), len(want))
				}
			}
		})

		// Two ways an owner shard fails a batch, each ended by the client's
		// full resend: the shard answers 503 (shedding) and stays in rotation,
		// or nothing answers (dark) and the shard leaves rotation until a
		// probe re-admits it. Either way the router asked it once.
		t.Run(name+"/one shard failing", func(t *testing.T) {
			t.Run("shedding", func(t *testing.T) {
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
					t.Fatalf("shedding shard: status %d Retry-After %q, want 503 with the shard's hint 2",
						resp.StatusCode, resp.Header.Get("Retry-After"))
				}
				if got := shards[1].requests(); got != 1 {
					t.Fatalf("shedding shard saw %d requests, want its slice once", got)
				}
				// A shed is not an outage: the next batch is forwarded, no
				// probe in between.
				shards[1].answer(0, "")
				if resp := post(t, ts.URL, batch, true); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("resend after the shed: status %d, want 202", resp.StatusCode)
				}
				if got := shards[1].requests(); got != 2 {
					t.Fatalf("shedding shard saw %d requests, want 2: the batch and its resend", got)
				}
				if got := shards[1].records(); !sameRecords(got, want1) {
					t.Fatalf("shedding shard has %d records, want each of its %d exactly once", len(got), len(want1))
				}
				if got := shards[0].records(); !sameRecords(got, append(want0, want0...)) {
					t.Fatalf("healthy shard has %d records, want its slice and one exact duplicate of it", len(got))
				}
			})

			t.Run("dark", func(t *testing.T) {
				post := client()
				shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
				r, ts := newTestRouter(t, shards)
				batch := testRecords(nodes, 1)
				want0, want1 := ownedBy(r, 0, batch), ownedBy(r, 1, batch)
				if len(want0) == 0 || len(want1) == 0 {
					t.Fatalf("degenerate split: %d/%d", len(want0), len(want1))
				}

				shards[1].ts.Close()
				resp := post(t, ts.URL, batch, false)
				if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
					t.Fatalf("dark shard: status %d Retry-After %q, want 503 with the minimum hint 1",
						resp.StatusCode, resp.Header.Get("Retry-After"))
				}
				// The shard is now marked unready: the resend is refused up front.
				before := shards[0].requests()
				if resp := post(t, ts.URL, batch, true); resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("resend during the outage: status %d, want 503", resp.StatusCode)
				}
				if shards[0].requests() != before {
					t.Fatal("a batch spanning an unready shard was forwarded")
				}

				shards[1] = newFakeShard(t)
				r.SetShard(1, shards[1].ts.URL)
				r.ProbeOnce()
				if resp := post(t, ts.URL, batch, true); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("resend after recovery: status %d, want 202", resp.StatusCode)
				}
				if got := shards[1].records(); !sameRecords(got, want1) {
					t.Fatalf("recovered shard has %d records, want each of its %d exactly once", len(got), len(want1))
				}
				if got := shards[0].records(); !sameRecords(got, append(want0, want0...)) {
					t.Fatalf("healthy shard has %d records, want its slice and one exact duplicate of it", len(got))
				}
			})
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
// goes to the client unretried with the shard's own reason beside it, the
// shard stays ready, and the next well-formed batch gets through.
func TestRouterShardRejectPassesThrough(t *testing.T) {
	for _, status := range []int{http.StatusRequestEntityTooLarge, http.StatusBadRequest} {
		shards := []*fakeShard{newFakeShard(t)}
		_, ts := newTestRouter(t, shards)
		body, _ := json.Marshal(testRecords(4, 1))

		shards[0].answer(status, "")
		resp := postBody(t, ts.URL+"/report", "application/json", body)
		if reply := replyOf(t, resp); resp.StatusCode != status || reply["shard"] != 0.0 || reply["shard_error"] != fmt.Sprintf("scripted %d", status) {
			t.Fatalf("shard answered %d, client saw %d %v", status, resp.StatusCode, reply)
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

// TestRouterShardAsksForFull: a passed-through delta fails one way, on a
// shard whose cache lacks its base. Cold: the shard was replaced by one with
// an empty cache (a restart, a handoff target), and its 400 comes through
// with its reason. Busy: it decoded the frame, moving its cache, then refused
// it 503 — the sink's own order — and that 503 reaches the client, which owns
// the resend. Either way the shard's readiness is untouched (the
// full-encoded resend gets 202, no probe in between), and the end state is
// the input bit for bit: each record once on the asking shard, the other's
// taken slice twice.
func TestRouterShardAsksForFull(t *testing.T) {
	const nodes = 10
	for _, cold := range []bool{true, false} {
		shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
		r, ts := newTestRouter(t, shards)
		recs, post := testRecords(nodes, 3), wires["bin"]()
		for e := 0; e < 2; e++ {
			if resp := post(t, ts.URL, recs[e*nodes:(e+1)*nodes], false); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("cold %v, epoch %d: status %d, want 202", cold, e+1, resp.StatusCode)
			}
		}
		if cold {
			shards[1] = newFakeShard(t)
			r.SetShard(1, shards[1].ts.URL)
			r.ProbeOnce()
		} else {
			shards[1].mu.Lock()
			shards[1].busyOnce = true
			shards[1].mu.Unlock()
		}
		held, last := shards[1].records(), recs[2*nodes:]

		resp := post(t, ts.URL, last, false)
		reply := replyOf(t, resp)
		if cold {
			if reason, _ := reply["shard_error"].(string); resp.StatusCode != http.StatusBadRequest || reply["shard"] != 1.0 ||
				!strings.Contains(reason, ingest.ErrDeltaBase.Error()) {
				t.Fatalf("delta onto a missing base: status %d %v, want shard 1's 400 and its %q", resp.StatusCode, reply, ingest.ErrDeltaBase)
			}
		} else if shards, _ := reply["shards"].([]any); resp.StatusCode != http.StatusServiceUnavailable ||
			resp.Header.Get("Retry-After") != "1" || !slices.Equal(shards, []any{1.0}) {
			t.Fatalf("busy shard: status %d Retry-After %q %v, want 503 naming shard 1 with its hint 1",
				resp.StatusCode, resp.Header.Get("Retry-After"), reply)
		}
		if resp := post(t, ts.URL, last, true); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cold %v, full-encoded resend: status %d, want 202", cold, resp.StatusCode)
		}
		if got, want := shards[0].records(), append(ownedBy(r, 0, recs), ownedBy(r, 0, last)...); !sameRecords(got, want) {
			t.Fatalf("cold %v: shard 0 has %d records, want its %d owned ones and the resent slice again", cold, len(got), len(want))
		}
		if got, want := shards[1].records(), append(held, ownedBy(r, 1, last)...); !sameRecords(got, want) {
			t.Fatalf("cold %v: shard 1 has %d records, want the %d it held and its resent slice once", cold, len(got), len(want))
		}
	}
}

// TestRouterRejectNamesBadReport: a body the router itself cannot decode —
// a bad JSON report, or a frame the sink's decoder would refuse (torn, a
// flipped CRC bit, a zero XOR word) and the empty one — draws a 400 carrying
// the decoder's reason, the text a client posting straight to a sink gets,
// and reaches no shard. /metrics counts them, and shows the hop a good frame
// then takes: its bytes in, plus one frame header per extra slice out.
func TestRouterRejectNamesBadReport(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	_, ts := newTestRouter(t, shards)
	recs := testRecords(5, 1)
	recs[3].Epoch = -1
	badJSON, _ := json.Marshal(recs)
	enc := packet.NewFrameEncoder()
	frame, _ := enc.Frame()
	empty := slices.Clone(frame)
	for _, rec := range testRecords(6, 2) {
		enc.Add(rec.Node, rec.Epoch, rec.Vector)
	}
	good, _ := enc.Frame()
	flipped := slices.Clone(good)
	flipped[12] ^= 0x01
	// Node 1, epoch 9 on base 8, 9 slots, slot 0 changed by an all-zero word.
	payload := []byte{byte(packet.RecDelta), 0, 1, 0, 0, 0, 9, 9, 1, 0x01, 0x00, 0xc0, 0, 0, 0, 0, 0}
	zeroXOR := append([]byte(packet.FramePreamble), 0, 1, 0, 0, 0, byte(len(payload)))
	zeroXOR = binary.BigEndian.AppendUint32(zeroXOR, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))

	for want, body := range map[string][]byte{
		"report 3: epoch -1 outside": badJSON,
		"payload bytes, header says": good[:len(good)*2/3],
		"CRC mismatch":               flipped,
		"zero XOR":                   append(zeroXOR, payload...),
		"empty binary frame":         empty,
	} {
		path, ct := "/report/bin", "application/octet-stream"
		if body[0] == '[' {
			path, ct = "/report", "application/json"
		}
		resp := postBody(t, ts.URL+path, ct, body)
		if msg, _ := replyOf(t, resp)["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, want) {
			t.Errorf("status %d, error %q; want 400 naming %q", resp.StatusCode, msg, want)
		}
	}
	if shards[0].requests()+shards[1].requests() != 0 {
		t.Fatal("a shard saw a request for a body the router rejected")
	}
	if resp := postBody(t, ts.URL+"/report/bin", "application/octet-stream", good); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("the good frame after the rejects: status %d, want 202", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	in, out := float64(len(good)), float64(len(good)+packet.FrameHeaderLen)
	if m := replyOf(t, resp); m["bad_requests"] != 5.0 || m["deliveries_forwarded"] != 2.0 || m["bytes_received"] != in || m["bytes_forwarded"] != out {
		t.Errorf("metrics %v: want 5 bad requests, %v bytes received and %v forwarded in 2 slices", m, in, out)
	}
}

// TestRouterMetricsKeys pins the sorted key set of the router's GET
// /metrics: operators and the benchmark harness read these names.
func TestRouterMetricsKeys(t *testing.T) {
	_, ts := newTestRouter(t, []*fakeShard{newFakeShard(t)})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := []string{"bad_requests", "batches_refused", "bytes_forwarded", "bytes_received",
		"deliveries_forwarded", "fleet_requests", "reports_received", "shards"}
	var got []string
	for k := range replyOf(t, resp) {
		got = append(got, k)
	}
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Errorf("/metrics keys\n got %q\nwant %q", got, want)
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

// TestRouterNeverSleeps: a shard's Retry-After is relayed, never slept. A
// shard shedding with a 5 s hint draws the router's 503 + Retry-After 5 in
// well under a second; across shards the largest hint wins, and a 503
// beats another shard's 4xx.
func TestRouterNeverSleeps(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	r, ts := newTestRouter(t, shards)
	batch, _ := json.Marshal(testRecords(10, 1))
	only1, _ := json.Marshal(ownedBy(r, 1, testRecords(10, 1)))
	for _, c := range []struct {
		name   string
		body   []byte
		status [2]int
		hint   [2]string
	}{
		{"one shard, hint 5", only1, [2]int{0, http.StatusServiceUnavailable}, [2]string{"", "5"}},
		{"hints 1 and 5", batch, [2]int{http.StatusServiceUnavailable, http.StatusServiceUnavailable}, [2]string{"1", "5"}},
		{"hints 5 and 1", batch, [2]int{http.StatusServiceUnavailable, http.StatusServiceUnavailable}, [2]string{"5", "1"}},
		{"a 4xx and a 503", batch, [2]int{http.StatusBadRequest, http.StatusServiceUnavailable}, [2]string{"", "5"}},
	} {
		for i, sh := range shards {
			sh.answer(c.status[i], c.hint[i])
		}
		start := time.Now()
		resp := postBody(t, ts.URL+"/report", "application/json", c.body)
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Errorf("%s: the router took %v to answer", c.name, took)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "5" {
			t.Errorf("%s: status %d Retry-After %q, want 503 relaying the largest hint 5",
				c.name, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if got := shards[1].requests(); got != 4 {
		t.Errorf("shard 1 saw %d requests for 4 batches: a slice was posted more than once", got)
	}
}

// TestRouterProbesShardsAtOnce: a probe that hangs holds up no other
// shard's verdict. Shard 0's /readyz sits on its answer; shard 1, repointed
// and so unready, is back in rotation before shard 0's probe is released.
func TestRouterProbesShardsAtOnce(t *testing.T) {
	asked, release := make(chan struct{}, 1), make(chan struct{})
	held := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		asked <- struct{}{}
		<-release
	}))
	t.Cleanup(held.Close)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	shard1 := newFakeShard(t)
	r, err := NewRouter(Config{Shards: []string{held.URL, shard1.ts.URL}, Seed: 7})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.SetShard(1, shard1.ts.URL)

	probed := make(chan struct{})
	go func() {
		defer close(probed)
		r.ProbeOnce()
	}()
	<-asked // shard 0's probe is now in flight and held
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ready := r.shards[1].target(); ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 1 is still unready while shard 0's probe is held: probes run one after another")
		}
	}
	select {
	case <-probed:
		t.Fatal("ProbeOnce returned before shard 0's probe ended")
	default:
	}
	free()
	<-probed
	if _, ready := r.shards[0].target(); !ready {
		t.Error("shard 0 answered its probe 200 but is not ready")
	}
}

// TestRouterProbeIgnoresRepointedShard: a probe's verdict belongs to the
// address it asked. Shard 0's /readyz sits on its answer while SetShard
// repoints the shard at a closed listener; the held probe then answers 200,
// and the shard stays unready — nothing has probed the address it holds.
func TestRouterProbeIgnoresRepointedShard(t *testing.T) {
	asked, release := make(chan struct{}, 1), make(chan struct{})
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		asked <- struct{}{}
		<-release
	}))
	t.Cleanup(old.Close)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	r, err := NewRouter(Config{Shards: []string{old.URL}, Seed: 7})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}

	probed := make(chan struct{})
	go func() {
		defer close(probed)
		r.ProbeOnce()
	}()
	<-asked // the probe of the old address is in flight and held
	r.SetShard(0, gone.URL)
	free()
	<-probed
	if url, ready := r.shards[0].target(); ready {
		t.Fatalf("shard repointed at %s is ready on its old address's 200", url)
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
		return postStatus(ts.URL+"/report", "application/json", body)
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

// TestFleetFetchesShardsAtOnce: every shard's /epochs request is in flight
// before any is answered — the stubs hold their answers until all four have
// been asked, so a router asking one shard after another never gets its
// first — and the view is still assembled by shard index: rank, the merged
// distributions and missing_shards are what the sequential walk gave, with
// a shard failing and without.
func TestFleetFetchesShardsAtOnce(t *testing.T) {
	const k = 4
	shardBody := func(s int) shardEpochs {
		se := shardEpochs{Rank: 2 + s%3}
		for e := 1; e <= 3; e++ {
			es := online.EpochState{Epoch: e}
			// Every shard claims every node, as mid-handoff shards do: the
			// ownership filter must take each node from its owner's answer.
			for n := 1; n <= 20; n++ {
				es.Contribs = append(es.Contribs, online.Contribution{Node: packet.NodeID(n),
					Causes: []vn2.RankedCause{{Cause: n % 2, Strength: float64(100*s+n) / 7}}})
			}
			se.Epochs = append(se.Epochs, es)
		}
		return se
	}
	for _, fail := range []int{-1, 2} { // the shard that answers 500; -1 for none
		asked, release := make(chan int, k), make(chan struct{})
		urls := make([]string, k)
		for s := 0; s < k; s++ {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				asked <- s
				<-release
				if s == fail {
					api.Error(w, http.StatusInternalServerError, "scripted", nil)
					return
				}
				api.WriteJSON(w, http.StatusOK, shardBody(s))
			}))
			t.Cleanup(ts.Close)
			urls[s] = ts.URL
		}
		r, err := NewRouter(Config{Shards: urls, Seed: 7})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		want := map[string]any{"shards": k}
		var parts [][]online.EpochState
		rank := 0
		for s := 0; s < k; s++ {
			if s == fail {
				want["missing_shards"], want["partial"] = []int{s}, true
				continue
			}
			rank = max(rank, shardBody(s).Rank)
			parts = append(parts, FilterOwned(r.ring, s, shardBody(s).Epochs))
		}
		want["rank"], want["epochs"] = rank, MergeEpochs(rank, parts...)
		wantBody := httptest.NewRecorder()
		api.WriteJSON(wantBody, http.StatusOK, want)

		got := httptest.NewRecorder()
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			r.Handler().ServeHTTP(got, httptest.NewRequest("GET", "/fleet", nil))
		}()
		for n := 0; n < k; n++ {
			select {
			case <-asked:
			case <-time.After(5 * time.Second):
				close(release)
				t.Fatalf("failing shard %d: %d of %d shards asked and none answered yet: they are not asked at once", fail, n, k)
			}
		}
		close(release)
		<-answered
		if got.Code != http.StatusOK || got.Body.String() != wantBody.Body.String() {
			t.Fatalf("failing shard %d: /fleet answered %d\n got %.300s\nwant %.300s", fail, got.Code, got.Body, wantBody.Body)
		}
	}
}
