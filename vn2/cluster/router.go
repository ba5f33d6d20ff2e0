// Package cluster shards the sink horizontally: a deterministic
// consistent-hash ring (ring.go) assigns every sensor node to one of N
// `vn2 serve` shards, a thin router (this file) splits incoming report
// traffic along ring ownership and forwards it, and a fleet merge
// (merge.go) recombines the shards' per-epoch contribution exports into
// distributions bit-identical to a single sink fed every node.
//
// The router is stateless: it keeps no monitor, no model, no WAL, no report
// it has answered for and nothing per node or per client — only the ring, a
// per-shard readiness flag and counters — so losing it loses nothing and a
// rebuilt one is the one it replaced (see route for what its answers mean).
// Clients keep one batch in flight per node stream: nothing newer goes out
// while an older batch is un-ACKed. That, not the router, is what preserves
// per-node report order.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// Defaults applied by NewRouter for zero Config fields.
const (
	DefaultProbeInterval = time.Second
	DefaultHTTPTimeout   = 10 * time.Second
)

// Config parametrizes a Router.
type Config struct {
	// Shards are the shard base URLs, index-aligned with the ring.
	Shards []string
	// Seed keys the ring; equal seeds give bit-identical routing.
	Seed uint64
	// ProbeInterval paces the readiness prober in Run.
	ProbeInterval time.Duration
	// Client is the forwarding HTTP client (nil = a default with
	// DefaultHTTPTimeout).
	Client *http.Client
}

// shardState is what the router knows about one shard. mu guards url and
// down and is never locked across a request: forwards and probes copy the
// URL out, do their I/O unlocked, and lock again only to record the verdict.
type shardState struct {
	mu   sync.Mutex
	url  string
	down error // nil = ready; otherwise why the shard is out of rotation
}

// target returns the shard's current base URL and readiness.
func (sh *shardState) target() (url string, ready bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.url, sh.down == nil
}

// mark records a readiness verdict: nil means ready.
func (sh *shardState) mark(down error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.down = down
}

// Router is the cluster front door: it speaks the sink's own ingest
// surface (POST /report, POST /report/bin) and fans out along the ring.
type Router struct {
	cfg    Config // defaults applied
	ring   *Ring
	shards []*shardState

	received, bytesReceived   atomic.Uint64 // records offered on either ingest path, and their bodies' bytes
	forwarded, bytesForwarded atomic.Uint64 // slices a shard answered 202 for, and their bytes
	refused                   atomic.Uint64 // batches answered 503
	badReqs                   atomic.Uint64
	fleetReqs                 atomic.Uint64
}

// frameDecoders pools the frame walkers handleReportBin splits with: a
// decoder carries nothing from one frame to the next but its arenas.
var frameDecoders = sync.Pool{New: func() any { return new(packet.FrameDecoder) }}

// NewRouter validates cfg, applies defaults, and returns a Router. No
// shard is probed until ProbeOnce or Run; shards start optimistically
// ready so a fresh router forwards immediately.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: Config.Shards must name at least one shard")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	r := &Router{cfg: cfg, ring: NewRing(cfg.Seed, len(cfg.Shards), 0)}
	for _, u := range cfg.Shards {
		r.shards = append(r.shards, &shardState{url: u})
	}
	return r, nil
}

// Ring exposes the router's ring (read-only) so orchestration code and
// tests share one ownership view.
func (r *Router) Ring() *Ring { return r.ring }

// SetShard repoints shard i at a new base URL (a restarted or relocated
// shard) and marks it unready until a probe confirms it; batches that span
// it get 503 meanwhile.
func (r *Router) SetShard(i int, url string) {
	sh := r.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.url = url
	sh.down = errors.New("repointed, awaiting readiness probe")
}

// Handler builds the router's HTTP surface: the sink-compatible ingest
// endpoints plus the fleet view and the router's own health and metrics.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /report", r.handleReport)
	mux.HandleFunc("POST /report/bin", r.handleReportBin)
	mux.HandleFunc("GET /fleet", r.handleFleet)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

// handleReport routes a JSON report batch, split by ring owner — stable, so
// per-node order survives; each shard's share goes out as a JSON array.
func (r *Router) handleReport(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 8<<20))
	if err != nil {
		r.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, "read body: "+err.Error(), nil)
		return
	}
	recs, err := ingest.Decode(raw)
	if err != nil {
		r.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest,
			"body must be a report, an array of reports, or {\"reports\": [...]}: "+err.Error(), nil)
		return
	}
	parts := make([][]trace.Record, len(r.shards))
	for _, rec := range recs {
		s := r.ring.Owner(rec.Node)
		parts[s] = append(parts[s], rec)
	}
	slices := make([][]byte, len(r.shards))
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		if slices[s], err = json.Marshal(part); err != nil {
			api.Error(w, http.StatusInternalServerError, "encode shard batch: "+err.Error(), nil)
			return
		}
	}
	r.route(w, len(recs), len(raw), "/report", "application/json", slices)
}

// handleReportBin routes a VN2F frame as a validated byte split: the frame
// passes every check the sink's decoder makes, then each record's bytes go
// verbatim, in arrival order, into the frame of its node's owner. A delta is
// a diff against the same node's previous record and a node has one owner,
// so its whole chain reaches one shard, whose delta cache is the only one
// there is. "Resend full" is thus a shard's answer — its cache lacks a base:
// it restarted, took a handoff, or decoded a frame before refusing it busy,
// so the client's resend of the same deltas finds the base replaced —
// passed through as its 400. A malformed or empty frame gets 400 here; no
// shard sees it.
func (r *Router) handleReportBin(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, packet.FrameHeaderLen+packet.MaxFramePayload))
	if err != nil {
		r.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, "read body: "+err.Error(), nil)
		return
	}
	dec := frameDecoders.Get().(*packet.FrameDecoder)
	slices, n, err := dec.Split(raw, len(r.shards), r.ring.Owner)
	frameDecoders.Put(dec)
	if err == nil && n == 0 {
		err = ingest.ErrEmptyFrame
	}
	if err != nil {
		r.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, "bad binary frame (resend full encoding): "+err.Error(), nil)
		return
	}
	r.route(w, n, len(raw), "/report/bin", "application/octet-stream", slices)
}

// route is the one delivery path behind both ingest endpoints: slices[s]
// is shard s's share (nil when it owns none) of a batch of n records in size
// body bytes. It is all-or-nothing toward the client, as the sink's commit is:
//
//   - an owner shard marked unready ⇒ 503 before anything is forwarded, so
//     a long outage does not pile duplicate WAL records onto the healthy
//     shards;
//   - otherwise every slice is posted once, in shard order; the router
//     never resends or sleeps, the client owns that. A shard that cannot be
//     reached is marked unready (the probe re-admits it); a shard that
//     answers 5xx (or any status but 202 and 4xx) has shed the slice and
//     stays in rotation — a degraded one leaves it when its /readyz fails
//     the next probe. Either way the batch gets 503 naming the refusing
//     shards, with Retry-After the largest hint a shard sent, at least 1:
//     relayed, never slept;
//   - a shard's 4xx is final for that slice — a resend cannot change it —
//     and is passed through, with the shard's own reason as shard_error,
//     without touching the shard's readiness; a 503 beats it, and of
//     several 4xx the lowest shard's wins;
//   - 202 only when every owner shard answered 202.
//
// On anything but 202 the client resends the whole batch, a binary client
// full-encoded; shards that already journaled their slice see exact
// duplicates, which the monitor drops.
func (r *Router) route(w http.ResponseWriter, n, size int, path, contentType string, slices [][]byte) {
	r.received.Add(uint64(n))
	r.bytesReceived.Add(uint64(size))
	urls := make([]string, len(r.shards))
	var refusing []int
	for s, slice := range slices {
		if slice == nil {
			continue
		}
		var ready bool
		if urls[s], ready = r.shards[s].target(); !ready {
			refusing = append(refusing, s)
		}
	}
	if len(refusing) > 0 {
		r.refuse(w, refusing, 1)
		return
	}
	retryAfter := 1
	rejecting, rejection, reason := 0, 0, "" // the first 4xx drawn: its shard, status and reason
	for s, slice := range slices {
		if slice == nil {
			continue
		}
		status, hint, why, err := r.forward(urls[s]+path, contentType, slice)
		retryAfter = max(retryAfter, hint)
		switch {
		case err != nil:
			r.shards[s].mark(err)
			refusing = append(refusing, s)
		case status == http.StatusAccepted:
			r.forwarded.Add(1)
			r.bytesForwarded.Add(uint64(len(slice)))
		case status/100 != 4:
			refusing = append(refusing, s)
		case rejection == 0:
			rejecting, rejection, reason = s, status, why
		}
	}
	switch {
	case len(refusing) > 0:
		r.refuse(w, refusing, retryAfter)
	case rejection != 0:
		api.Error(w, rejection, fmt.Sprintf("shard %d rejected its slice of the batch with status %d", rejecting, rejection),
			map[string]any{"shard": rejecting, "shard_error": reason})
	default:
		api.WriteJSON(w, http.StatusAccepted, map[string]any{"accepted": n})
	}
}

// refuse answers 503 + Retry-After for a batch some owner shard did not
// take, naming the shards.
func (r *Router) refuse(w http.ResponseWriter, shards []int, retryAfter int) {
	r.refused.Add(1)
	api.Unavailable(w, retryAfter, "owner shard unavailable, batch not accepted: resend the whole batch",
		map[string]any{"accepted": 0, "shards": shards})
}

// forward posts one slice to a shard, once. It returns the shard's status,
// its Retry-After in seconds (0 when absent) and, for a 4xx, its reason;
// err is a transport failure, when no status came back at all.
func (r *Router) forward(url, contentType string, body []byte) (status, retryAfter int, reason string, err error) {
	resp, err := r.cfg.Client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 4 {
		// The sink's {"error": …}, read within 4 KiB; a body of another
		// shape relays no reason.
		var e struct{ Error string }
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&e)
		reason = e.Error
	}
	io.Copy(io.Discard, resp.Body)
	if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
		retryAfter = secs
	}
	return resp.StatusCode, retryAfter, reason, nil
}

// ProbeOnce checks every shard's /readyz — all at once, each verdict
// recorded as its answer arrives, so a black-holed shard delays no other
// shard's re-admission — and returns when every probe has ended. A shard
// marked unready is re-admitted here and nowhere else. Synchronous so tests
// and the chaos harness drive readiness deterministically; Run wraps it in
// a ticker.
func (r *Router) ProbeOnce() {
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url, _ := sh.target()
			resp, err := r.cfg.Client.Get(url + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("readyz status %d", resp.StatusCode)
				}
			}
			sh.mark(err)
		}()
	}
	wg.Wait()
}

// Run probes readiness on a ticker until ctx is done. The ingest handlers
// need no goroutine of their own; this loop only drives recovery.
func (r *Router) Run(ctx context.Context) error {
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			r.ProbeOnce()
		}
	}
}

// shardEpochs is the GET /epochs response shape (vn2/sink handleEpochs).
type shardEpochs struct {
	Rank   int                 `json:"rank"`
	Epochs []online.EpochState `json:"epochs"`
}

// FleetEpochs polls every shard's /epochs export — all at once, so the view
// waits for the slowest shard, not for their sum — filters each by ring
// ownership (mid-handoff duplication dedupes here — see FilterOwned), and
// merges into the fleet's per-epoch distributions. Answers are collected by
// shard index, whatever order they came in. Shards that fail to answer are
// returned in missing; the merge covers the rest.
func (r *Router) FleetEpochs() (rank int, merged []online.EpochCauses, missing []int, err error) {
	answers := make([]*shardEpochs, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], _ = r.fetchEpochs(i) // a failed shard stays nil: missing
		}(i)
	}
	wg.Wait()
	parts := make([][]online.EpochState, 0, len(r.shards))
	for i, se := range answers {
		if se == nil {
			missing = append(missing, i)
			continue
		}
		if se.Rank > rank {
			rank = se.Rank
		}
		parts = append(parts, FilterOwned(r.ring, i, se.Epochs))
	}
	if len(parts) == 0 {
		return 0, nil, missing, fmt.Errorf("cluster: no shard answered /epochs")
	}
	return rank, MergeEpochs(rank, parts...), missing, nil
}

func (r *Router) fetchEpochs(i int) (*shardEpochs, error) {
	url, _ := r.shards[i].target()
	resp, err := r.cfg.Client.Get(url + "/epochs")
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("epochs status %d", resp.StatusCode)
	}
	var se shardEpochs
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxFleetBody)).Decode(&se); err != nil {
		return nil, err
	}
	return &se, nil
}

// maxFleetBody bounds one shard's /epochs response.
const maxFleetBody = 64 << 20

// handleFleet serves the merged fleet view.
func (r *Router) handleFleet(w http.ResponseWriter, req *http.Request) {
	r.fleetReqs.Add(1)
	rank, merged, missing, err := r.FleetEpochs()
	if err != nil {
		api.Unavailable(w, 5, err.Error(), nil)
		return
	}
	body := map[string]any{
		"rank":   rank,
		"shards": len(r.shards),
		"epochs": merged,
	}
	if len(missing) > 0 {
		body["missing_shards"] = missing
		body["partial"] = true
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// handleHealthz reports router liveness plus the per-shard readiness view.
// Always 200: the router is alive if it can answer; degraded shards show
// in the body (and in each shard's own /readyz).
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	type shardHealth struct {
		URL     string `json:"url"`
		Ready   bool   `json:"ready"`
		LastErr string `json:"last_error,omitempty"`
	}
	out := struct {
		Status string        `json:"status"`
		Shards []shardHealth `json:"shards"`
	}{Status: "ok"}
	for _, sh := range r.shards {
		sh.mu.Lock()
		h := shardHealth{URL: sh.url, Ready: sh.down == nil}
		if sh.down != nil {
			h.LastErr, out.Status = sh.down.Error(), "degraded"
		}
		sh.mu.Unlock()
		out.Shards = append(out.Shards, h)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleMetrics serves the router's flat counter map, sink-/metrics-style.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"reports_received":     r.received.Load(),
		"bytes_received":       r.bytesReceived.Load(),
		"deliveries_forwarded": r.forwarded.Load(),
		"bytes_forwarded":      r.bytesForwarded.Load(),
		"batches_refused":      r.refused.Load(),
		"bad_requests":         r.badReqs.Load(),
		"fleet_requests":       r.fleetReqs.Load(),
		"shards":               len(r.shards),
	})
}
