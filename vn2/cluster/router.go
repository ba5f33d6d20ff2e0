// Package cluster shards the sink horizontally: a deterministic
// consistent-hash ring (ring.go) assigns every sensor node to one of N
// `vn2 serve` shards, a thin router (this file) splits incoming report
// traffic along ring ownership and forwards it, and a fleet merge
// (merge.go) recombines the shards' per-epoch contribution exports into
// distributions bit-identical to a single sink holding every node.
//
// The router is deliberately stateless about diagnosis: it holds no
// monitor, no model, no WAL — only the ring, per-shard delivery machinery
// (retries, a circuit breaker, a bounded hold queue), and counters. Losing
// the router loses nothing durable; shards own all state.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/retry"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// routerRetryTag keys the per-shard backoff jitter streams (internal/rng).
const routerRetryTag = 0x72747230

// Defaults applied by NewRouter for zero Config fields.
const (
	DefaultHoldCap          = 256
	DefaultAttempts         = 4
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second
	DefaultProbeInterval    = time.Second
	DefaultHTTPTimeout      = 10 * time.Second
)

// Config parametrizes a Router.
type Config struct {
	// Shards are the shard base URLs, index-aligned with the ring.
	Shards []string
	// Seed keys the ring AND every jitter stream; equal seeds give
	// bit-identical routing and backoff schedules.
	Seed uint64
	// Vnodes is the ring's virtual-node count per shard (0 = DefaultVnodes).
	Vnodes int
	// HoldCap bounds each shard's hold queue in deliveries; at capacity the
	// OLDEST held delivery is dropped and counted — bounded memory beats
	// unbounded growth through a long shard outage, and the drop is never
	// silent (hold_drops / hold_dropped_records in /metrics).
	HoldCap int
	// Attempts bounds one delivery's retry ladder.
	Attempts int
	// RetryMin/RetryMax bound the decorrelated-jitter backoff.
	RetryMin, RetryMax time.Duration
	// BreakerThreshold consecutive delivery failures open a shard's
	// breaker; BreakerCooldown later one probe delivery is admitted.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval paces the readiness prober in Run.
	ProbeInterval time.Duration
	// Client is the forwarding HTTP client (nil = a default with
	// DefaultHTTPTimeout).
	Client *http.Client
	// Sleep is the backoff sleeper (nil = time.Sleep); tests and the chaos
	// harness pass a stub so retry ladders run instantly.
	Sleep func(time.Duration)
	// Now is the breaker clock (nil = time.Now).
	Now func() time.Time
}

// heldDelivery is one forward the router is holding for an unavailable
// shard: the fully-encoded body, replayable verbatim.
type heldDelivery struct {
	path        string
	contentType string
	body        []byte
	records     int
}

// shardState is one shard's delivery machinery. Its mutex serializes
// deliveries to the shard, which is what preserves per-node report order:
// every record of a node routes to this one shard, and holds flush FIFO
// before anything newer goes out.
type shardState struct {
	mu      sync.Mutex
	url     string
	ready   bool
	lastErr string
	br      retry.Breaker
	hold    []heldDelivery

	forwarded    atomic.Uint64 // deliveries that reached the shard
	held         atomic.Uint64 // deliveries parked in the hold queue
	holdDrops    atomic.Uint64 // held deliveries evicted by a full queue
	holdDropRecs atomic.Uint64 // records inside evicted deliveries
}

// Router is the cluster front door: it speaks the sink's own ingest
// surface (POST /report, POST /report/bin) and fans out along the ring.
type Router struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	sleep  func(time.Duration)
	now    func() time.Time
	shards []*shardState

	// binMu serializes /report/bin traffic: the delta cache in binDec and
	// the re-encoder must observe frames in arrival order.
	binMu  sync.Mutex
	binDec *ingest.BinaryDecoder
	binEnc *packet.FrameEncoder

	received  atomic.Uint64 // records offered on either ingest path
	badReqs   atomic.Uint64
	fleetReqs atomic.Uint64
}

// NewRouter validates cfg, applies defaults, and returns a Router. No
// shard is probed until ProbeOnce or Run; shards start optimistically
// ready so a fresh router forwards immediately.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: Config.Shards must name at least one shard")
	}
	if cfg.HoldCap <= 0 {
		cfg.HoldCap = DefaultHoldCap
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = DefaultAttempts
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	r := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Seed, len(cfg.Shards), cfg.Vnodes),
		client: cfg.Client,
		sleep:  cfg.Sleep,
		now:    cfg.Now,
		binDec: ingest.NewBinaryDecoder(),
		binEnc: packet.NewFrameEncoder(),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	if r.sleep == nil {
		r.sleep = time.Sleep
	}
	if r.now == nil {
		r.now = time.Now
	}
	for _, u := range cfg.Shards {
		r.shards = append(r.shards, &shardState{
			url:   u,
			ready: true,
			br:    retry.Breaker{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown},
		})
	}
	return r, nil
}

// Ring exposes the router's ring (read-only) so orchestration code and
// tests share one ownership view.
func (r *Router) Ring() *Ring { return r.ring }

// ShardURL returns shard i's current base URL.
func (r *Router) ShardURL(i int) string {
	sh := r.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.url
}

// SetShard repoints shard i at a new base URL (a restarted or relocated
// shard) and marks it unready until a probe confirms it — held traffic
// flushes on that probe, oldest first.
func (r *Router) SetShard(i int, url string) {
	sh := r.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.url = url
	sh.ready = false
	sh.lastErr = "repointed, awaiting readiness probe"
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

// handleReport splits a JSON report batch by ring ownership and forwards
// each shard's slice, preserving per-node record order (the split is
// stable). The 202 means every record is either delivered to its owner
// shard or parked in that shard's bounded hold queue; "held" in the
// response says how many are parked.
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
		api.Error(w, http.StatusBadRequest, "body must be a report, an array of reports, or {\"reports\": [...]}", nil)
		return
	}
	r.received.Add(uint64(len(recs)))

	parts := make([][]trace.Record, len(r.shards))
	for _, rec := range recs {
		s := r.ring.Owner(rec.Node)
		parts[s] = append(parts[s], rec)
	}
	forwarded, heldCount := 0, 0
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		body, err := json.Marshal(part)
		if err != nil {
			api.Error(w, http.StatusInternalServerError, "encode shard batch: "+err.Error(), nil)
			return
		}
		if r.deliver(s, heldDelivery{path: "/report", contentType: "application/json", body: body, records: len(part)}) {
			forwarded += len(part)
		} else {
			heldCount += len(part)
		}
	}
	api.WriteJSON(w, http.StatusAccepted, map[string]any{"accepted": forwarded, "held": heldCount})
}

// handleReportBin terminates the binary delta encoding at the router: the
// frame decodes against the ROUTER's delta cache (one upstream client
// stream), and each shard's slice is re-encoded as a fully-materialized
// frame — shards never see cross-shard delta baselines, so a shard restart
// or handoff cannot desync them.
func (r *Router) handleReportBin(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, packet.FrameHeaderLen+packet.MaxFramePayload))
	if err != nil {
		r.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, "read body: "+err.Error(), nil)
		return
	}
	r.binMu.Lock()
	recs, err := r.binDec.Decode(raw)
	if err != nil {
		r.binMu.Unlock()
		r.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, "bad binary frame (resend full encoding): "+err.Error(), nil)
		return
	}
	r.received.Add(uint64(len(recs)))
	parts := make([][]trace.Record, len(r.shards))
	for _, rec := range recs {
		s := r.ring.Owner(rec.Node)
		parts[s] = append(parts[s], rec)
	}
	frames := make([][]byte, len(r.shards))
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		r.binEnc.Reset()
		ferr := error(nil)
		for i := range part {
			if ferr = r.binEnc.AddFull(part[i].Node, part[i].Epoch, part[i].Vector); ferr != nil {
				break
			}
		}
		var frame []byte
		if ferr == nil {
			frame, ferr = r.binEnc.Frame()
		}
		if ferr != nil {
			r.binMu.Unlock()
			api.Error(w, http.StatusInternalServerError, "re-encode shard frame: "+ferr.Error(), nil)
			return
		}
		frames[s] = append([]byte(nil), frame...)
	}
	r.binMu.Unlock()

	forwarded, heldCount := 0, 0
	for s, frame := range frames {
		if frame == nil {
			continue
		}
		if r.deliver(s, heldDelivery{path: "/report/bin", contentType: "application/octet-stream", body: frame, records: len(parts[s])}) {
			forwarded += len(parts[s])
		} else {
			heldCount += len(parts[s])
		}
	}
	api.WriteJSON(w, http.StatusAccepted, map[string]any{"accepted": forwarded, "held": heldCount})
}

// deliver runs one delivery to shard s, returning true when it reached the
// shard and false when it was parked in the hold queue. An unready shard
// or an open breaker holds without attempting; a failed retry ladder trips
// the breaker, marks the shard unready, and holds — order is preserved
// because every later delivery then holds BEHIND this one until a probe
// flushes the queue FIFO.
func (r *Router) deliver(s int, d heldDelivery) bool {
	sh := r.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.ready || len(sh.hold) > 0 || !sh.br.Allow(r.now()) {
		r.parkLocked(sh, d)
		return false
	}
	if err := r.post(sh.url, d); err != nil {
		sh.br.Fail(r.now())
		sh.ready = false
		sh.lastErr = err.Error()
		r.parkLocked(sh, d)
		return false
	}
	sh.br.Success()
	sh.forwarded.Add(1)
	return true
}

// parkLocked appends a delivery to the hold queue, evicting the oldest at
// capacity. Caller holds sh.mu.
func (r *Router) parkLocked(sh *shardState, d heldDelivery) {
	if len(sh.hold) >= r.cfg.HoldCap {
		sh.holdDrops.Add(1)
		sh.holdDropRecs.Add(uint64(sh.hold[0].records))
		sh.hold = sh.hold[1:]
	}
	sh.hold = append(sh.hold, d)
	sh.held.Add(1)
}

// post runs one delivery's retry ladder against the shard's current URL.
// A 503's Retry-After is honored as an extra sleep ahead of the jittered
// one — the same contract the reporter applies to the stream hint.
func (r *Router) post(baseURL string, d heldDelivery) error {
	return retry.Do(context.Background(), r.newLadder(baseURL), r.cfg.Attempts, r.sleep, func() error {
		resp, err := r.client.Post(baseURL+d.path, d.contentType, bytes.NewReader(d.body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return nil
		case resp.StatusCode == http.StatusServiceUnavailable:
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				r.sleep(time.Duration(secs) * time.Second)
			}
			return fmt.Errorf("shard status %d", resp.StatusCode)
		default:
			return fmt.Errorf("shard status %d", resp.StatusCode)
		}
	})
}

// newLadder returns a fresh backoff for one delivery, keyed by the shard
// URL so schedules stay deterministic but distinct per shard incarnation.
func (r *Router) newLadder(baseURL string) *retry.Backoff {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(baseURL); i++ {
		h ^= uint64(baseURL[i])
		h *= 1099511628211
	}
	return retry.New(r.cfg.RetryMin, r.cfg.RetryMax, routerRetryTag, r.cfg.Seed, h)
}

// ProbeOnce checks every shard's /readyz and flushes held traffic into
// shards that just (re)became ready. Synchronous so tests and the chaos
// harness drive readiness deterministically; Run wraps it in a ticker.
func (r *Router) ProbeOnce() {
	for i := range r.shards {
		r.probeShard(i)
	}
}

func (r *Router) probeShard(i int) {
	sh := r.shards[i]
	sh.mu.Lock()
	url := sh.url
	sh.mu.Unlock()
	resp, err := r.client.Get(url + "/readyz")
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !ok {
		sh.ready = false
		if err != nil {
			sh.lastErr = err.Error()
		} else {
			sh.lastErr = fmt.Sprintf("readyz status %d", resp.StatusCode)
		}
		return
	}
	sh.ready = true
	sh.lastErr = ""
	sh.br.Success()
	r.flushHeldLocked(sh)
}

// FlushHeld synchronously drains shard i's hold queue (if the shard is
// ready). Returns how many deliveries flushed.
func (r *Router) FlushHeld(i int) int {
	sh := r.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.ready {
		return 0
	}
	return r.flushHeldLocked(sh)
}

// flushHeldLocked replays held deliveries FIFO, stopping at the first
// failure (the remainder stays held, order intact). Caller holds sh.mu.
func (r *Router) flushHeldLocked(sh *shardState) int {
	n := 0
	for len(sh.hold) > 0 {
		d := sh.hold[0]
		if err := r.post(sh.url, d); err != nil {
			sh.br.Fail(r.now())
			sh.ready = false
			sh.lastErr = err.Error()
			return n
		}
		sh.hold = sh.hold[1:]
		sh.br.Success()
		sh.forwarded.Add(1)
		n++
	}
	return n
}

// Held reports shard i's current hold-queue depth.
func (r *Router) Held(i int) int {
	sh := r.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.hold)
}

// HoldDrops reports how many held deliveries shard i's bounded queue has
// evicted.
func (r *Router) HoldDrops(i int) uint64 { return r.shards[i].holdDrops.Load() }

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

// FleetEpochs polls every shard's /epochs export, filters each by ring
// ownership (mid-handoff duplication dedupes here — see FilterOwned), and
// merges into the fleet's per-epoch distributions. Shards that fail to
// answer are returned in missing; the merge covers the rest.
func (r *Router) FleetEpochs() (rank int, merged []online.EpochCauses, missing []int, err error) {
	parts := make([][]online.EpochState, 0, len(r.shards))
	for i := range r.shards {
		se, perr := r.fetchEpochs(i)
		if perr != nil {
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
	sh := r.shards[i]
	sh.mu.Lock()
	url := sh.url
	sh.mu.Unlock()
	resp, err := r.client.Get(url + "/epochs")
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

// handleHealthz reports router liveness plus the per-shard delivery view.
// Always 200: the router is alive if it can answer; degraded shards show
// in the body (and in each shard's own /readyz).
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	type shardHealth struct {
		URL     string `json:"url"`
		Ready   bool   `json:"ready"`
		Breaker string `json:"breaker"`
		Held    int    `json:"held"`
		LastErr string `json:"last_error,omitempty"`
	}
	out := struct {
		Status string        `json:"status"`
		Shards []shardHealth `json:"shards"`
	}{Status: "ok"}
	for _, sh := range r.shards {
		sh.mu.Lock()
		out.Shards = append(out.Shards, shardHealth{
			URL: sh.url, Ready: sh.ready, Breaker: sh.br.State(),
			Held: len(sh.hold), LastErr: sh.lastErr,
		})
		if !sh.ready {
			out.Status = "degraded"
		}
		sh.mu.Unlock()
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleMetrics serves the router's flat counter map, sink-/metrics-style.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	m := map[string]any{
		"reports_received": r.received.Load(),
		"bad_requests":     r.badReqs.Load(),
		"fleet_requests":   r.fleetReqs.Load(),
		"shards":           len(r.shards),
	}
	var fwd, held, drops, dropRecs, trips uint64
	heldNow := 0
	for _, sh := range r.shards {
		fwd += sh.forwarded.Load()
		held += sh.held.Load()
		drops += sh.holdDrops.Load()
		dropRecs += sh.holdDropRecs.Load()
		sh.mu.Lock()
		heldNow += len(sh.hold)
		trips += sh.br.Trips()
		sh.mu.Unlock()
	}
	m["deliveries_forwarded"] = fwd
	m["deliveries_held"] = held
	m["hold_depth"] = heldNow
	m["hold_drops"] = drops
	m["hold_dropped_records"] = dropRecs
	m["breaker_trips"] = trips
	api.WriteJSON(w, http.StatusOK, m)
}
