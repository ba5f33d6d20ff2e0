package sink

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// Handler builds the HTTP surface: the original five endpoints plus the
// visibility plane (/stream, /status, and the embedded dashboard at /).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /report", s.handleReport)
	mux.HandleFunc("POST /report/bin", s.handleReportBin)
	mux.HandleFunc("GET /diagnosis", s.handleDiagnosis)
	mux.HandleFunc("GET /epochs", s.handleEpochs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /handoff/export", s.handleHandoffExport)
	mux.HandleFunc("POST /handoff/import", s.handleHandoffImport)
	mux.HandleFunc("POST /handoff/release", s.handleHandoffRelease)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /model", s.handleModel)
	mux.Handle("GET /stream", api.Stream(s.bus, s.opts.StreamBuffer))
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.Handle("GET /{$}", api.Dashboard())
	return mux
}

// handleReport is the JSON ingest edge (POST /report): a bare report, an
// array, or the {"reports": [...]} envelope, decoded here and committed as
// one batch by the same core as the binary edges — same all-or-nothing
// admission, same single fsync, same 202-means-durable contract (see
// commit). A non-202 acknowledges nothing: the client resends the whole
// request.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r, 8<<20)
	if !ok {
		return
	}
	recs, err := ingest.Decode(raw)
	if err != nil {
		s.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest,
			"body must be a report, an array of reports, or {\"reports\": [...]}: "+err.Error(), nil)
		return
	}
	writeOutcome(w, s.commit(func() ([]trace.Record, *ingest.Arena, error) {
		s.binDec.Observe(recs)
		return recs, nil, nil
	}))
}

// handleReportBin is the batched binary ingest edge (POST /report/bin): one
// length-prefixed frame carries many reports, delta-decoded against the
// sink's per-node last-vector cache and committed by commitFrame, shared
// with the persistent stream listener.
//
// On any non-202 response the client must drop its baselines and
// retransmit with full encoding: depending on where the request failed the
// sink's delta cache may (shed, WAL failure) or may not (bad frame) have
// advanced, and full records are the one encoding that is correct against
// either state — they ignore the cache and overwrite it, resyncing both
// sides.
func (s *Server) handleReportBin(w http.ResponseWriter, r *http.Request) {
	// The frame header caps payloads at MaxFramePayload; cap the body read at
	// exactly one maximal frame.
	if raw, ok := s.readBody(w, r, packet.FrameHeaderLen+packet.MaxFramePayload); ok {
		writeOutcome(w, s.commitFrame(raw))
	}
}

// readBody reads a request body capped at limit bytes, so an unbounded body
// cannot pin the connection or the heap. On failure it has answered — 413
// for an oversized body, 400 for a torn upload — and returns false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return raw, true
	}
	s.badReqs.Add(1)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		api.Error(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", limit), nil)
	} else {
		api.Error(w, http.StatusBadRequest, "read body: "+err.Error(), nil)
	}
	return nil, false
}

func (s *Server) handleDiagnosis(w http.ResponseWriter, r *http.Request) {
	if s.deg.Active() {
		if sum := s.lastGood.Load(); sum != nil {
			reason, _ := s.deg.Reason()
			w.Header().Set("X-Vn2-Degraded", reason)
			api.WriteJSON(w, http.StatusOK, sum)
			return
		}
	}
	api.WriteJSON(w, http.StatusOK, s.mon.Snapshot())
}

// healthBody is the shared /healthz + /readyz payload: the liveness view
// plus the readiness verdict and why.
func (s *Server) healthBody() (body map[string]any, ready bool) {
	reason, since := s.deg.Reason()
	body = map[string]any{
		"status":      "ok",
		"ready":       true,
		"uptime_s":    time.Since(s.started).Seconds(),
		"queue_depth": s.QueueDepth(),
	}
	if s.jnl != nil {
		body["wal_segments"] = s.jnl.Segments()
		// Read in this order, applied ≤ durable < next_lsn holds in the body.
		body["wal_applied"] = s.applied.Load()
		body["wal_durable"] = s.jnl.Durable()
		body["wal_next_lsn"] = s.jnl.NextLSN()
	}
	switch {
	case reason != "":
		body["status"] = "degraded"
		body["ready"] = false
		body["reason"] = reason
		body["degraded_for_s"] = time.Since(since).Seconds()
	case s.draining.Load():
		body["status"] = "draining"
		body["ready"] = false
		body["reason"] = "draining: graceful shutdown in progress"
	default:
		return body, true
	}
	return body, false
}

// handleHealthz is LIVENESS: it answers 200 for as long as the process
// can serve HTTP at all, including degraded (read-only last-good) and
// draining states — a supervisor must not kill a sink that is merely
// shedding ingest. Routability is /readyz's question; the body carries
// the same ready/status fields either way so a human probing /healthz
// still sees the whole story.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body, _ := s.healthBody()
	api.WriteJSON(w, http.StatusOK, body)
}

// handleReadyz is READINESS: 200 only when the sink is accepting and
// applying new reports. Degraded (up but read-only: WAL down, diagnosis
// failing) and draining (graceful shutdown started) both
// answer 503 with the state named in the body, so a router health probe
// stops routing to this shard without the process being declared dead.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body, ready := s.healthBody()
	if !ready {
		api.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// handleMetrics serves the flat expvar-style counters of every layer.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.metrics())
}

// handleStatus is the machine-readable superset of /metrics: every metrics
// key plus uptime, model provenance, degraded detail, stream/bus health,
// and the swap history.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.status())
}

// handleModel answers GET /model: the serving generation, drift view, swap
// history, and lifecycle machinery state.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	cur := s.lc.Current()
	version, cooldown, probation := s.lc.State()
	body := map[string]any{
		"version":             version,
		"rank":                cur.Model.Rank,
		"metrics":             cur.Model.Metrics(),
		"lifecycle":           s.opts.Lifecycle.Enabled,
		"drift":               s.mon.DriftStats(),
		"retraining":          s.lc.Retraining(),
		"probation":           probation,
		"cooldown_ticks":      cooldown,
		"retrains":            s.lc.Retrains.Load(),
		"retrain_failures":    s.lc.RetrainFails.Load(),
		"candidates_rejected": s.lc.CandRejects.Load(),
		"swaps":               s.lc.Swaps.Load(),
		"rollbacks":           s.lc.Rollbacks.Load(),
		"history":             s.lc.History(),
	}
	api.WriteJSON(w, http.StatusOK, body)
}
