// Package api is the sink's HTTP edge: the one set of JSON response
// helpers every handler uses (serve.go and lifecycle.go used to carry
// near-duplicates), the SSE bridge from the event bus to GET /stream, the
// degraded-mode state machine, and the embedded dashboard.
package api

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// WriteJSON writes v as the response body with a consistent Content-Type
// and the given status. Encode errors are unrecoverable mid-response (the
// status line is gone) and are deliberately dropped.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error writes the canonical JSON error shape: {"error": msg} plus any
// extra fields. Extra keys named "error" cannot shadow the message.
func Error(w http.ResponseWriter, status int, msg string, extra map[string]any) {
	body := map[string]any{"error": msg}
	for k, v := range extra {
		if k != "error" {
			body[k] = v
		}
	}
	WriteJSON(w, status, body)
}

// Unavailable writes a 503 with a Retry-After header — the sink's
// backpressure/degraded shape. retryAfter is in seconds.
func Unavailable(w http.ResponseWriter, retryAfter int, msg string, extra map[string]any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	Error(w, http.StatusServiceUnavailable, msg, extra)
}

// NewServer returns the http.Server every vn2 listener runs, sink and router.
// Its timeouts close the slowloris hole: a peer that dribbles header bytes,
// stalls mid-body, or parks an idle keep-alive connection cannot pin a
// connection forever (the report handlers' MaxBytesReader bounds body size).
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// Degraded is the read-only "last-good" mode state machine shared by the
// ingest and status surfaces. Reasons are namespaced by a class prefix
// ("wal: ...", "drain: ...") so the recovery of one class cannot clear
// another's failure. The first Enter wins until its class clears.
type Degraded struct {
	mu      sync.Mutex
	reason  string
	since   time.Time
	active  atomic.Bool
	entries atomic.Uint64
}

// Enter flips into degraded mode with the given reason, returning true on
// the transition and false when already degraded (first reason wins) or
// when the reason is empty, which no Clear could ever match.
// onFirst, when non-nil, runs under the state lock BEFORE the active flag
// is published, so anything it captures (a last-good snapshot) is in place
// by the time readers observe Active() == true.
func (d *Degraded) Enter(reason string, onFirst func()) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if reason == "" || d.reason != "" {
		return false
	}
	d.reason = reason
	d.since = time.Now()
	if onFirst != nil {
		onFirst()
	}
	d.active.Store(true)
	d.entries.Add(1)
	return true
}

// Clear exits degraded mode if the active reason starts with the given
// class prefix. It returns the cleared reason and true on the transition.
// onClear, when non-nil, runs under the state lock before the flag drops.
func (d *Degraded) Clear(class string, onClear func()) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reason == "" || len(d.reason) < len(class) || d.reason[:len(class)] != class {
		return "", false
	}
	reason := d.reason
	d.reason = ""
	if onClear != nil {
		onClear()
	}
	d.active.Store(false)
	return reason, true
}

// Active reports whether the sink is degraded right now (lock-free).
func (d *Degraded) Active() bool { return d.active.Load() }

// Entries is how many times degraded mode has been entered.
func (d *Degraded) Entries() uint64 { return d.entries.Load() }

// Reason returns the active reason and when it was set ("" when healthy).
func (d *Degraded) Reason() (string, time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reason, d.since
}
