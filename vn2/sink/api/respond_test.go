package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestDegradedEnterFirstReasonWins(t *testing.T) {
	var d Degraded
	if d.Enter("", nil) || d.Active() || d.Entries() != 0 {
		t.Fatal("an empty reason entered degraded mode, which no Clear could leave")
	}
	var activeInHook bool
	if !d.Enter("wal: append failed", func() { activeInHook = d.Active() }) {
		t.Fatal("first Enter refused")
	}
	if activeInHook {
		t.Fatal("onFirst ran after Active() read true")
	}
	ran := false
	if d.Enter("drain: five failed ticks", func() { ran = true }) || ran {
		t.Fatal("a second Enter replaced the first reason or ran its hook")
	}
	if reason, since := d.Reason(); reason != "wal: append failed" || since.IsZero() || !d.Active() || d.Entries() != 1 {
		t.Fatalf("reason %q since %v, active %v, entries %d", reason, since, d.Active(), d.Entries())
	}
}

func TestDegradedClearMatchesClass(t *testing.T) {
	var d Degraded
	d.Enter("wal: append failed", nil)
	cleared := false
	if _, ok := d.Clear("drain:", func() { cleared = true }); ok || cleared || !d.Active() {
		t.Fatal("a drain probe cleared a WAL failure")
	}
	var activeInHook bool
	reason, ok := d.Clear("wal:", func() { activeInHook, cleared = d.Active(), true })
	if !ok || reason != "wal: append failed" || !cleared || !activeInHook || d.Active() {
		t.Fatalf("Clear(wal:) = %q, %v; hook ran %v (active inside %v); active after %v", reason, ok, cleared, activeInHook, d.Active())
	}
	if _, ok := d.Clear("wal:", nil); ok {
		t.Fatal("Clear on a healthy state reported a transition")
	}
	if r, _ := d.Reason(); r != "" {
		t.Fatalf("reason %q after Clear", r)
	}
	d.Enter("drain: failing", nil)
	if d.Entries() != 2 {
		t.Fatalf("entries %d after two entries", d.Entries())
	}
}

func TestUnavailable(t *testing.T) {
	rec := httptest.NewRecorder()
	Unavailable(rec, 7, "queue full", map[string]any{"error": "shadow", "dropped": 3})
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "7" ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Retry-After %q, Content-Type %q", rec.Code, rec.Header().Get("Retry-After"), rec.Header().Get("Content-Type"))
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["error"] != "queue full" || body["dropped"] != 3.0 || len(body) != 2 {
		t.Fatalf("body %v: want the message under error, not the extra's", body)
	}
}
