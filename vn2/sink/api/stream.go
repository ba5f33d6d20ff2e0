package api

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/wsn-tools/vn2/vn2/sink/bus"
)

// StreamHeartbeat is how long /stream waits with nothing to send before
// emitting an SSE comment to keep intermediaries from timing out the
// connection.
const StreamHeartbeat = 15 * time.Second

// Stream bridges the event bus to SSE (GET /stream). Each connection gets
// its own bounded subscriber ring of `buffer` events; a client that stops
// reading loses its oldest pending events (counted on the bus) rather than
// stalling the sink. Reconnecting clients send the standard Last-Event-ID
// header (or a last_id query parameter) and are resumed from the bus's
// bounded journal, atomically with re-subscription, so no event published
// during the reconnect window is missed while the journal still holds it.
func Stream(b *bus.Bus, buffer int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			Error(w, http.StatusInternalServerError, "streaming unsupported", nil)
			return
		}
		var last uint64
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			last, _ = strconv.ParseUint(v, 10, 64)
		} else if v := r.URL.Query().Get("last_id"); v != "" {
			last, _ = strconv.ParseUint(v, 10, 64)
		}
		sub := b.Resume(last, buffer)
		defer sub.Close()

		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("Connection", "keep-alive")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		// An opening comment flushes headers immediately so EventSource
		// fires onopen before the first event.
		fmt.Fprintf(w, ": stream next_seq=%d\n\n", b.NextSeq())
		fl.Flush()

		// One timer, re-armed after every wait (an undrained tick: one early heartbeat).
		ctx, heartbeat := r.Context(), time.NewTimer(StreamHeartbeat)
		defer heartbeat.Stop()
		for {
			ev, ok, idle := sub.NextIdle(ctx, heartbeat.C)
			heartbeat.Reset(StreamHeartbeat)
			if idle {
				fmt.Fprint(w, ": heartbeat\n\n")
				fl.Flush()
				continue
			}
			if !ok {
				return // client gone or bus shut down
			}
			// id before data: the browser records it only once the event
			// dispatches, which is exactly the resume point we want.
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data); err != nil {
				return
			}
			fl.Flush()
		}
	})
}
