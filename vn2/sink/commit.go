package sink

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// The commit point. Everything that changes what the monitor will see — a
// report batch from any transport, a model swap, a shard handoff — enters
// the sink through one step taken under commitMu:
//
//	check room → WAL append → queue push
//
// No producer appends or pushes outside that step, so queue order IS LSN
// order and every appended record is in the queue: the ingest loop applies
// items in the order a WAL replay would, and the applied watermark is the
// LSN of the last item it finished. Admission is all-or-nothing and comes
// first, so an item that does not fit leaves nothing behind. Lock order is
// commitMu → the WAL's mutex or the monitor's; lifecycle.Manager.SnapMu is
// independent (the ingest loop and the snapshot writer take it, no producer).

// outcome is the transport-independent verdict on one report batch. The
// HTTP edges map it onto status codes (202/400/413/503) and the stream
// listener onto the 8-byte ACK/NACK response.
type outcome struct {
	status   packet.StreamStatus
	accepted int            // reports committed (all of the batch, or 0)
	msg      string         // human-readable reason for NACKs
	detail   map[string]any // extra response payload (HTTP edge)
	// retryAfter is the backoff hint in seconds for backpressure NACKs. The
	// HTTP edge sends it as the 503 Retry-After header, the stream edge in
	// the VN2A response's hint byte — one value, both transports.
	retryAfter int
	// tooLarge marks a StreamNackBad batch that is well-formed but larger
	// than the queue itself: retrying it unchanged can never succeed, so the
	// HTTP edge answers 413 rather than a 503 the client would retry forever.
	tooLarge bool
}

// Backoff hints, in seconds. Busy is transient (queue and backlog drain
// within milliseconds); unavailable (degraded/draining) clears on drain-tick
// or restart timescales.
const (
	retryAfterBusy        = 1
	retryAfterUnavailable = 5
)

// Barrier failures that are not journal failures: refused for lack of room
// in the queue or in the diagnosis backlog (before anything was journaled),
// or queued but not applied in time.
var (
	errQueueFull    = errors.New("serve: ingest queue full")
	errBacklogFull  = errors.New("serve: diagnosis backlog full")
	errApplyTimeout = errors.New("serve: ingest loop did not apply the operation in time")
)

// room reports whether n more reports fit the queue. Only the ingest loop
// lowers depth, so under commitMu a true answer stays true until the push.
func (s *Server) room(n int) bool { return int(s.depth.Load())+n <= s.opts.QueueSize }

// spoken is the diagnosis backlog already spoken for: the monitor's pending
// states, every queued report (any of them may flag) and every pending state
// a queued handoff import carries. Admission keeps it at most MaxPending, so
// no ACKed report's flagged state is ever dropped.
func (s *Server) spoken() int { return s.mon.Pending() + s.QueueDepth() + int(s.backlog.Load()) }

// enqueue pushes one item. The caller holds commitMu and has checked room
// for the item's weight and backlog for its pending states.
func (s *Server) enqueue(it ingest.Item) {
	s.depth.Add(int64(it.Weight()))
	s.backlog.Add(int64(it.Pending))
	s.queue.Push(it)
}

// shedDegraded builds the NACK for work refused because the server is in
// degraded mode; shed is false when it is healthy.
func (s *Server) shedDegraded(msg string) (out outcome, shed bool) {
	if !s.deg.Active() {
		return outcome{}, false
	}
	reason, _ := s.deg.Reason()
	return outcome{
		status:     packet.StreamNackUnavailable,
		msg:        msg,
		detail:     map[string]any{"reason": reason},
		retryAfter: retryAfterUnavailable,
	}, true
}

// journalDown flips the server into degraded mode on a journal failure and
// builds the NACK: nothing is ACKed, the client owns the retry. The WAL
// fails stop, so the reason holds until a restart replays the journal.
func (s *Server) journalDown(op string, err error) outcome {
	s.enterDegraded(fmt.Sprintf("%s: %s: %v (restart to recover)", degradedWAL, op, err))
	return outcome{
		status:     packet.StreamNackUnavailable,
		msg:        "journal unavailable, report not accepted",
		detail:     map[string]any{"reason": err.Error()},
		retryAfter: retryAfterUnavailable,
	}
}

// commit is the one place report batches are journaled and queued; the JSON,
// /report/bin and stream edges all end here. batch runs under commitMu and
// yields the records, moving the delta cache to them: the binary edges
// decode their frame there (the cache must see frames in commit order, and
// both codecs reuse arenas), the JSON edge hands over records it decoded
// outside the lock. The cache is thus the same function of the committed
// batches live as after a replay, which feeds every batch through binDec.
//
// StreamAck (HTTP 202) is the durability contract: returned only after the
// whole batch is queued AND fsynced to the WAL (when enabled) — a kill -9
// after it loses nothing. The fsync runs outside commitMu so concurrent
// requests share one. Any other outcome acknowledges nothing and the client
// resends the whole batch, full-encoded. A busy or too-large batch was
// refused before the append; a journal failure can leave the batch
// journaled and queued but unacknowledged, and the resend is then surplus
// the monitor's duplicate handling absorbs.
func (s *Server) commit(batch func() ([]trace.Record, *ingest.Arena, error)) outcome {
	if out, shed := s.shedDegraded("degraded: ingest shed, serving last-good diagnosis"); shed {
		return out
	}
	s.commitMu.Lock()
	recs, arena, err := batch()
	if err != nil {
		s.commitMu.Unlock()
		s.badReqs.Add(1)
		return outcome{status: packet.StreamNackBad, msg: err.Error()}
	}
	n := len(recs)
	s.received.Add(uint64(n))
	// All-or-nothing: room in the queue, and in the diagnosis backlog should
	// every queued and offered report flag — no ACKed report is ever dropped.
	busy := ""
	if !s.room(n) {
		busy = "ingest queue full"
	} else if s.spoken()+n > s.opts.MaxPending {
		busy = "diagnosis backlog full"
		s.refusedBacklog.Add(uint64(n))
	}
	if busy != "" {
		s.commitMu.Unlock()
		s.binDec.Release(arena)
		s.rejected.Add(uint64(n))
		if limit := min(s.opts.QueueSize, s.opts.MaxPending); n > limit {
			return outcome{
				status:   packet.StreamNackBad,
				tooLarge: true,
				msg:      fmt.Sprintf("batch of %d reports exceeds the ingest queue or the diagnosis backlog (%d); send smaller batches", n, limit),
			}
		}
		return outcome{
			status:     packet.StreamNackBusy,
			msg:        busy,
			detail:     map[string]any{"accepted": 0, "dropped": n},
			retryAfter: retryAfterBusy,
		}
	}
	// One WAL record and one queue item per frame-sized run of the batch —
	// a single one for anything a client frame can carry; only a JSON body
	// can hold more records than one frame does.
	for rest := recs; len(rest) > 0; {
		var head []trace.Record
		head, rest = ingest.SplitFrame(rest)
		var lsn uint64
		if s.jnl != nil {
			var err error
			s.walBuf, err = ingest.FullFrame(s.walBuf, head)
			if err == nil {
				lsn, err = s.jnl.AppendBatch(s.walBuf)
			}
			if err != nil {
				s.commitMu.Unlock()
				return s.journalDown("append batch", err)
			}
		}
		it := ingest.Item{LSN: lsn, Recs: head}
		if len(rest) == 0 {
			it.Arena = arena // released once the whole batch is applied
		}
		s.enqueue(it)
	}
	depth := s.QueueDepth()
	s.commitMu.Unlock()
	if s.jnl != nil {
		if err := s.jnl.Sync(); err != nil {
			return s.journalDown("sync batch", err)
		}
	}
	s.accepted.Add(uint64(n))
	s.publish(EvReportAccepted, reportAcceptedEvent{Count: n, QueueDepth: depth})
	return outcome{status: packet.StreamAck, accepted: n}
}

// commitFrame commits one VN2F frame — the /report/bin and stream edges.
// Decoding is all-or-nothing against the sink's delta cache; a frame that
// does not decode is NACKed bad with the cache untouched.
func (s *Server) commitFrame(raw []byte) outcome {
	return s.commit(func() ([]trace.Record, *ingest.Arena, error) {
		a, err := s.binDec.DecodeArena(raw)
		if err != nil {
			s.binRejects.Add(1)
			return nil, nil, fmt.Errorf("bad binary frame (resend full encoding): %w", err)
		}
		s.binFrames.Add(1)
		s.binRecords.Add(uint64(len(a.Records())))
		s.binBytes.Add(uint64(len(raw)))
		return a.Records(), a, nil
	})
}

// writeOutcome maps a commit outcome onto the HTTP response.
func writeOutcome(w http.ResponseWriter, out outcome) {
	switch out.status {
	case packet.StreamAck:
		api.WriteJSON(w, http.StatusAccepted, map[string]any{"accepted": out.accepted})
	case packet.StreamNackBad:
		code := http.StatusBadRequest
		if out.tooLarge {
			code = http.StatusRequestEntityTooLarge
		}
		api.Error(w, code, out.msg, nil)
	default: // busy, or unavailable: degraded or journal failure
		api.Unavailable(w, out.retryAfter, out.msg, out.detail)
	}
}

// barrier is the commit step for everything that is not a report batch: it
// journals a control record (journal is nil for a read-only barrier) and
// queues apply at that position in the report order — where a WAL replay
// re-applies the record. pending is how many states apply adds to the
// diagnosis backlog (a handoff import's). With no room in the queue or the
// backlog it fails before journaling, so a control record is never in the
// WAL without being in the queue.
func (s *Server) barrier(pending int, journal func() (uint64, error), apply func()) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if !s.room(1) {
		return errQueueFull
	}
	if pending > 0 && s.spoken()+pending > s.opts.MaxPending {
		return errBacklogFull
	}
	var lsn uint64
	if s.jnl != nil && journal != nil {
		var err error
		if lsn, err = journal(); err != nil {
			return err
		}
	}
	s.enqueue(ingest.Item{LSN: lsn, Apply: apply, Pending: pending})
	return nil
}

// barrierWait is barrier, then waits (outside commitMu) for the ingest loop
// to run apply, so the caller observes every report committed before it and
// none committed after. The handoff handlers ride this: an export computed
// here cannot miss an already-ACKed report, and a drop cannot outrun one.
func (s *Server) barrierWait(pending int, journal func() (uint64, error), apply func()) error {
	done := make(chan struct{})
	err := s.barrier(pending, journal, func() {
		apply()
		close(done)
	})
	if err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(30 * time.Second):
		return errApplyTimeout
	}
}
