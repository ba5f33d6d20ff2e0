// Package bus is the sink's in-process event plane: a typed publish/
// subscribe fan-out connecting the ingest, store, and lifecycle layers to
// the HTTP visibility surface (GET /stream).
//
// Design constraints, in order:
//
//   - Publishing never blocks and never waits on a subscriber. Each
//     subscriber owns a bounded ring buffer; when a slow consumer falls
//     behind, its OLDEST buffered events are dropped and counted — the
//     serving path is never the victim of a stuck dashboard. The bound is
//     not a reservation: a ring grows with what it holds (Queue).
//   - No bus-level lock is held during fan-out. Publish assigns the
//     sequence number and snapshots the subscriber list under the bus
//     lock, releases it, and then touches each subscriber under that
//     subscriber's own lock.
//   - Events are totally ordered by Seq (assigned under the bus lock), so
//     any two subscribers that both receive events A and B see them in the
//     same order.
//   - A bounded journal of recent events supports resume: a subscriber
//     reconnecting with the last sequence it saw (SSE Last-Event-ID)
//     replays everything newer that the journal still holds, atomically
//     with its registration, so there is no gap between replay and live.
//
// Payloads are marshaled to JSON once at publish time and shared by every
// subscriber, which is exactly the shape the SSE writer needs.
package bus

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one published event. Seq is a bus-wide monotonically increasing
// sequence number (starting at 1); V versions the payload schema of Type so
// consumers can skip shapes they do not understand.
type Event struct {
	Seq  uint64          `json:"seq"`
	Time time.Time       `json:"ts"`
	Type string          `json:"type"`
	V    int             `json:"v"`
	Data json.RawMessage `json:"data"`
}

// DefaultJournal is the journal capacity when New is given 0.
const DefaultJournal = 256

// journalBytes is the journal's payload-byte budget. The journal is bounded
// by entries AND bytes: a burst of large events (a drain diagnosing hundreds
// of states in one epoch) evicts old entries early instead of pinning
// journalCap maximal payloads in sink memory.
const journalBytes = 1 << 20

// eventOverhead approximates the fixed in-memory cost of one journaled
// Event beyond its payload (sequence, timestamp, type header, slice
// headers) for the byte budget.
const eventOverhead = 96

// Bus is the event fan-out. The zero value is not usable; construct with New.
type Bus struct {
	mu        sync.Mutex
	seq       uint64
	subs      map[*Sub]struct{}
	journal   ring[Event]
	jBytes    int // payload bytes currently journaled (incl. overhead)
	evicted   uint64
	published atomic.Uint64
	encodeErr atomic.Uint64
}

// New builds a bus whose replay journal is bounded both by entry count
// (journalCap; 0 = DefaultJournal) and by journalBytes of payload. Whichever
// bound fills first evicts the oldest journaled events; the newest event is
// always retained even when it alone exceeds the byte budget.
func New(journalCap int) *Bus {
	if journalCap <= 0 {
		journalCap = DefaultJournal
	}
	return &Bus{
		subs:    make(map[*Sub]struct{}),
		journal: ring[Event]{bound: journalCap},
	}
}

// eventSize is one event's cost against the byte budget.
func eventSize(ev Event) int { return len(ev.Data) + len(ev.Type) + eventOverhead }

// Publish marshals data, assigns the next sequence number, journals the
// event, and fans it out to every subscriber. It never blocks: a full
// subscriber ring drops that subscriber's oldest event. The returned Event
// carries the assigned Seq; a marshal failure returns the error and
// publishes nothing.
func (b *Bus) Publish(typ string, version int, data any) (Event, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		b.encodeErr.Add(1)
		return Event{}, err
	}
	b.mu.Lock()
	b.seq++
	ev := Event{Seq: b.seq, Time: time.Now().UTC(), Type: typ, V: version, Data: raw}
	if old, rotated := b.journal.push(ev); rotated {
		b.jBytes -= eventSize(old)
	}
	b.jBytes += eventSize(ev)
	// Byte budget: a burst of large payloads evicts oldest-first before the
	// entry bound would, so the journal's memory stays flat. The newest
	// event always survives (n > 1) — resume semantics degrade to a
	// shorter replay window, never to a dead journal.
	for b.jBytes > journalBytes && b.journal.n > 1 {
		old, _ := b.journal.pop()
		b.jBytes -= eventSize(old)
		b.evicted++
	}
	// Pushed under mu: two publishers that released it first could reach a
	// subscriber's ring in the opposite order of their Seqs. Push never
	// blocks (ring insert + non-blocking notify), and nothing takes a Sub's
	// mutex before the bus's.
	for s := range b.subs {
		s.Push(ev)
	}
	b.mu.Unlock()
	b.published.Add(1)
	return ev, nil
}

// Subscribe attaches a live-only subscriber whose ring holds up to buffer
// events (0 = 64).
func (b *Bus) Subscribe(buffer int) *Sub {
	return b.Resume(0, buffer)
}

// Resume attaches a subscriber that first replays every journaled event
// with Seq > after, then receives live events — atomically, so nothing
// published between replay and registration is lost. If after predates the
// bounded journal, the subscriber simply gets the oldest events the journal
// still holds (and can detect the gap from the first Seq it sees).
func (b *Bus) Resume(after uint64, buffer int) *Sub {
	if buffer <= 0 {
		buffer = 64
	}
	s := &Sub{Queue: NewQueue[Event](buffer), bus: b}
	b.mu.Lock()
	for i := 0; i < b.journal.n; i++ {
		if ev := b.journal.at(i); ev.Seq > after {
			s.Push(ev)
		}
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// NextSeq is the sequence number the next published event will carry.
func (b *Bus) NextSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq + 1
}

// Stats is the bus's observability view.
type Stats struct {
	Published   uint64 `json:"published"`
	EncodeErrs  uint64 `json:"encode_errors"`
	Subscribers int    `json:"subscribers"`
	Dropped     uint64 `json:"dropped"`
	JournalLen  int    `json:"journal_len"`
	JournalCap  int    `json:"journal_cap"`
	// JournalBytes is the journal's current payload footprint and
	// JournalMaxBytes its budget; JournalEvictions counts events evicted
	// EARLY by the byte budget (normal ring rotation at the entry bound is
	// not an eviction — it is the journal working as sized).
	JournalBytes     int    `json:"journal_bytes"`
	JournalMaxBytes  int    `json:"journal_max_bytes"`
	JournalEvictions uint64 `json:"journal_evictions"`
}

// Stats reports the published count, current subscribers, and the total
// events dropped across all live subscribers' rings.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	subs := make([]*Sub, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	st := Stats{
		Published:        b.published.Load(),
		EncodeErrs:       b.encodeErr.Load(),
		JournalLen:       b.journal.n,
		JournalCap:       b.journal.bound,
		JournalBytes:     b.jBytes,
		JournalMaxBytes:  journalBytes,
		JournalEvictions: b.evicted,
	}
	b.mu.Unlock()
	st.Subscribers = len(subs)
	for _, s := range subs {
		st.Dropped += s.Dropped()
	}
	return st
}

// Shutdown closes every current subscriber, waking any blocked Next with
// ok=false. The bus itself stays usable (later publishes just have no
// listeners) — this exists so graceful HTTP shutdown can unwind long-lived
// /stream handlers instead of waiting out their connections.
func (b *Bus) Shutdown() {
	b.mu.Lock()
	subs := make([]*Sub, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

func (b *Bus) unsubscribe(s *Sub) {
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
}

// Sub is one subscriber: a Queue of undelivered events, registered with the
// bus until Close.
type Sub struct {
	*Queue[Event]
	bus *Bus
}

// Close detaches the subscriber. A blocked Next returns (Event{}, false).
// Close is idempotent.
func (s *Sub) Close() {
	s.Queue.Close()
	s.bus.unsubscribe(s)
}

// Queue is a FIFO of at most bound items with one consumer — what a /stream
// subscriber reads, and the sink's ingest queue. Push never blocks: a full
// queue sheds its oldest item, counted, never the producer. The bound is not
// a reservation: the ring grows by doubling with what it holds.
type Queue[T any] struct {
	mu      sync.Mutex
	ring    ring[T]
	dropped uint64
	closed  bool
	notify  chan struct{}
}

// NewQueue returns an empty queue of at most bound (≥ 1) items.
func NewQueue[T any](bound int) *Queue[T] {
	return &Queue[T]{ring: ring[T]{bound: bound}, notify: make(chan struct{}, 1)}
}

// Push appends v; once the queue is closed it drops v.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if !q.closed {
		if _, dropped := q.ring.push(v); dropped {
			q.dropped++
		}
	}
	q.mu.Unlock()
	q.wake()
}

func (q *Queue[T]) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Next blocks until an item is queued, the context is done, or the queue is
// closed and empty. ok is false exactly when no item is returned.
func (q *Queue[T]) Next(ctx context.Context) (v T, ok bool) {
	v, ok, _ = q.NextIdle(ctx, nil)
	return v, ok
}

// NextIdle is Next with an idle signal: when idleC fires before an item
// arrives, NextIdle returns with idle=true (and ok=false) so the caller can
// emit a keep-alive and come back. The caller owns the timer behind idleC
// and re-arms it for each wait; a nil idleC blocks indefinitely.
func (q *Queue[T]) NextIdle(ctx context.Context, idleC <-chan time.Time) (v T, ok, idle bool) {
	for {
		q.mu.Lock()
		v, ok = q.ring.pop()
		closed := q.closed
		q.mu.Unlock()
		if ok || closed {
			return v, ok, false
		}
		select {
		case <-ctx.Done():
			return v, false, false
		case <-idleC:
			return v, false, true
		case <-q.notify:
		}
	}
}

// TryNext returns a queued item without blocking.
func (q *Queue[T]) TryNext() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.pop()
}

// Len is how many items are queued.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.n
}

// Dropped is how many items the queue has shed at its bound.
func (q *Queue[T]) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Close stops the queue taking items and wakes a blocked Next, which returns
// what is still queued and then (zero, false). Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

// ring is a FIFO of at most bound (≥ 1) items whose backing array grows by
// doubling as items are pushed. At the bound a push overwrites the oldest
// item.
type ring[T any] struct {
	buf     []T
	head, n int
	bound   int
}

// push appends v. A ring full at its bound first drops its oldest item and
// returns it with dropped true.
func (r *ring[T]) push(v T) (old T, dropped bool) {
	if r.n == len(r.buf) {
		if r.n < r.bound {
			buf := make([]T, min(max(2*r.n, 8), r.bound))
			copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
			r.buf, r.head = buf, 0
		} else {
			old, dropped = r.pop()
		}
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	return old, dropped
}

// pop removes and returns the oldest item, zeroing its slot so the ring
// keeps nothing it no longer holds reachable.
func (r *ring[T]) pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.head] = r.buf[r.head], zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// at is the i-th oldest item, 0 ≤ i < n.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }
