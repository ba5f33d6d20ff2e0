// Package reporter is the production client for the sink's persistent
// frame-stream ingest edge (vn2 serve -stream-addr). It batches reports into
// delta-encoded VN2F frames, keeps one long-lived TCP connection, and treats
// every failure the same way the protocol demands: after ANY non-ACK outcome
// — an I/O error, a NACK, a reconnect — the sink's delta cache is in an
// unknown state relative to the client's baselines, so the encoder Forgets
// and the batch is retransmitted fully materialized, the one encoding
// correct against either state.
//
// Reports accumulate in a bounded in-memory spill queue, so a sink outage
// never grows the client without bound: at SpillCap the oldest report is
// dropped and counted. Delivery retries with decorrelated-jitter backoff
// (internal/retry, keyed by Config.Seed — bit-identical sequences for
// identical configs), and a circuit breaker trips after BreakerThreshold
// consecutive batch failures so a dead sink costs one fast error per Flush
// instead of a full retry ladder.
package reporter

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/retry"
	"github.com/wsn-tools/vn2/internal/trace"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxBatch  = 64
	DefaultSpillCap  = 4096
	DefaultIOTimeout = 10 * time.Second
	DefaultAttempts  = 8

	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
)

// reporterRetryTag keys the backoff jitter stream (see internal/rng).
const reporterRetryTag = 0xd1a7_0001

// ErrBreakerOpen is returned by Flush while the circuit breaker is open:
// the sink has failed BreakerThreshold consecutive deliveries and the
// cooldown has not yet elapsed. Reports keep spilling locally; the caller
// should keep calling Flush on its normal cadence — the first Flush after
// the cooldown probes the sink (half-open) and closes the breaker on
// success.
var ErrBreakerOpen = errors.New("reporter: circuit breaker open")

// Config parametrizes a Reporter. Addr or Dial must be set.
type Config struct {
	// Addr is the sink's stream address, dialed over TCP. Ignored when
	// Dial is set.
	Addr string
	// Dial overrides the dialer; chaos harnesses inject fault wrappers
	// here.
	Dial func() (net.Conn, error)

	// MaxBatch caps records per frame (0 = 64, max 65535).
	MaxBatch int
	// SpillCap bounds the in-memory spill queue; at the cap the OLDEST
	// report is dropped and SpillDrops incremented (0 = 4096).
	SpillCap int
	// IOTimeout bounds each frame write and each response read. Always
	// measured on the wall clock, never Config.Now — deadlines are enforced
	// by the kernel (0 = 10s).
	IOTimeout time.Duration

	// RetryMin/RetryMax bound the decorrelated-jitter backoff
	// (0 = internal/retry defaults). Attempts caps delivery attempts per
	// batch (0 = 8).
	RetryMin, RetryMax time.Duration
	Attempts           int

	// BreakerThreshold is the consecutive failed batches that open the
	// breaker (0 = 5); BreakerCooldown how long it stays open before a
	// half-open probe (0 = 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Seed keys the jitter stream: equal seeds give bit-identical backoff
	// sequences.
	Seed uint64
	// Sleep is the backoff sleeper (nil = time.Sleep); tests and the chaos
	// harness inject no-ops.
	Sleep func(time.Duration)
	// Now is the breaker's clock (nil = time.Now); tests inject a fake to
	// step the cooldown deterministically.
	Now func() time.Time
}

// Stats is a point-in-time snapshot of the reporter's counters.
type Stats struct {
	Buffered       int    // reports waiting in the spill queue
	SpillDrops     uint64 // oldest-dropped reports (queue hit SpillCap)
	SpillHighWater int    // max spill-queue depth ever observed
	Frames         uint64 // frames ACKed
	Records        uint64 // records ACKed
	BytesSent      uint64 // frame bytes written to the wire, retransmits included
	FullRecords    uint64 // records written fully encoded, retransmits included
	Nacks          uint64 // NACK responses received
	Retries        uint64 // delivery attempts beyond each batch's first
	Redials        uint64 // connections established
	BreakerTrips   uint64 // closed/half-open → open transitions
	BreakerState   string // "closed" | "open" | "half-open"
}

// Reporter is the stream client. Report may be called concurrently with
// Flush; Flush calls are serialized internally.
type Reporter struct {
	cfg   Config
	sleep func(time.Duration)
	now   func() time.Time

	mu                                       sync.Mutex // guards queue, counters, breaker
	buf                                      []trace.Record
	peeked                                   int // in-flight batch head still in buf (shrunk by oldest-drop)
	drops                                    uint64
	hwm                                      int
	frames, records, nacks, retries, redials uint64
	bytesSent, fullRecords                   uint64
	br                                       retry.Breaker

	sendMu  sync.Mutex // serializes Flush; guards conn/enc/resync
	conn    net.Conn
	enc     *packet.FrameEncoder
	resync  bool // next frame must Forget + full-encode
	backoff *retry.Backoff
	respBuf []byte
	// hint is the sink's retry-after from the last NACK (VN2A byte 5),
	// consumed by the next inter-attempt sleep. Only the delivery goroutine
	// (under sendMu) touches it.
	hint time.Duration
}

// New validates cfg, applies defaults, and returns a Reporter. No
// connection is made until the first Flush with queued reports.
func New(cfg Config) (*Reporter, error) {
	if cfg.Addr == "" && cfg.Dial == nil {
		return nil, errors.New("reporter: Config.Addr or Config.Dial required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch > packet.MaxFrameRecords {
		cfg.MaxBatch = packet.MaxFrameRecords
	}
	if cfg.SpillCap <= 0 {
		cfg.SpillCap = DefaultSpillCap
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = DefaultIOTimeout
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
	r := &Reporter{
		cfg:     cfg,
		sleep:   cfg.Sleep,
		now:     cfg.Now,
		enc:     packet.NewFrameEncoder(),
		backoff: retry.New(cfg.RetryMin, cfg.RetryMax, reporterRetryTag, cfg.Seed),
		respBuf: make([]byte, packet.StreamRespLen),
	}
	if r.now == nil {
		r.now = time.Now
	}
	r.br = retry.Breaker{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown}
	return r, nil
}

// Report queues one report for delivery. At SpillCap the oldest queued
// report is dropped to make room — bounded memory beats unbounded growth
// during a long sink outage; the drop is counted, never silent. The record's
// Vector is stored as given and must not be mutated by the caller
// afterwards.
func (r *Reporter) Report(rec trace.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) >= r.cfg.SpillCap {
		r.buf = r.buf[1:]
		r.drops++
		if r.peeked > 0 {
			// The dropped report was part of the batch Flush has in flight;
			// its ACK (or abandonment) must not pop a survivor in its place.
			r.peeked--
		}
	}
	r.buf = append(r.buf, rec)
	if len(r.buf) > r.hwm {
		r.hwm = len(r.buf)
	}
	// append never reuses r.buf[1:]'s vacated slot, so the backing array
	// creeps; re-home the queue once the dead prefix dominates.
	if cap(r.buf) > 2*r.cfg.SpillCap && len(r.buf) <= r.cfg.SpillCap {
		r.buf = append(make([]trace.Record, 0, r.cfg.SpillCap), r.buf...)
	}
}

// Buffered returns the current spill-queue depth.
func (r *Reporter) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Flush drives the spill queue to empty: peek up to MaxBatch reports,
// deliver the frame with retries, pop on ACK, repeat. Reports are popped
// only after the sink's ACK (which the sink sends only after the fsync), so
// a failure mid-flush loses nothing — the batch stays queued for the next
// Flush. Returns ErrBreakerOpen without touching the network while the
// breaker is open.
func (r *Reporter) Flush(ctx context.Context) error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	for {
		batch := r.peek()
		if len(batch) == 0 {
			return nil
		}
		if err := r.allow(); err != nil {
			r.unpeek()
			return err
		}
		if err := r.sendBatch(ctx, batch); err != nil {
			r.deliveryFailed()
			r.unpeek()
			return err
		}
		r.deliverySucceeded(len(batch))
		r.pop()
	}
}

// Close drops the connection. Queued reports stay queued; a later Flush
// redials.
func (r *Reporter) Close() error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.dropConn()
	return nil
}

// Stats snapshots the counters.
func (r *Reporter) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Buffered:       len(r.buf),
		SpillDrops:     r.drops,
		SpillHighWater: r.hwm,
		Frames:         r.frames,
		Records:        r.records,
		BytesSent:      r.bytesSent,
		FullRecords:    r.fullRecords,
		Nacks:          r.nacks,
		Retries:        r.retries,
		Redials:        r.redials,
		BreakerTrips:   r.br.Trips(),
		BreakerState:   r.br.State(),
	}
}

// peek marks up to MaxBatch head reports as in flight and returns them.
// They remain queued until pop; Report's oldest-drop shrinks the in-flight
// head count instead of popping survivors out from under it.
func (r *Reporter) peek() []trace.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if n > r.cfg.MaxBatch {
		n = r.cfg.MaxBatch
	}
	r.peeked = n
	return r.buf[:n]
}

// pop removes the in-flight head after an ACK.
func (r *Reporter) pop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[r.peeked:]
	r.peeked = 0
}

// unpeek abandons the in-flight claim after a failed delivery; the batch
// stays queued.
func (r *Reporter) unpeek() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peeked = 0
}

func (r *Reporter) allow() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.br.Allow(r.now()) {
		return ErrBreakerOpen
	}
	return nil
}

func (r *Reporter) deliveryFailed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.br.Fail(r.now())
}

func (r *Reporter) deliverySucceeded(records int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.br.Success()
	r.frames++
	r.records += uint64(records)
}

// sendBatch runs one batch through the retry ladder. The FIRST attempt may
// delta-encode against the encoder's baselines; every retry — and every
// attempt after a reconnect or NACK — Forgets and re-encodes fully, because
// encoding itself advances the client baselines whether or not the sink
// ever committed the frame.
func (r *Reporter) sendBatch(ctx context.Context, batch []trace.Record) error {
	first := true
	r.hint = 0
	// Honor the sink's retry-after hint: the jittered delay is raised to at
	// least what the sink asked for, matching how an HTTP client treats the
	// 503 Retry-After header. Jitter still applies above the floor, so a
	// fleet of hinted reporters does not reconverge in lockstep.
	sleep := r.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	hinted := func(d time.Duration) {
		if r.hint > d {
			d = r.hint
		}
		r.hint = 0
		sleep(d)
	}
	return retry.Do(ctx, r.backoff, r.cfg.Attempts, hinted, func() error {
		if !first {
			r.mu.Lock()
			r.retries++
			r.mu.Unlock()
			r.resync = true
		}
		first = false
		return r.attempt(batch)
	})
}

// attempt delivers the batch once over the persistent connection.
func (r *Reporter) attempt(batch []trace.Record) error {
	if r.conn == nil {
		c, err := r.dial()
		if err != nil {
			r.resync = true
			return err
		}
		r.conn = c
		// A fresh connection says nothing about the sink's cache — it may be
		// a restarted sink with a cold cache. Assume nothing.
		r.resync = true
		r.mu.Lock()
		r.redials++
		r.mu.Unlock()
	}

	frame, err := r.encode(batch)
	if err != nil {
		return err // encoding bug, not a transport fault
	}

	c := r.conn
	c.SetWriteDeadline(time.Now().Add(r.cfg.IOTimeout))
	if _, err := c.Write(frame); err != nil {
		r.dropConn()
		return fmt.Errorf("reporter: write frame: %w", err)
	}
	r.mu.Lock()
	r.bytesSent += uint64(len(frame))
	r.fullRecords += uint64(r.enc.Fulls())
	r.mu.Unlock()
	c.SetReadDeadline(time.Now().Add(r.cfg.IOTimeout))
	resp, err := packet.ReadStreamResp(c, r.respBuf)
	if err != nil {
		// The frame may well have been committed; only the ACK is lost.
		// Retrying full-encoded is correct against either outcome — the
		// sink's monitor absorbs the duplicates.
		r.dropConn()
		return fmt.Errorf("reporter: read response: %w", err)
	}

	switch resp.Status {
	case packet.StreamAck:
		r.resync = false
		return nil
	case packet.StreamNackBusy:
		r.noteNack()
		r.hint = time.Duration(resp.RetryAfter) * time.Second
		return fmt.Errorf("reporter: sink busy: %d/%d records accepted", resp.Accepted, len(batch))
	case packet.StreamNackBad:
		r.noteNack()
		return fmt.Errorf("reporter: sink rejected frame as bad")
	default:
		r.noteNack()
		r.hint = time.Duration(resp.RetryAfter) * time.Second
		return fmt.Errorf("reporter: sink unavailable")
	}
}

// noteNack counts a NACK and schedules a resync: whatever state the NACK
// left the sink's cache in, the next frame must not delta against it. The
// connection itself stays up — NACKs are in-band, not connection-fatal.
func (r *Reporter) noteNack() {
	r.resync = true
	r.mu.Lock()
	r.nacks++
	r.mu.Unlock()
}

// encode builds the batch's frame. On resync it Forgets first, so no record
// deltas against a baseline from an earlier frame — each node's first record
// in this frame goes out fully materialized. Later records of the same node
// may still delta against that first one: intra-frame bases are
// reconstructed by the decoder inside the same all-or-nothing commit, so
// they carry no cross-frame state to be wrong about.
func (r *Reporter) encode(batch []trace.Record) ([]byte, error) {
	r.enc.Reset()
	if r.resync {
		r.enc.Forget()
	}
	for i := range batch {
		if err := r.enc.Add(batch[i].Node, batch[i].Epoch, batch[i].Vector); err != nil {
			return nil, fmt.Errorf("reporter: encode record %d: %w", i, err)
		}
	}
	return r.enc.Frame()
}

func (r *Reporter) dial() (net.Conn, error) {
	if r.cfg.Dial != nil {
		return r.cfg.Dial()
	}
	return net.DialTimeout("tcp", r.cfg.Addr, r.cfg.IOTimeout)
}

func (r *Reporter) dropConn() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.resync = true
}
