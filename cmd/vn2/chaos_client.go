package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/wsn-tools/vn2/internal/chaos"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/retry"
	"github.com/wsn-tools/vn2/vn2/reporter"
)

// client is the reporting side of a run, as drive sees it.
type client interface {
	// send puts one step's wire deliveries on the way to the fleet's edge.
	send(step int, ds []chaos.Delivery) error
	// restarted tells the client the killed shard is back; it returns how
	// many deliveries it had been holding for it and has now resent.
	restarted() (resent int, err error)
	// finish delivers the transport's held stragglers and whatever the
	// client still buffers, failing if anything stays un-ACKed. A client
	// that keeps delivery counters of its own returns them.
	finish(stragglers []chaos.Delivery) (*reporter.Stats, error)
}

// gateway is the HTTP client: each wire delivery goes out as one JSON array
// or one delta-encoded binary frame under the shared retry policy. It holds
// the gateway's side of the router's contract: deliveries go out oldest
// first and nothing newer is sent while an older one is un-ACKed, so a
// resend can never land behind a newer report of the same node. Against
// one healthy sink the pending list is never non-empty after a send.
type gateway struct {
	f *fleet
	// enc is non-nil on the binary path. Its delta baselines live as long
	// as the RUN, not the sink: they deliberately survive a kill -9, because
	// the WAL replay re-primes the sink's cache to exactly the last ACKed
	// frame — the restarted sink must keep accepting this client's deltas.
	enc     *packet.FrameEncoder
	pending []chaos.Delivery
}

func newGateway(f *fleet, bin bool) *gateway {
	g := &gateway{f: f}
	if bin {
		g.enc = packet.NewFrameEncoder()
	}
	return g
}

func (g *gateway) send(_ int, ds []chaos.Delivery) error {
	g.pending = append(g.pending, ds...)
	for len(g.pending) > 0 {
		if err := g.post(g.pending[0]); err != nil {
			// A refusal is expected only while a shard is down.
			if len(g.f.live()) < len(g.f.shards) {
				return nil
			}
			return err
		}
		g.pending = g.pending[1:]
	}
	return nil
}

func (g *gateway) restarted() (int, error) {
	resent := len(g.pending)
	return resent, g.send(0, nil)
}

func (g *gateway) finish(stragglers []chaos.Delivery) (*reporter.Stats, error) {
	if err := g.send(0, stragglers); err != nil {
		return nil, err
	}
	if len(g.pending) != 0 {
		return nil, fmt.Errorf("%d deliveries still pending at the gateway after recovery", len(g.pending))
	}
	return nil, nil
}

// post sends one wire transfer to the fleet's edge, honoring the
// transport's truncation verdict: a truncated delivery goes out cut
// mid-payload first and must draw a 400 (the JSON syntax error, or the
// frame CRC); then the whole payload is sent under the shared retry policy.
func (g *gateway) post(d chaos.Delivery) error {
	url, contentType, tag := g.f.edge()+"/report", "application/json", uint64(0xc4a05)
	if g.enc != nil {
		url, contentType, tag = g.f.edge()+"/report/bin", "application/octet-stream", 0xc4a06
	}
	// Attempt 1 is encoded exactly once: the cut probe must tear the SAME
	// frame the first real attempt sends (a second delta encode would diff
	// against baselines this very frame advanced).
	first, err := g.encode(d, 1)
	if err != nil {
		return err
	}
	if d.Truncated {
		resp, err := http.Post(url, contentType, bytes.NewReader(first[:len(first)*2/3]))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("truncated delivery got %d, want 400", resp.StatusCode)
		}
	}
	return postWithRetry(url, contentType, tag, noSleep, first,
		func(attempt int) ([]byte, error) { return g.encode(d, attempt) })
}

// encode builds the payload of one attempt at d. On the binary path the
// records become one delta-encoded frame — but after ANY failed attempt the
// edge's delta cache is in an unknown state (a backpressure 503 committed
// it, a 400 did not), so retries forget the client baselines and retransmit
// fully materialized, the one encoding correct against either state.
func (g *gateway) encode(d chaos.Delivery, attempt int) ([]byte, error) {
	if g.enc == nil {
		return json.Marshal(d.Records)
	}
	if attempt > 1 {
		g.enc.Forget()
	}
	g.enc.Reset()
	for _, rec := range d.Records {
		add := g.enc.Add
		if attempt > 1 {
			add = g.enc.AddFull
		}
		if err := add(rec.Node, rec.Epoch, rec.Vector); err != nil {
			return nil, err
		}
	}
	f, err := g.enc.Frame()
	return append([]byte(nil), f...), err
}

// postWithRetry is the ONE client retry policy every HTTP chaos delivery
// shares: POST to url until a 202, with decorrelated-jitter backoff
// (internal/retry, keyed by tag and the first body's size so equal runs
// draw equal delay sequences), 12 attempts, and a 503's Retry-After honored
// as an extra sleep ahead of the jittered one. Attempt 1 sends first;
// again(n) builds each retry's payload, which lets the binary path
// re-encode fully materialized frames per attempt.
func postWithRetry(url, contentType string, tag uint64, sleep func(time.Duration), first []byte, again func(attempt int) ([]byte, error)) error {
	b := retry.New(time.Millisecond, 50*time.Millisecond, tag, uint64(len(first)))
	payload, attempt := first, 0
	return retry.Do(context.Background(), b, 12, sleep, func() (err error) {
		if attempt++; attempt > 1 {
			if payload, err = again(attempt); err != nil {
				return err
			}
		}
		resp, err := http.Post(url, contentType, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			return nil
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				sleep(time.Duration(secs) * time.Second)
			}
		}
		return fmt.Errorf("report status %d", resp.StatusCode)
	})
}

const (
	// streamSpillCap bounds the reporter's spill queue. finish asserts the
	// high-water mark stays under it and that nothing was oldest-dropped —
	// the partition backlog must fit, or exactness is unprovable.
	streamSpillCap = 4096
	// streamBreakerThreshold/Cooldown: small enough that a multi-step
	// partition demonstrably trips the breaker, long enough that only the
	// harness's deliberate clock advances re-close it.
	streamBreakerThreshold = 3
	streamBreakerCooldown  = time.Minute
)

// streamClient is the production vn2/reporter against a real TCP listener,
// so the fault surface is the connection itself, not just the payload. On
// top of the record-level mix (the truncation verdict becomes a mid-frame
// connection cut) the step-keyed StreamFaults plan injects frame corruption
// (caught by the CRC, NACKed, full-re-encoded), extra mid-frame cuts, a
// hard partition window (the reporter spills into its bounded queue and its
// circuit breaker trips) and a slowloris probe (the sink must cut the
// stalled peer without disturbing the run). The breaker runs on a fake
// clock the client advances, so its behavior is a function of the fault
// plan, never of wall time.
type streamClient struct {
	f       *fleet
	rep     *reporter.Reporter
	faults  chaos.StreamFaults
	probeAt int
	logf    func(string, ...any)

	cur         *chaos.FaultConn // last conn handed to the reporter
	armed       *chaos.ConnFault // armed before any conn exists
	partitioned bool
	clock       time.Time
}

func newStreamClient(o chaosOptions, f *fleet, probeAt int, logf func(string, ...any)) (*streamClient, error) {
	s := &streamClient{
		f:       f,
		faults:  o.conn,
		probeAt: probeAt,
		logf:    logf,
		clock:   time.Unix(1_700_000_000, 0),
	}
	s.faults.Seed, s.faults.Cut = o.wire.Seed, o.wire.Truncate
	var err error
	s.rep, err = reporter.New(reporter.Config{
		Dial: func() (net.Conn, error) {
			if s.partitioned {
				return nil, errors.New("chaos: network partitioned")
			}
			c, err := net.Dial("tcp", f.edge())
			if err != nil {
				return nil, err
			}
			fc := chaos.NewFaultConn(c)
			if s.armed != nil {
				fc.Arm(*s.armed)
				s.armed = nil
			}
			s.cur = fc
			return fc, nil
		},
		MaxBatch:         256,
		SpillCap:         streamSpillCap,
		IOTimeout:        5 * time.Second,
		RetryMin:         time.Millisecond,
		RetryMax:         50 * time.Millisecond,
		Attempts:         12,
		BreakerThreshold: streamBreakerThreshold,
		BreakerCooldown:  streamBreakerCooldown,
		Seed:             uint64(o.wire.Seed),
		Sleep:            noSleep,
		Now:              func() time.Time { return s.clock },
	})
	return s, err
}

// arm schedules a connection fault against the next frame: on the live
// conn when there is one, otherwise on whichever conn the next dial
// creates. (If the reporter has already abandoned cur internally, the
// fault lands on a dead conn and simply never fires — a fault against a
// connection that no longer exists is a no-op, not an error.)
func (s *streamClient) arm(f chaos.ConnFault) {
	if s.cur != nil {
		s.cur.Arm(f)
		return
	}
	s.armed = &f
}

func (s *streamClient) report(d chaos.Delivery) {
	for _, rec := range d.Records {
		s.rep.Report(rec)
	}
}

func (s *streamClient) flush() error { return s.rep.Flush(context.Background()) }

func (s *streamClient) send(step int, ds []chaos.Delivery) error {
	v := s.faults.Verdict(step)
	if v.Partitioned {
		if !s.partitioned {
			s.partitioned = true
			s.rep.Close() // the cable is yanked; the live conn dies with it
			s.cur = nil
			s.logf("chaos: partition opened at step %d\n", step)
		}
		for _, d := range ds {
			s.report(d)
		}
		// Every delivery attempt into the partition must fail — first as
		// dial errors, then (once the breaker trips) as instant
		// ErrBreakerOpen. Nothing is lost either way: it all spills.
		if s.rep.Buffered() > 0 && s.flush() == nil {
			return errors.New("flush succeeded through the partition")
		}
		s.clock = s.clock.Add(20 * time.Second)
		return nil
	}
	if s.partitioned {
		s.partitioned = false
		// The partition heals; let the breaker cooldown elapse so the
		// next flush is the half-open probe that re-closes it.
		s.clock = s.clock.Add(2 * streamBreakerCooldown)
		s.logf("chaos: partition healed at step %d (spill backlog %d)\n", step, s.rep.Buffered())
	}

	if step == s.probeAt {
		if err := slowlorisProbe(s.f.edge()); err != nil {
			return fmt.Errorf("slowloris probe: %w", err)
		}
	}

	// Step-level connection faults hit the step's first frame; a
	// delivery-level truncation verdict re-arms a cut for its own frame.
	switch {
	case v.Cut:
		s.arm(chaos.ConnFault{CutAfter: 10, CorruptAt: -1}) // torn mid-header
	case v.Corrupt:
		s.arm(chaos.ConnFault{CutAfter: 0, CorruptAt: packet.FrameHeaderLen}) // CRC catches it
	}
	for _, d := range ds {
		if d.Truncated {
			s.arm(chaos.ConnFault{CutAfter: packet.FrameHeaderLen + 4, CorruptAt: -1}) // torn mid-payload
		}
		s.report(d)
		if err := s.flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	return nil
}

// restarted: the killed sink took the live connection with it. Everything
// it ACKed is on its disk, so there is nothing to resend — only the dead
// conn to forget, so the next fault arms against the next dial.
func (s *streamClient) restarted() (int, error) {
	s.cur = nil
	return 0, nil
}

// finish reports the stragglers, then drains the spill queue to empty —
// advancing the clock past the breaker cooldown between rounds in case the
// tail of the run left it open.
func (s *streamClient) finish(stragglers []chaos.Delivery) (*reporter.Stats, error) {
	for _, d := range stragglers {
		s.report(d)
	}
	for tries := 0; s.rep.Buffered() > 0; tries++ {
		if tries > 20 {
			return nil, fmt.Errorf("spill queue stuck at %d after %d drain rounds", s.rep.Buffered(), tries)
		}
		if err := s.flush(); err != nil {
			s.clock = s.clock.Add(2 * streamBreakerCooldown)
		}
	}
	stats := s.rep.Stats()
	if stats.SpillDrops != 0 {
		return nil, fmt.Errorf("spill queue dropped %d reports; the backlog bound is too small for this fault plan", stats.SpillDrops)
	}
	if stats.SpillHighWater > streamSpillCap {
		return nil, fmt.Errorf("spill high water %d exceeds the %d bound", stats.SpillHighWater, streamSpillCap)
	}
	return &stats, nil
}

// slowlorisProbe opens a connection, sends a torn header prefix, and stalls.
// A healthy sink cuts the peer at its read deadline — the probe must see a
// clean EOF, not a hang.
func slowlorisProbe(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Write([]byte(packet.FramePreamble)); err != nil {
		return err
	}
	c.SetReadDeadline(time.Now().Add(10 * streamReadTimeout))
	if _, err := io.ReadAll(c); err != nil {
		return fmt.Errorf("sink did not cut the stalled peer: %w", err)
	}
	return nil
}
