package main

// The load generator: a paced closed loop per ingest connection (a gateway
// waits for the durable ACK before it sends its next frame), plus the
// observers that watch the SUT from outside while it runs — the SSE stream
// for diagnosis events and queue depth, and a poller for the fleet view.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/reporter"
)

// sender delivers one batch and returns once the SUT has acknowledged it as
// durable. sentAt is when the encoded batch started onto the wire.
type sender interface {
	send(batch []trace.Record) (sentAt time.Time, err error)
	wireBytes() int64 // frame or body bytes written so far, retries included
	close()
}

// streamSender is the production client: vn2/reporter over the persistent
// frame stream. Encoding happens inside Flush, so it is part of the latency.
type streamSender struct {
	rep  *reporter.Reporter
	sent atomic.Int64
}

// countingConn adds what the reporter writes to its sender's byte count.
type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.sent.Add(int64(n))
	return n, err
}

func newStreamSender(addr string, seed int64) (sender, error) {
	s := &streamSender{}
	dial := func() (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, reporter.DefaultIOTimeout)
		if err != nil {
			return nil, err
		}
		return countingConn{c, &s.sent}, nil
	}
	var err error
	s.rep, err = reporter.New(reporter.Config{Dial: dial, Seed: uint64(seed)})
	return s, err
}

func (s *streamSender) wireBytes() int64 { return s.sent.Load() }

func (s *streamSender) send(batch []trace.Record) (time.Time, error) {
	for _, rec := range batch {
		s.rep.Report(rec)
	}
	t0 := time.Now()
	return t0, s.rep.Flush(context.Background())
}

func (s *streamSender) close() { s.rep.Close() }

// httpSender posts one body per batch over a keep-alive connection of its
// own: delta-encoded VN2F frames to /report/bin, or JSON arrays to /report.
type httpSender struct {
	url    string
	client *http.Client
	enc    *packet.FrameEncoder // nil = JSON
	sent   int64                // body bytes posted
}

func newHTTPSender(base string, binary bool) sender {
	s := &httpSender{
		url:    base + "/report",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
	}
	if binary {
		s.url += "/bin"
		s.enc = packet.NewFrameEncoder()
	}
	return s
}

func (s *httpSender) send(batch []trace.Record) (time.Time, error) {
	body, ctype, err := encodeBody(s.enc, batch)
	if err != nil {
		return time.Now(), err
	}
	s.sent += int64(len(body))
	t0 := time.Now()
	resp, err := s.client.Post(s.url, ctype, bytes.NewReader(body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("POST %s: status %d", s.url, resp.StatusCode)
		}
	}
	if err != nil && s.enc != nil {
		// The sink's delta cache may or may not have advanced; only full
		// records are correct against either state.
		s.enc.Forget()
	}
	return t0, err
}

func (s *httpSender) wireBytes() int64 { return s.sent }

func (s *httpSender) close() { s.client.CloseIdleConnections() }

// encodeBody renders a batch in the wire form of an HTTP ingest edge: one
// delta-encoded frame when enc is set, else a JSON array.
func encodeBody(enc *packet.FrameEncoder, batch []trace.Record) (body []byte, ctype string, err error) {
	if enc == nil {
		body, err = json.Marshal(batch)
		return body, "application/json", err
	}
	enc.Reset()
	for _, rec := range batch {
		if err := enc.Add(rec.Node, rec.Epoch, rec.Vector); err != nil {
			return nil, "", err
		}
	}
	body, err = enc.Frame()
	return body, "application/octet-stream", err
}

// sample is one batch's trip: offsets from the start of the run.
type sample struct {
	sent, acked time.Duration
	ok          bool
}

// schedule is the paced closed loop's clock: batch i of a connection is due
// at i·period, is sent then or as soon as the previous ACK arrived if that
// is later, and counts as late when it starts more than a period overdue.
type schedule struct {
	period time.Duration
	sends  int
	late   int
}

func newSchedule(rate float64, conns int) *schedule {
	return &schedule{period: time.Duration(float64(batchSize*conns) / rate * float64(time.Second))}
}

// wait returns how long to sleep before sending batch i, given the time
// elapsed since the run started, and accounts the send.
func (s *schedule) wait(i int, elapsed time.Duration) time.Duration {
	due := time.Duration(i) * s.period
	s.sends++
	if elapsed-due > s.period {
		s.late++
	}
	return max(0, due-elapsed)
}

// runConn drives one connection's batches through its sender on schedule.
// It stops early at the hard deadline; batches never sent are reported as
// not ok.
func runConn(snd sender, batches [][]trace.Record, sch *schedule, start time.Time, hardStop time.Duration) []sample {
	out := make([]sample, len(batches))
	for i, b := range batches {
		elapsed := time.Since(start)
		if elapsed > hardStop {
			break
		}
		if d := sch.wait(i, elapsed); d > 0 {
			time.Sleep(d)
		}
		sentAt, err := snd.send(b)
		out[i] = sample{sent: sentAt.Sub(start), acked: time.Since(start), ok: err == nil}
	}
	return out
}

// diagEvent is one EpochDiagnosed as it arrived: by then the sink had
// diagnosed `states` flagged states of the epoch.
type diagEvent struct {
	at     time.Time
	states int
}

// sseObserver follows one sink's GET /stream.
type sseObserver struct {
	diag map[int][]diagEvent // epoch → its EpochDiagnosed events, in arrival order
	// announced is the number of diagnosed states the events so far add up
	// to; the only field read while the stream is still being followed.
	announced atomic.Int64
	queueMax  int // highest ReportAccepted.queue_depth seen
	err       error
	done      chan struct{}
}

// watchStream subscribes to base/stream and records events until ctx ends.
// It returns once the subscription is established, so no event published
// after it returns is missed.
func watchStream(ctx context.Context, base string) (*sseObserver, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s/stream: status %d", base, resp.StatusCode)
	}
	o := &sseObserver{diag: make(map[int][]diagEvent), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		var typ string
		for sc.Scan() {
			line := sc.Text()
			if t, ok := strings.CutPrefix(line, "event: "); ok {
				typ = t
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			now := time.Now()
			var ev struct {
				Epoch      int `json:"epoch"`
				States     int `json:"states"`
				QueueDepth int `json:"queue_depth"`
			}
			switch typ {
			case "EpochDiagnosed":
				if o.err = json.Unmarshal([]byte(data), &ev); o.err != nil {
					return
				}
				o.diag[ev.Epoch] = append(o.diag[ev.Epoch], diagEvent{now, ev.States})
			case "ReportAccepted":
				if o.err = json.Unmarshal([]byte(data), &ev); o.err != nil {
					return
				}
				o.queueMax = max(o.queueMax, ev.QueueDepth)
			}
		}
		if ctx.Err() == nil {
			o.err = fmt.Errorf("stream %s ended early: %v", base, sc.Err())
		}
	}()
	return o, nil
}

// viewPoller times the fleet-view read (GET /fleet through a router, GET
// /epochs on a direct sink) on a fixed cadence beside the writes, and with
// each read samples the sinks' diagnosis backlog from /metrics.
type viewPoller struct {
	latencies  []sample
	pendingMax float64
	err        error
	done       chan struct{} // closed when the poller has stopped; the fields are the reader's from then on
}

func pollView(ctx context.Context, viewURL string, sinks []*proc, every time.Duration, start time.Time) *viewPoller {
	p := &viewPoller{done: make(chan struct{})}
	client := &http.Client{Timeout: 30 * time.Second}
	go func() {
		defer close(p.done)
		defer client.CloseIdleConnections()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			t0 := time.Now()
			resp, err := client.Get(viewURL)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d", viewURL, resp.StatusCode)
				}
			}
			s := sample{sent: t0.Sub(start), acked: time.Since(start), ok: err == nil}
			pending := 0.0
			for _, sk := range sinks {
				if m, merr := sk.metrics(); merr == nil {
					pending += m["pending_states"]
				}
			}
			p.latencies = append(p.latencies, s)
			p.pendingMax = max(p.pendingMax, pending)
			if err != nil && p.err == nil && ctx.Err() == nil {
				p.err = err
			}
		}
	}()
	return p
}

// rssSampler reads the SUT's resident set from /proc on a fast cadence: a Go
// heap breathes with every collection, several times a second, and a
// reading every few hundred milliseconds catches it at a different phase
// each run.
type rssSampler struct {
	at   []time.Duration // since the start of the run
	mb   []float64       // resident MB summed over the SUT's processes
	err  error
	done chan struct{} // closed when the sampler has stopped; the fields are the reader's from then on
}

func sampleRSS(ctx context.Context, procs []*proc, every time.Duration, start time.Time) *rssSampler {
	r := &rssSampler{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			sum := 0.0
			for _, p := range procs {
				now, _, err := p.rssMB()
				if err != nil && r.err == nil && ctx.Err() == nil {
					r.err = err
				}
				sum += now
			}
			r.at = append(r.at, time.Since(start))
			r.mb = append(r.mb, sum)
		}
	}()
	return r
}
