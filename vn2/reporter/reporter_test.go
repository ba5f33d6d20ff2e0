package reporter

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// fakeBehavior scripts how the fake sink answers one incoming frame. The
// distinction that matters is WHERE the fault lands relative to the commit:
// a NACK-bad never touched the cache, a cut-after-commit committed but the
// ACK died on the wire — the client cannot tell these apart, which is
// exactly why the protocol demands Forget + full re-encode on any non-ACK.
type fakeBehavior int

const (
	behaveAck             fakeBehavior = iota
	behaveNackBad                      // no decode, respond NackBad (the CRC-failure shape)
	behaveNackBusy                     // decode + commit, respond NackBusy (the shed shape)
	behaveCutBeforeCommit              // drop the conn without decoding
	behaveCutAfterCommit               // decode + commit, drop the conn without responding
)

// fakeSink is a scriptable stream peer: a real TCP listener speaking the
// VN2F frame + 8-byte response protocol, backed by the sink's own
// delta-cache decoder and a monitor-style absorber (per-node last-epoch
// watermark; duplicates and stale reports vanish). What survives absorption
// is the ground truth tests compare bit-exactly across runs.
type fakeSink struct {
	t  *testing.T
	ln net.Listener

	mu         sync.Mutex
	dec        *ingest.BinaryDecoder
	script     []fakeBehavior
	last       map[packet.NodeID]int
	accepted   []trace.Record
	frames     int
	conns      map[net.Conn]struct{}
	retryAfter int // hint attached to NACK responses (seconds)
}

func newFakeSink(t *testing.T) *fakeSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakeSink{
		t:     t,
		ln:    ln,
		dec:   ingest.NewBinaryDecoder(),
		last:  make(map[packet.NodeID]int),
		conns: make(map[net.Conn]struct{}),
	}
	go f.serve()
	t.Cleanup(f.stop)
	return f
}

func (f *fakeSink) addr() string { return f.ln.Addr().String() }

// stop kills the listener AND every live connection — closing only the
// listener would leave established conns serving, which is not what a dead
// sink looks like.
func (f *fakeSink) stop() {
	f.ln.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.conns {
		c.Close()
	}
}

// program appends behaviors to the script; frames beyond the script ACK.
func (f *fakeSink) program(bs ...fakeBehavior) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.script = append(f.script, bs...)
}

func (f *fakeSink) next() fakeBehavior {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.script) == 0 {
		return behaveAck
	}
	b := f.script[0]
	f.script = f.script[1:]
	return b
}

func (f *fakeSink) serve() {
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return
		}
		go f.handle(c)
	}
}

func (f *fakeSink) handle(c net.Conn) {
	f.mu.Lock()
	f.conns[c] = struct{}{}
	f.mu.Unlock()
	defer func() {
		c.Close()
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	var buf []byte
	for {
		frame, err := packet.ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = frame
		switch b := f.next(); b {
		case behaveNackBad:
			f.respond(c, packet.StreamNackBad, 0)
		case behaveCutBeforeCommit:
			return
		default:
			n, err := f.commit(frame)
			if err != nil {
				f.respond(c, packet.StreamNackBad, 0)
				continue
			}
			switch b {
			case behaveCutAfterCommit:
				return
			case behaveNackBusy:
				f.respond(c, packet.StreamNackBusy, n/2)
			default:
				f.respond(c, packet.StreamAck, n)
			}
		}
	}
}

func (f *fakeSink) commit(frame []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	recs, err := f.dec.Decode(frame)
	if err != nil {
		return 0, err
	}
	f.frames++
	for _, rec := range recs {
		if prev, ok := f.last[rec.Node]; ok && rec.Epoch <= prev {
			continue // duplicate or stale: absorbed, monitor-style
		}
		f.last[rec.Node] = rec.Epoch
		rec.Vector = append([]float64(nil), rec.Vector...)
		f.accepted = append(f.accepted, rec)
	}
	return len(recs), nil
}

func (f *fakeSink) respond(c net.Conn, st packet.StreamStatus, accepted int) {
	ra := 0
	if st != packet.StreamAck {
		f.mu.Lock()
		ra = f.retryAfter
		f.mu.Unlock()
	}
	c.Write(packet.AppendStreamResp(nil, packet.StreamResp{Status: st, Accepted: accepted, RetryAfter: ra}))
}

// snapshot returns the absorbed record stream for bit-exact comparison.
func (f *fakeSink) snapshot() []trace.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]trace.Record(nil), f.accepted...)
}

// workload builds a deterministic multi-epoch multi-node report stream with
// mostly-constant vectors, so consecutive epochs delta-encode tightly.
func workload(nodes, epochs int) []trace.Record {
	recs := make([]trace.Record, 0, nodes*epochs)
	for e := 1; e <= epochs; e++ {
		for n := 0; n < nodes; n++ {
			vec := make([]float64, 8)
			for k := range vec {
				vec[k] = float64(100*n + k)
			}
			vec[e%8] += float64(e) // one entry drifts per epoch
			recs = append(recs, trace.Record{Node: packet.NodeID(n + 1), Epoch: e, Vector: vec})
		}
	}
	return recs
}

func noSleep(time.Duration) {}

func newTestReporter(t *testing.T, cfg Config) *Reporter {
	t.Helper()
	if cfg.Sleep == nil {
		cfg.Sleep = noSleep
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestReporterHappyPath(t *testing.T) {
	sink := newFakeSink(t)
	r := newTestReporter(t, Config{Addr: sink.addr()})
	recs := workload(4, 6)
	for _, rec := range recs {
		r.Report(rec)
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := r.Stats()
	if st.Buffered != 0 || st.Records != uint64(len(recs)) || st.Nacks != 0 || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.BreakerState != "closed" {
		t.Fatalf("breaker %q, want closed", st.BreakerState)
	}
	if got := sink.snapshot(); len(got) != len(recs) {
		t.Fatalf("sink absorbed %d records, want %d", len(got), len(recs))
	}
	if sink.dec.Deltas() == 0 {
		t.Fatal("no delta records on the wire; the happy path exercised only full encoding")
	}
	// With no retransmit the wire counters are the sink's view: every record
	// it did not reconstruct from a delta went out full, and the bytes stay
	// under what full encoding alone would have cost.
	if want := st.Records - sink.dec.Deltas(); st.FullRecords != want || st.FullRecords < 4 {
		t.Fatalf("FullRecords %d, want %d (4 nodes' first reports at least)", st.FullRecords, want)
	}
	if full := st.Records * (8 + 8*8); st.BytesSent == 0 || st.BytesSent >= full {
		t.Fatalf("BytesSent %d, want within (0, %d)", st.BytesSent, full)
	}
	if st.SpillHighWater != len(recs) {
		t.Fatalf("high water %d, want %d", st.SpillHighWater, len(recs))
	}
}

func TestReporterSpillBound(t *testing.T) {
	dials := 0
	r := newTestReporter(t, Config{
		Dial: func() (net.Conn, error) { dials++; return nil, errors.New("sink down") },
	})
	recs := workload(1, DefaultSpillCap+8) // 8 reports more than the queue holds
	for _, rec := range recs {
		r.Report(rec)
	}
	st := r.Stats()
	if st.Buffered != DefaultSpillCap || st.SpillDrops != 8 || st.SpillHighWater != DefaultSpillCap {
		t.Fatalf("stats %+v, want buffered %d, drops 8, high water %d", st, DefaultSpillCap, DefaultSpillCap)
	}
	err := r.Flush(context.Background())
	if err == nil {
		t.Fatal("Flush against a dead sink succeeded")
	}
	if dials != DefaultAttempts {
		t.Fatalf("Flush dialed %d times, want one per attempt (%d)", dials, DefaultAttempts)
	}
	// Nothing was lost to the failure itself: the batch stays queued.
	if got := r.Buffered(); got != DefaultSpillCap {
		t.Fatalf("post-failure buffered %d, want %d", got, DefaultSpillCap)
	}
	// The survivors are the NEWEST reports (oldest-drop).
	r.mu.Lock()
	first := r.buf[0].Epoch
	r.mu.Unlock()
	if first != 9 {
		t.Fatalf("oldest surviving epoch %d, want 9 (epochs 1..8 dropped)", first)
	}
}

func TestReporterBreaker(t *testing.T) {
	sink := newFakeSink(t)
	clock := time.Unix(0, 0)
	down := true
	dials := 0
	r := newTestReporter(t, Config{
		Dial: func() (net.Conn, error) {
			dials++
			if down {
				return nil, errors.New("sink down")
			}
			return net.Dial("tcp", sink.addr())
		},
		Now: func() time.Time { return clock },
	})
	for _, rec := range workload(2, 2) {
		r.Report(rec)
	}

	// One failed batch short of the threshold leaves the breaker closed; the
	// next one opens it.
	for i := 0; i < DefaultBreakerThreshold; i++ {
		if st := r.Stats(); st.BreakerState != "closed" {
			t.Fatalf("after %d failed batches: %+v, want closed", i, st)
		}
		if err := r.Flush(context.Background()); err == nil {
			t.Fatalf("flush %d against dead sink succeeded", i)
		}
	}
	st := r.Stats()
	if st.BreakerState != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after threshold: %+v", st)
	}

	// While open, Flush fails fast without touching the network.
	preDials := dials
	if err := r.Flush(context.Background()); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker: err %v, want ErrBreakerOpen", err)
	}
	if dials != preDials {
		t.Fatalf("open breaker dialed (%d → %d)", preDials, dials)
	}

	// Cooldown not yet elapsed: still refused.
	clock = clock.Add(DefaultBreakerCooldown - time.Second)
	if err := r.Flush(context.Background()); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("before the cooldown: err %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapses → half-open probe; still down → reopens immediately.
	clock = clock.Add(time.Second)
	if err := r.Flush(context.Background()); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("half-open probe: err %v, want a dial failure", err)
	}
	if st := r.Stats(); st.BreakerState != "open" || st.BreakerTrips != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}
	if err := r.Flush(context.Background()); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("breaker did not reopen after the failed probe")
	}

	// Sink recovers; the next post-cooldown probe closes the breaker and
	// the queue drains completely.
	down = false
	clock = clock.Add(DefaultBreakerCooldown)
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("recovery flush: %v", err)
	}
	st = r.Stats()
	if st.BreakerState != "closed" || st.Buffered != 0 {
		t.Fatalf("after recovery: %+v", st)
	}
	if got := sink.snapshot(); len(got) != 4 {
		t.Fatalf("sink absorbed %d records, want 4", len(got))
	}
}

func TestReporterBatchSplitting(t *testing.T) {
	sink := newFakeSink(t)
	r := newTestReporter(t, Config{Addr: sink.addr()})
	recs := workload(4, 33) // 132 records → frames of 64, 64, 4
	for _, rec := range recs {
		r.Report(rec)
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := r.Stats(); st.Frames != 3 {
		t.Fatalf("frames %d, want 3", st.Frames)
	}
	if got := sink.snapshot(); len(got) != len(recs) {
		t.Fatalf("sink absorbed %d, want %d", len(got), len(recs))
	}
}

// TestReporterRetryAfterHint: a NACK-busy carrying a retry-after hint
// raises the next inter-attempt sleep to at least the hinted duration —
// the jitter alone could not reach it (the first two draws stay under
// 9·retry.Min) — and the hint is consumed, so the following sleeps fall
// back to the jittered ladder.
func TestReporterRetryAfterHint(t *testing.T) {
	sink := newFakeSink(t)
	sink.mu.Lock()
	sink.retryAfter = 3
	sink.mu.Unlock()
	sink.program(behaveNackBusy, behaveNackBusy)

	var mu sync.Mutex
	var slept []time.Duration
	r := newTestReporter(t, Config{
		Addr: sink.addr(),
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	recs := workload(2, 2)
	for _, rec := range recs {
		r.Report(rec)
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) < 2 {
		t.Fatalf("recorded %d sleeps, want >= 2 (one per NACK)", len(slept))
	}
	for i := 0; i < 2; i++ {
		if slept[i] < 3*time.Second {
			t.Fatalf("sleep %d after hinted NACK was %v, want >= 3s", i, slept[i])
		}
	}
	for _, d := range slept[2:] {
		if d >= 3*time.Second {
			t.Fatalf("post-hint sleep %v still floored, hint not consumed", d)
		}
	}
	if st := r.Stats(); st.Nacks != 2 {
		t.Fatalf("nacks %d, want 2", st.Nacks)
	}
	if got := sink.snapshot(); len(got) != len(recs) {
		t.Fatalf("sink absorbed %d, want %d", len(got), len(recs))
	}
}

func TestReporterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with neither Addr nor Dial succeeded")
	}
}

// String labels scripted faults in subtest names and failures.
func (b fakeBehavior) String() string {
	switch b {
	case behaveNackBad:
		return "nack-bad"
	case behaveNackBusy:
		return "nack-busy"
	case behaveCutBeforeCommit:
		return "cut-before-commit"
	case behaveCutAfterCommit:
		return "cut-after-commit"
	default:
		return "ack"
	}
}
