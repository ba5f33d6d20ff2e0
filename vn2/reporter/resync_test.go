package reporter

import (
	"context"
	"encoding/json"
	"net"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
)

// runWorkload drives recs through a fresh reporter against sink, flushing
// after every epoch's worth of reports (nodes per flush), the way a
// production poller would.
func runWorkload(t *testing.T, sink *fakeSink, recs []trace.Record, nodes int, cfg Config) Stats {
	t.Helper()
	cfg.Addr = sink.addr()
	r := newTestReporter(t, cfg)
	for i, rec := range recs {
		r.Report(rec)
		if (i+1)%nodes == 0 {
			if err := r.Flush(context.Background()); err != nil {
				t.Fatalf("flush after record %d: %v", i+1, err)
			}
		}
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	return r.Stats()
}

// mustJSON marshals the absorbed record stream for bit-exact comparison —
// float64 round-trips exactly through encoding/json's shortest-form
// formatting, so equal strings mean equal bits.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResyncBitExact is the delta-baseline resync contract end to end: a
// run whose deliveries are hit with every fault shape — NACKs that never
// touched the sink's cache, connection cuts before AND after the commit,
// busy-sheds that committed the cache but shed the queue — must leave the
// sink with a bit-identical absorbed record stream to an uninterrupted run.
// The reporter's only tools are the ones the protocol gives it: Forget,
// full re-encode, retransmit; the sink's duplicate/stale absorption does
// the rest.
func TestResyncBitExact(t *testing.T) {
	const nodes, epochs = 4, 8
	recs := workload(nodes, epochs)

	clean := newFakeSink(t)
	runWorkload(t, clean, recs, nodes, Config{})
	want := mustJSON(t, clean.snapshot())

	scripts := map[string][]fakeBehavior{
		"nack-bad-early":   {behaveAck, behaveNackBad},
		"cut-after-commit": {behaveAck, behaveAck, behaveCutAfterCommit},
		"cut-before-commit": {
			behaveAck, behaveCutBeforeCommit,
		},
		"busy-shed": {behaveAck, behaveNackBusy, behaveNackBusy},
		"gauntlet": {
			behaveNackBad,         // frame 1: rejected before any baseline existed
			behaveAck,             // frame 2 (retry of 1): clean
			behaveCutAfterCommit,  // frame 3: committed, ACK lost → duplicate retransmit
			behaveNackBusy,        // frame 4 (retry of 3): committed AGAIN, shed
			behaveAck,             // frame 5 (retry of 3): triple-delivered, absorbed
			behaveCutBeforeCommit, // frame 6: vanished entirely
			behaveAck,             // ...
			behaveNackBad,
			behaveCutAfterCommit,
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			faulty := newFakeSink(t)
			faulty.program(script...)
			st := runWorkload(t, faulty, recs, nodes, Config{Seed: 7})
			got := mustJSON(t, faulty.snapshot())
			if got != want {
				t.Fatalf("absorbed stream diverged from the uninterrupted run\nclean:  %s\nfaulty: %s", want, got)
			}
			faults := 0
			for _, b := range script {
				if b != behaveAck {
					faults++
				}
			}
			if faults > 0 && st.Retries == 0 {
				t.Fatalf("script injected %d faults but the reporter never retried: %+v", faults, st)
			}
		})
	}
}

// TestResyncAfterSinkRestart: the sink dies (listener torn down, cache
// lost) and comes back cold at a new address. The reporter's reconnect path
// must Forget — its baselines describe a cache that no longer exists — and
// the absorbed stream across both incarnations must equal the uninterrupted
// run's.
func TestResyncAfterSinkRestart(t *testing.T) {
	const nodes, epochs = 3, 6
	recs := workload(nodes, epochs)

	clean := newFakeSink(t)
	runWorkload(t, clean, recs, nodes, Config{})
	want := mustJSON(t, clean.snapshot())

	first := newFakeSink(t)
	var second *fakeSink
	r := newTestReporter(t, Config{
		Dial: func() (net.Conn, error) {
			if second != nil {
				return net.Dial("tcp", second.addr())
			}
			return net.Dial("tcp", first.addr())
		},
	})
	half := len(recs) / 2
	for i, rec := range recs[:half] {
		r.Report(rec)
		if (i+1)%nodes == 0 {
			if err := r.Flush(context.Background()); err != nil {
				t.Fatalf("first-half flush: %v", err)
			}
		}
	}
	// kill -9: listener and live connections die mid-run; the replacement
	// has a cold delta cache.
	first.stop()
	second = newFakeSink(t)
	for i, rec := range recs[half:] {
		r.Report(rec)
		if (i+1)%nodes == 0 {
			if err := r.Flush(context.Background()); err != nil {
				t.Fatalf("second-half flush: %v", err)
			}
		}
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("final flush: %v", err)
	}

	merged := append(first.snapshot(), second.snapshot()...)
	if got := mustJSON(t, merged); got != want {
		t.Fatalf("restart run diverged\nclean: %s\ngot:   %s", want, got)
	}
	if st := r.Stats(); st.Redials < 2 {
		t.Fatalf("redials %d, want ≥ 2 (initial + post-restart)", st.Redials)
	}
}
