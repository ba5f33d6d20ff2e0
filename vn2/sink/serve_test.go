package sink

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// TestServeRoundTrip is the smoke test the Makefile's `smoke` target runs:
// start the real server, post reports, and assert a diagnosis round-trip,
// a snapshot on shutdown, and a restart from that snapshot alone.
func TestServeRoundTrip(t *testing.T) {
	fx := serveFixtures(t)
	snapPath := filepath.Join(t.TempDir(), "snapshot.json")
	srv, base, stop := runSink(t, Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		SnapshotPath:  snapPath,
		QueueSize:     256,
		DrainEvery:    20 * time.Millisecond,
		SnapshotEvery: time.Hour, // final shutdown snapshot is the one under test
	})
	deadline := time.Now().Add(5 * time.Second)

	// One bare hot report, then a batch envelope for two more nodes.
	nodes := fx.nodes()
	if len(nodes) < 3 {
		t.Fatalf("calibration trace has only %d nodes", len(nodes))
	}
	resp, body := postJSON(t, base+"/report", fx.hotReport(t, nodes[0], 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bare report: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, base+"/report", map[string]any{"reports": []trace.Record{
		fx.hotReport(t, nodes[1], 1),
		fx.hotReport(t, nodes[2], 1),
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch report: %d %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"accepted":2`)) {
		t.Fatalf("batch response %s", body)
	}

	// Poll /diagnosis until the drain has diagnosed all three.
	var sum online.Summary
	for {
		resp, err := http.Get(base + "/diagnosis")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&sum)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Stats.Diagnosed >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("diagnosis never landed: %+v", sum.Stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sum.Stats.Flagged < 3 || len(sum.Recent) < 3 || len(sum.Epochs) == 0 {
		t.Fatalf("summary: %+v", sum.Stats)
	}
	for _, f := range sum.Recent {
		if f.Diagnosis == nil {
			t.Fatal("diagnosed state with nil diagnosis")
		}
	}

	// Metrics reflect the traffic.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]float64
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metrics["reports_received"] != 3 || metrics["reports_accepted"] != 3 || metrics["monitor_flagged"] < 3 {
		t.Fatalf("metrics: %v", metrics)
	}

	// Malformed body → 400.
	resp, _ = postJSON(t, base+"/report", map[string]any{"bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}

	// Graceful shutdown writes the final snapshot.
	stop()
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap store.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.Version != store.SnapshotVersion || !snap.Detector.Valid() || len(snap.Model) == 0 {
		t.Fatalf("snapshot incomplete: version=%d detector=%v model=%dB",
			snap.Version, snap.Detector.Valid(), len(snap.Model))
	}
	if snap.Summary.Stats.Diagnosed < 3 {
		t.Errorf("snapshot summary lost the diagnoses: %+v", snap.Summary.Stats)
	}

	// Restart from the snapshot alone: no -model, no -calibrate.
	srv2, err := New(Options{Addr: "127.0.0.1:0", SnapshotPath: snapPath, QueueSize: 8})
	if err != nil {
		t.Fatalf("restart from snapshot: %v", err)
	}
	if srv2.det.RefMax != srv.det.RefMax ||
		srv2.det.Threshold != srv.det.Threshold {
		t.Error("restarted detector differs from the frozen one")
	}
}

// TestServeBackpressure: with no ingest loop running, a batch the bounded
// queue has no room for is shed whole — 503 + Retry-After, nothing queued,
// nothing journaled — and is accepted once the queue has drained.
func TestServeBackpressure(t *testing.T) {
	fx := serveFixtures(t)
	srv, err := New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		WALPath:       filepath.Join(t.TempDir(), "wal"),
		QueueSize:     4,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.CloseWAL()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nodes := fx.nodes()
	if len(nodes) < 5 {
		t.Fatalf("calibration trace has only %d nodes", len(nodes))
	}
	batch := make([]trace.Record, 5)
	for i := range batch {
		batch[i] = fx.hotReport(t, nodes[i], 1)
	}
	if resp, body := postJSON(t, ts.URL+"/report", batch[:2]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: %d %s", resp.StatusCode, body)
	}
	lsnBefore := srv.jnl.NextLSN()

	// Three more do not fit the remaining room of two.
	resp, body := postJSON(t, ts.URL+"/report", batch[2:])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var out struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("503 body %s: %v", body, err)
	}
	if out.Accepted != 0 || out.Dropped != 3 {
		t.Errorf("accepted=%d dropped=%d, want 0/3", out.Accepted, out.Dropped)
	}
	if srv.QueueDepth() != 2 || srv.queue.Len() != 1 {
		t.Errorf("queue holds %d reports in %d items, want 2 in 1", srv.QueueDepth(), srv.queue.Len())
	}
	if got := srv.jnl.NextLSN(); got != lsnBefore {
		t.Errorf("shed batch was journaled: next LSN %d → %d", lsnBefore, got)
	}
	if srv.rejected.Load() != 3 || srv.accepted.Load() != 2 {
		t.Errorf("rejected=%d accepted=%d, want 3/2", srv.rejected.Load(), srv.accepted.Load())
	}

	srv.IngestQueued()
	if resp, body := postJSON(t, ts.URL+"/report", batch[2:]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resend after drain: %d %s", resp.StatusCode, body)
	}
}

// TestServeConcurrentIngest hammers POST /report from many goroutines while
// the ingest loop, drains, and observability endpoints all run — the serve
// path's entry in the `make race` gate.
func TestServeConcurrentIngest(t *testing.T) {
	fx := serveFixtures(t)
	srv, err := New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		QueueSize:     4096,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		srv.ingestLoop()
	}()

	nodes := fx.nodes()
	const epochsPerNode = 20
	var wg sync.WaitGroup
	for i, node := range nodes {
		if i >= 8 {
			break
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for e := 1; e <= epochsPerNode; e++ {
				resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, node, e))
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("node %d epoch %d: %d %s", node, e, resp.StatusCode, body)
					return
				}
			}
		}(node)
	}
	// Observers run alongside the writers.
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for {
			select {
			case <-ingestDone:
				return
			default:
			}
			srv.DrainTick()
			if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
				resp.Body.Close()
			}
			if resp, err := http.Get(ts.URL + "/diagnosis"); err == nil {
				resp.Body.Close()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	srv.queue.Close()
	<-ingestDone
	<-obsDone
	srv.DrainTick()

	workers := 8
	if len(nodes) < workers {
		workers = len(nodes)
	}
	want := uint64(workers * epochsPerNode)
	if got := srv.ingested.Load() + srv.ingestErr.Load(); got != want {
		t.Errorf("ingest accounted for %d reports, want %d", got, want)
	}
	st := srv.mon.Stats()
	if st.Reports != want {
		t.Errorf("monitor saw %d reports, want %d", st.Reports, want)
	}
	if st.Flagged == 0 || st.Diagnosed != st.Flagged {
		t.Errorf("flagged=%d diagnosed=%d", st.Flagged, st.Diagnosed)
	}
}

// TestNewErrors covers the configuration failure modes.
func TestNewErrors(t *testing.T) {
	fx := serveFixtures(t)
	if _, err := New(Options{CalibratePath: fx.tracePath}); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Errorf("missing model err = %v", err)
	}
	if _, err := New(Options{ModelPath: fx.modelPath}); err == nil || !strings.Contains(err.Error(), "-calibrate") {
		t.Errorf("missing calibrate err = %v", err)
	}
	if _, err := New(Options{ModelPath: "/nonexistent.json", CalibratePath: fx.tracePath}); err == nil {
		t.Error("nonexistent model accepted")
	}
	badSnap := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(badSnap, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath, SnapshotPath: badSnap}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad snapshot version err = %v", err)
	}
}

// runSink boots the real server — Run, with its ingest and drain loops — and
// waits for the listener. stop shuts it down gracefully and fails the test
// if Run does not return cleanly.
func runSink(t *testing.T, o Options, prep ...func(*Server)) (srv *Server, base string, stop func()) {
	t.Helper()
	o.Addr = freePort(t)
	srv, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, f := range prep { // runs before any loop starts
		f(srv)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base = "http://" + o.Addr
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
	}
	return srv, base, func() {
		t.Helper()
		cancel()
		select {
		case err := <-runErr:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// rampReport is hotReport with the jump scaled by the epoch, so consecutive
// reports of one node each derive a flagged state (hotReport's constant jump
// flags only the first).
func (f fixtures) rampReport(t testing.TB, node, epochsAhead int) trace.Record {
	rec := f.hotReport(t, node, epochsAhead)
	for k := 0; k < 6 && k < len(rec.Vector); k++ {
		rec.Vector[k] += 1e7 * float64(epochsAhead-1)
	}
	return rec
}

// rampBatches is count flagged reports over the fixture's first 40 nodes,
// epoch-major so each node's epochs ascend, cut into batches of size.
func (f fixtures) rampBatches(t testing.TB, count, size int) (batches [][]trace.Record) {
	nodes := f.nodes()[:40]
	for i := 0; i < count; i++ {
		if i%size == 0 {
			batches = append(batches, nil)
		}
		last := &batches[len(batches)-1]
		*last = append(*last, f.rampReport(t, nodes[i%len(nodes)], 1+i/len(nodes)))
	}
	return batches
}

// waitFor polls cond; the drain loop's effects have no event to wait on but
// the counters themselves.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", within, what)
		}
	}
}

// TestDrainWokenByFlaggedState: the tick is an hour away, yet a flagged
// report's EpochDiagnosed is on the bus within a quarter second of its 202 —
// the flagged state woke the drain loop — and the backlog is empty again.
func TestDrainWokenByFlaggedState(t *testing.T) {
	fx := serveFixtures(t)
	srv, base, stop := runSink(t, Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath, DrainEvery: time.Hour})
	defer stop()
	sub := srv.bus.Subscribe(64)
	defer sub.Close()

	if resp, body := postJSON(t, base+"/report", fx.hotReport(t, fx.nodes()[0], 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	for {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatal("no EpochDiagnosed within 250ms of the ACK: the drain waited for its tick")
		}
		if ev.Type == EvEpochDiagnosed {
			break
		}
	}
	if p := srv.mon.Pending(); p != 0 {
		t.Errorf("pending_states = %d after the diagnosis, want 0", p)
	}
	if w, k := srv.drainsWoken.Load(), srv.drainsTicked.Load(); w != 1 || k != 0 {
		t.Errorf("drains_woken=%d drains_ticked=%d, want 1/0", w, k)
	}
}

// TestDrainCoalesces: 1000 flagged states arriving 64 to a batch share a few
// dozen DiagnoseBatch calls at most, not one each; drainBurst of them in one
// batch are diagnosed by the wake that finds them, whole; and a shutdown
// that catches the loop with a wake or a window pending still diagnoses
// every ACKed state. The tick is an hour away throughout.
func TestDrainCoalesces(t *testing.T) {
	fx := serveFixtures(t)
	srv, base, stop := runSink(t, Options{
		ModelPath: fx.modelPath, CalibratePath: fx.tracePath, QueueSize: 2048, DrainEvery: time.Hour,
	})
	batches := fx.rampBatches(t, 1000+drainBurst+128, 64)
	posted := 0
	post := func(recs []trace.Record) {
		t.Helper()
		if resp, body := postJSON(t, base+"/report", recs); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch: %d %s", resp.StatusCode, body)
		}
		posted += len(recs)
	}
	diagnosed := func() bool { return srv.mon.Stats().Diagnosed == uint64(posted) }

	trickle, rest := batches[:len(batches)-drainBurst/64-2], batches[len(batches)-drainBurst/64-2:]
	for _, b := range trickle {
		post(b)
	}
	waitFor(t, 10*time.Second, "the 64-report batches' diagnoses", diagnosed)
	drains := srv.drainsWoken.Load()
	if drains == 0 || drains > uint64(len(trickle)) {
		t.Errorf("%d states in %d batches took %d drains, want at most one per batch", posted, len(trickle), drains)
	}

	time.Sleep(5 * drainLinger) // let a window the last wake may have opened close
	var burst []trace.Record
	for _, b := range rest[:drainBurst/64] {
		burst = append(burst, b...)
	}
	post(burst)
	waitFor(t, 10*time.Second, "the burst's diagnosis", diagnosed)
	if got := srv.drainsWoken.Load() - drains; got != 1 {
		t.Errorf("a burst of %d states took %d drains, want 1", len(burst), got)
	}

	for _, b := range rest[drainBurst/64:] {
		post(b)
	}
	stop()
	st := srv.mon.Stats()
	if int(st.Flagged) != posted || st.Diagnosed != st.Flagged || st.Dropped != 0 || srv.mon.Pending() != 0 {
		t.Errorf("after shutdown: posted %d, flagged %d, diagnosed %d, dropped %d, pending %d",
			posted, st.Flagged, st.Diagnosed, st.Dropped, srv.mon.Pending())
	}
	if k := srv.drainsTicked.Load(); k > 1 {
		t.Errorf("drains_ticked = %d with the tick an hour away, want at most the shutdown pass", k)
	}
}

// TestDrainFailureRetriedByTicksOnly: with a model whose every drain fails,
// the first wake's pass fails and the loop stands down — further flagged
// reports wake nothing — so only ticks retry, and it is the fifth failed
// tick, not the fifth wake, that degrades the server.
func TestDrainFailureRetriedByTicksOnly(t *testing.T) {
	fx := serveFixtures(t)
	o := Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath, DrainEvery: time.Hour}
	srv, base, stop := runSink(t, o, func(srv *Server) {
		m := srv.lc.Current().Model
		m.Scale = m.Scale[:len(m.Scale)-1] // DiagnoseBatch now fails on every batch
	})
	defer stop()

	nodes := fx.nodes()
	for i := 0; i < 2*drainFailLimit; i++ {
		if resp, body := postJSON(t, base+"/report", fx.hotReport(t, nodes[i], 1)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report %d: %d %s", i, resp.StatusCode, body)
		}
		waitFor(t, 5*time.Second, "the report's ingest", func() bool { return srv.mon.Pending() == i+1 })
		waitFor(t, 5*time.Second, "the first wake's failed pass", func() bool { return srv.drainErrs.Load() >= 1 })
		time.Sleep(3 * drainLinger) // a window, had this wake opened one, would close in here
	}
	if errs, fails := srv.drainErrs.Load(), srv.drainFails.Load(); errs != 1 || fails != 0 || srv.deg.Active() {
		t.Fatalf("after %d wakes: drain_errors=%d drain_fails_in_a_row=%d degraded=%v, want 1/0/false",
			2*drainFailLimit, errs, fails, srv.deg.Active())
	}
	for tick := 1; tick <= drainFailLimit; tick++ {
		if srv.deg.Active() {
			t.Fatalf("degraded before tick %d, want after tick %d", tick, drainFailLimit)
		}
		srv.DrainTick()
	}
	if !srv.deg.Active() || srv.mon.Pending() != 2*drainFailLimit {
		t.Errorf("after %d failed ticks: degraded=%v pending=%d, want degraded with all %d states kept",
			drainFailLimit, srv.deg.Active(), srv.mon.Pending(), 2*drainFailLimit)
	}
}

// TestSinkReservesNothing: -queue and -stream-buffer are bounds, paid for as
// used. A running sink with a 1<<16-report queue and one live /stream
// subscriber holding a 1<<16-event ring grows the live heap by under 1 MB
// (a reserved queue and ring would take ≈7.9), and still does after 64
// batches have gone through both.
func TestSinkReservesNothing(t *testing.T) {
	fx := serveFixtures(t)
	batches := fx.rampBatches(t, 64*8, 8)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	srv, url, stop := runSink(t, Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath,
		WALPath: filepath.Join(t.TempDir(), "wal"), QueueSize: 1 << 16, StreamBuffer: 1 << 16,
		DrainEvery: 20 * time.Millisecond})
	defer stop()
	resp, err := http.Get(url + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go io.Copy(io.Discard, resp.Body)
	waitFor(t, 5*time.Second, "the /stream subscriber", func() bool { return srv.bus.Stats().Subscribers == 1 })
	check := func(when string) {
		t.Helper()
		grew := heap() - base
		t.Logf("%s: live heap grew %.2f MB", when, float64(grew)/(1<<20))
		if grew > 1<<20 {
			t.Fatalf("%s: want < 1 MB", when)
		}
	}
	check("booted")
	for _, b := range batches {
		if resp, body := postJSON(t, url+"/report", b); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch: %d %s", resp.StatusCode, body)
		}
	}
	waitFor(t, 5*time.Second, "the batches to apply", func() bool { return srv.QueueDepth() == 0 })
	check("after 64 batches")
}
