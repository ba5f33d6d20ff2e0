package sink

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	srv, err := New(Options{
		Addr:          freePort(t),
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		SnapshotPath:  snapPath,
		QueueSize:     256,
		DrainEvery:    20 * time.Millisecond,
		SnapshotEvery: time.Hour, // final shutdown snapshot is the one under test
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.opts.Addr

	// Wait for the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
		time.Sleep(10 * time.Millisecond)
	}

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
	resp, err = http.Get(base + "/metrics")
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
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
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
	if srv2.lc.Current().Det.RefMax != srv.lc.Current().Det.RefMax ||
		srv2.lc.Current().Det.Threshold != srv.lc.Current().Det.Threshold {
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
		Sleep:         noSleep,
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
	if srv.QueueDepth() != 2 || len(srv.queue) != 1 {
		t.Errorf("queue holds %d reports in %d items, want 2 in 1", srv.QueueDepth(), len(srv.queue))
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
	close(srv.queue)
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
