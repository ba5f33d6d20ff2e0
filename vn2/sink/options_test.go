package sink

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
)

// serveRecorded answers one request from the sink's handler in process.
func serveRecorded(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// TestOverflowingReportKeepsViewsAndSnapshots: a report whose metrics are
// finite but whose state's normalized norm overflows (one metric at 1e200)
// is ACKed and refused by the monitor, so the JSON views still encode and a
// snapshot is still written; a handoff slice with a 1e300 pending delta is
// refused with a 400 before anything is journaled.
func TestOverflowingReportKeepsViewsAndSnapshots(t *testing.T) {
	fx := serveFixtures(t)
	srv := viewSink(t, t.TempDir())
	nodes := fx.nodes()
	calm := fx.tail[nodes[0]]
	calm.Epoch++
	huge := trace.Record{Node: calm.Node, Epoch: calm.Epoch + 1, Vector: append([]float64(nil), calm.Vector...)}
	huge.Vector[metricspec.TransmitCounter] = 1e200
	feed(t, srv, [][]trace.Record{{calm, fx.hotReport(t, nodes[1], 1)}, {huge}}, 0)
	if st := srv.mon.Stats(); st.Invalid != 1 || st.Diagnosed != 1 {
		t.Fatalf("monitor invalid %d diagnosed %d, want the overflowing state refused and the hot one diagnosed", st.Invalid, st.Diagnosed)
	}
	for _, path := range []string{"/diagnosis", "/metrics", "/status", "/model", "/epochs"} {
		if rec := serveRecorded(srv, http.MethodGet, path, nil); rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("GET %s: %d, valid JSON %v: %.200s", path, rec.Code, json.Valid(rec.Body.Bytes()), rec.Body)
		}
	}
	if err := srv.writeSnapshot(); err != nil || srv.snapshots.Load() != 1 {
		t.Fatalf("writeSnapshot: %v (%d written)", err, srv.snapshots.Load())
	}

	big := make([]float64, metricspec.MetricCount)
	big[metricspec.TransmitCounter] = 1e300
	raw, err := json.Marshal(online.NodeSlice{Pending: []online.PendingState{
		{State: trace.StateVector{Node: 9999, Epoch: 1, Gap: 1, Delta: big}, Score: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveRecorded(srv, http.MethodPost, "/handoff/import", raw); rec.Code != http.StatusBadRequest {
		t.Fatalf("import of a 1e300 pending delta: %d %s, want 400", rec.Code, rec.Body)
	}
	if p := srv.mon.Pending(); p != 0 {
		t.Fatalf("a refused import left %d states pending", p)
	}
}

// TestNegativeMaxPendingKeepsFlaggedStates: a negative MaxPending means the
// default for admission and for the monitor alike, so a flagged batch that
// was ACKed is diagnosed whole — no state is dropped for a backlog of 0.
func TestNegativeMaxPendingKeepsFlaggedStates(t *testing.T) {
	fx := serveFixtures(t)
	srv, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath, MaxPending: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var batch []trace.Record
	for _, n := range fx.nodes()[:10] {
		batch = append(batch, fx.hotReport(t, n, 1))
	}
	feed(t, srv, [][]trace.Record{batch}, 0)
	if st := srv.mon.Stats(); st.Dropped != 0 || st.Diagnosed != uint64(len(batch)) {
		t.Fatalf("monitor dropped %d diagnosed %d, want 0 and %d", st.Dropped, st.Diagnosed, len(batch))
	}
}

// TestRunWithZeroIntervals: Options that leave DrainEvery and SnapshotEvery
// out run on the defaults — no zero-period ticker — serve a report, diagnose
// it and shut down cleanly with a final snapshot.
func TestRunWithZeroIntervals(t *testing.T) {
	fx := serveFixtures(t)
	snap := filepath.Join(t.TempDir(), "snapshot.json")
	srv, base, stop := runSink(t, Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath, SnapshotPath: snap})
	if srv.opts.DrainEvery != DefaultDrainEvery || srv.opts.SnapshotEvery != DefaultSnapshotEvery || srv.opts.QueueSize != DefaultQueueSize {
		t.Fatalf("options not defaulted: %+v", srv.opts)
	}
	if resp, body := postJSON(t, base+"/report", fx.hotReport(t, fx.nodes()[0], 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	waitFor(t, 5*time.Second, "the woken drain to diagnose the report", func() bool { return srv.mon.Stats().Diagnosed == 1 })
	stop()
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no final snapshot: %v", err)
	}
}
