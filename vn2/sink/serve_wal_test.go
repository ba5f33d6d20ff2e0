package sink

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// walServer builds a server with WAL + snapshot enabled and its loops NOT
// running, so tests drive ingest and drains deterministically.
func walServer(t *testing.T, fx fixtures, dir string) *Server {
	t.Helper()
	srv, err := New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		WALPath:       filepath.Join(dir, "wal"),
		QueueSize:     256,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// ingestAll synchronously feeds everything queued into the monitor.
func ingestAll(srv *Server) { srv.IngestQueued() }

// TestServeWALRecovery: every report ACKed with a 202 survives kill -9. The
// server is killed abruptly (WAL abandoned without flush, no final
// snapshot), rebuilt from disk, and must hold exactly the ACKed reports —
// including the ones accepted after the last snapshot was cut.
func TestServeWALRecovery(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nodes := fx.nodes()
	if len(nodes) < 4 {
		t.Fatalf("calibration trace has only %d nodes", len(nodes))
	}
	post := func(epochsAhead int, nodeCount int) {
		t.Helper()
		batch := make([]trace.Record, nodeCount)
		for i := 0; i < nodeCount; i++ {
			batch[i] = fx.hotReport(t, nodes[i], epochsAhead)
		}
		resp, body := postJSON(t, ts.URL+"/report", batch)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report: %d %s", resp.StatusCode, body)
		}
	}

	// Epoch +1 for four nodes: ingested, diagnosed, snapshotted — the WAL
	// prefix behind the watermark gets truncated where segment boundaries
	// allow.
	post(1, 4)
	ingestAll(srv)
	srv.DrainTick()
	if err := srv.PersistSnapshot(); err != nil {
		t.Fatalf("PersistSnapshot: %v", err)
	}
	// Epoch +2 for four nodes: ACKed and ingested but NOT snapshotted —
	// only the WAL knows. Epoch +3 for two nodes: ACKed but still sitting
	// in the queue at crash time — only the WAL knows these too.
	post(2, 4)
	ingestAll(srv)
	srv.DrainTick()
	post(3, 2)

	wantStats := srv.mon.Stats() // pre-crash monitor truth for the ingested part
	ts.Close()
	srv.jnl.Abort() // kill -9: in-flight buffers gone, synced bytes survive

	// Rebuild from disk: snapshot (epoch +1 state) + WAL replay (+2, +3).
	srv2 := walServer(t, fx, dir)
	defer srv2.jnl.Close()
	st := srv2.mon.Stats()
	// All 10 ACKed reports are back: 8 ingested pre-crash plus the 2 that
	// were queued; replay may re-offer snapshot-covered records, which land
	// as duplicates/stale, never as new reports.
	if got, want := st.Reports, wantStats.Reports+2; got != want {
		t.Fatalf("recovered monitor saw %d reports, want %d (stats %+v)", got, want, st)
	}
	if st.LastEpoch < wantStats.LastEpoch {
		t.Fatalf("recovered LastEpoch %d regressed below %d", st.LastEpoch, wantStats.LastEpoch)
	}
	srv2.DrainTick()
	if got := srv2.mon.Stats(); got.Diagnosed < wantStats.Diagnosed {
		t.Fatalf("recovered diagnoses %d < pre-crash %d", got.Diagnosed, wantStats.Diagnosed)
	}

	// The recovered per-epoch distributions must agree with the pre-crash
	// monitor on every epoch the pre-crash monitor had diagnosed.
	pre := srv.mon.Snapshot().Epochs
	rec := srv2.mon.Snapshot().Epochs
	byEpoch := make(map[int]online.EpochCauses, len(rec))
	for _, e := range rec {
		byEpoch[e.Epoch] = e
	}
	for _, e := range pre {
		got, ok := byEpoch[e.Epoch]
		if !ok {
			t.Fatalf("recovered run lost epoch %d", e.Epoch)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("epoch %d distribution diverged after recovery:\n pre %+v\n rec %+v", e.Epoch, e, got)
		}
	}
}

// TestServeWALRecoveryIdempotent: recovering twice from the same on-disk
// state yields bit-identical monitor state — replay is deterministic.
func TestServeWALRecoveryIdempotent(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	ts := httptest.NewServer(srv.Handler())
	batch := []trace.Record{fx.hotReport(t, fx.nodes()[0], 1), fx.hotReport(t, fx.nodes()[1], 1)}
	if resp, body := postJSON(t, ts.URL+"/report", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	ts.Close()
	srv.jnl.Abort()

	a := walServer(t, fx, dir)
	a.DrainTick()
	stA := a.mon.State()
	a.jnl.Abort() // recovery must not dirty the log
	b := walServer(t, fx, dir)
	b.DrainTick()
	stB := b.mon.State()
	b.jnl.Close()
	ja, _ := json.Marshal(stA)
	jb, _ := json.Marshal(stB)
	if string(ja) != string(jb) {
		t.Fatal("two recoveries from identical disk state diverged")
	}
}

// TestSnapshotNeverAheadOfWAL: the ingest loop can apply a batch before the
// fsync of the request that committed it has returned, so a snapshot cut at
// that moment captures a watermark the disk has not reached. The snapshot
// writer must close that gap itself; otherwise the WAL reopened after a
// crash hands the watermark's LSN out again, and after a second crash
// replay skips the report that got it.
func TestSnapshotNeverAheadOfWAL(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	nodes := fx.nodes()

	// The commit step without its trailing Sync: appended and queued, then
	// applied, with the bytes still in the WAL's write buffer.
	early := []trace.Record{fx.hotReport(t, nodes[0], 1)}
	frame, err := ingest.FullFrame(nil, early)
	if err != nil {
		t.Fatal(err)
	}
	srv.commitMu.Lock()
	lsn, err := srv.jnl.AppendBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	srv.enqueue(ingest.Item{LSN: lsn, Recs: early})
	srv.commitMu.Unlock()
	ingestAll(srv)
	if err := srv.PersistSnapshot(); err != nil {
		t.Fatalf("PersistSnapshot: %v", err)
	}
	srv.AbortWAL()

	snap, err := store.ReadSnapshot(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.WALApplied != lsn {
		t.Fatalf("snapshot watermark %d, want the applied LSN %d", snap.WALApplied, lsn)
	}
	srv2 := walServer(t, fx, dir)
	if tail := srv2.jnl.NextLSN() - 1; tail < snap.WALApplied {
		t.Fatalf("WAL tail %d is behind the snapshot watermark %d: the next append reuses a covered LSN", tail, snap.WALApplied)
	}

	// A report ACKed after the recovery must survive a second crash.
	ts := httptest.NewServer(srv2.Handler())
	late := fx.hotReport(t, nodes[1], 1)
	resp, body := postJSON(t, ts.URL+"/report", late)
	ts.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	srv2.AbortWAL()
	srv3 := walServer(t, fx, dir)
	defer srv3.CloseWAL()
	if _, ok := monitorNodes(srv3.MonitorState())[late.Node]; !ok {
		t.Fatalf("node %d's ACKed report vanished in the second recovery", late.Node)
	}
}

// TestServeDegradedWAL: a dead journal flips the server into read-only
// last-good mode — ingest 503s with the reason, /healthz reports degraded,
// /diagnosis keeps serving the last good summary, /metrics flags it.
func TestServeDegradedWAL(t *testing.T) {
	fx := serveFixtures(t)
	srv := walServer(t, fx, t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, fx.nodes()[0], 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy report: %d %s", resp.StatusCode, body)
	}
	ingestAll(srv)
	srv.DrainTick()
	goodDiag := srv.mon.Snapshot()

	srv.jnl.Close() // journal dies out from under the server

	resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, fx.nodes()[1], 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("report on dead journal: %d %s, want 503", resp.StatusCode, body)
	}
	if !srv.deg.Active() {
		t.Fatal("server did not degrade on persistent journal failure")
	}

	resp, body = postJSON(t, ts.URL+"/report", fx.hotReport(t, fx.nodes()[2], 1))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded ingest: %d %s (Retry-After %q)", resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}

	// Liveness stays 200 while degraded (the process is up, just read-only);
	// readiness answers 503 so a router stops routing here. Both carry the
	// state and reason.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || health["status"] != "degraded" || health["ready"] != false || health["reason"] == nil {
		t.Fatalf("healthz while degraded: %d %v", hr.StatusCode, health)
	}
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var readiness map[string]any
	json.NewDecoder(rr.Body).Decode(&readiness)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable || readiness["status"] != "degraded" || readiness["reason"] == nil {
		t.Fatalf("readyz while degraded: %d %v", rr.StatusCode, readiness)
	}

	dr, err := http.Get(ts.URL + "/diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if dr.Header.Get("X-Vn2-Degraded") == "" {
		t.Error("degraded /diagnosis missing the degraded header")
	}
	var lastGood online.Summary
	err = json.NewDecoder(dr.Body).Decode(&lastGood)
	dr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if lastGood.Stats != goodDiag.Stats {
		t.Fatalf("degraded diagnosis is not the last good one: %+v vs %+v", lastGood.Stats, goodDiag.Stats)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]float64
	json.NewDecoder(mr.Body).Decode(&metrics)
	mr.Body.Close()
	if metrics["degraded"] != 1 || metrics["wal_errors"] == 0 {
		t.Fatalf("metrics while degraded: degraded=%v wal_errors=%v", metrics["degraded"], metrics["wal_errors"])
	}
}

// TestWALDegradedHoldsUntilRestart: a journal failure degrades the sink
// until a restart. Clean drain ticks clear a drain failure, never this one,
// and the reason says how it clears; a sink restarted on the same directory
// is healthy and replays the report it ACKed before the failure.
func TestWALDegradedHoldsUntilRestart(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, fx.nodes()[0], 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy report: %d %s", resp.StatusCode, body)
	}
	ingestAll(srv)
	srv.jnl.Close()
	if resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, fx.nodes()[1], 1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("report on a failed journal: %d %s, want 503", resp.StatusCode, body)
	}
	for range 3 {
		srv.DrainTick()
	}
	if reason, _ := srv.deg.Reason(); !srv.deg.Active() || !strings.HasPrefix(reason, degradedWAL) || !strings.Contains(reason, "restart") {
		t.Fatalf("after clean drain ticks: degraded %v, reason %q; want the WAL reason, naming the restart", srv.deg.Active(), reason)
	}

	again := walServer(t, fx, dir)
	defer again.CloseWAL()
	if again.deg.Active() || again.walReplayed.Load() != 1 {
		t.Fatalf("restarted sink: degraded %v, %d reports replayed; want healthy and 1", again.deg.Active(), again.walReplayed.Load())
	}
}

// TestSnapshotV1Compat: a version-1 snapshot (no monitor state, no
// watermark) still boots a server; it just re-warms instead of resuming.
func TestSnapshotV1Compat(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	if err := srv.PersistSnapshot(); err != nil {
		t.Fatal(err)
	}
	srv.jnl.Close()

	path := filepath.Join(dir, "snapshot.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = json.RawMessage("1")
	delete(m, "monitor")
	delete(m, "wal_applied")
	b, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	v1, err := New(Options{SnapshotPath: path, QueueSize: 8})
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if v1.det.RefMax != srv.det.RefMax {
		t.Error("v1 snapshot lost the detector")
	}
}

// TestSnapshotModelMismatch: restarting serve with a snapshot cut under one
// model but an explicit -model of a different rank must fail with the typed
// ErrSnapshotMismatch — the monitor's rolling state (diagnosis weights, epoch
// cause indices) is meaningless under the wrong basis, and restoring it
// silently would corrupt every report the WAL then replays.
func TestSnapshotModelMismatch(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	ts := httptest.NewServer(srv.Handler())

	// Diagnosed state in the snapshot ties it to the rank-6 model.
	batch := []trace.Record{fx.hotReport(t, fx.nodes()[0], 1), fx.hotReport(t, fx.nodes()[1], 1)}
	if resp, body := postJSON(t, ts.URL+"/report", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	ingestAll(srv)
	srv.DrainTick()
	if err := srv.PersistSnapshot(); err != nil {
		t.Fatalf("PersistSnapshot: %v", err)
	}
	ts.Close()
	srv.jnl.Close()

	// A different-rank model for the same deployment.
	otherModel := filepath.Join(dir, "model-rank4.json")
	if err := trainModelFile(fx.tracePath, otherModel, 4); err != nil {
		t.Fatalf("train rank-4 model: %v", err)
	}
	_, err := New(Options{
		ModelPath:     otherModel,
		CalibratePath: fx.tracePath,
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		WALPath:       filepath.Join(dir, "wal"),
		QueueSize:     8,
	})
	if err == nil {
		t.Fatal("restart with a mismatched model succeeded")
	}
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestBootMetrics: /metrics says where a (re)start spent its time. A cold
// boot reads the calibration trace; a restart whose snapshot supplied the
// detector did not, and reads exactly zero there; the replay gauge is zero
// without a WAL and the stages never add up to more than the whole.
func TestBootMetrics(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	bootMetrics := func(srv *Server) (calibration, replay float64) {
		t.Helper()
		m := srv.metrics()
		total, ok := m["boot_ms"].(float64)
		calibration, okC := m["boot_calibration_ms"].(float64)
		replay, okR := m["boot_replay_ms"].(float64)
		if !ok || !okC || !okR || total <= 0 || calibration < 0 || replay < 0 || calibration+replay > total {
			t.Fatalf("boot_ms %v, boot_calibration_ms %v, boot_replay_ms %v: missing, or do not fit together",
				m["boot_ms"], m["boot_calibration_ms"], m["boot_replay_ms"])
		}
		return calibration, replay
	}

	cold := walServer(t, fx, dir)
	if calibration, _ := bootMetrics(cold); calibration <= 0 {
		t.Fatalf("cold boot calibrated from the trace but boot_calibration_ms = %v", calibration)
	}
	if line := cold.boot.String(); !strings.Contains(line, "calibrate") || !strings.Contains(line, "replay") {
		t.Fatalf("boot line %q does not name its stages", line)
	}
	if err := cold.PersistSnapshot(); err != nil {
		t.Fatalf("PersistSnapshot: %v", err)
	}
	cold.jnl.Abort()

	warm := walServer(t, fx, dir)
	defer warm.jnl.Close()
	if calibration, _ := bootMetrics(warm); calibration != 0 {
		t.Fatalf("the snapshot supplied the detector but boot_calibration_ms = %v", calibration)
	}

	noWAL, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, replay := bootMetrics(noWAL); replay != 0 {
		t.Fatalf("no WAL was configured but boot_replay_ms = %v", replay)
	}
}

// TestBootFromModelCalibration: a sink whose model carries its calibration
// reads only the trace's last rows (the boot line says "calibrate 0.0"), and
// one booted from the same model stripped of it — the file a model saved
// before models carried one — calibrates from the whole trace. Both cut at
// the same -threshold, freeze the same detector, and after the same batches
// hold the same monitor state and serve the same /epochs bytes.
func TestBootFromModelCalibration(t *testing.T) {
	fx := serveFixtures(t)
	raw, err := os.ReadFile(fx.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := vn2.Load(bytes.NewReader(raw))
	if err != nil || model.Calibration == nil {
		t.Fatalf("fixture model carries no calibration (err %v)", err)
	}
	model.Calibration = nil
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	stripped := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(stripped, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	boot := func(modelPath string) *Server {
		srv, err := New(Options{ModelPath: modelPath, CalibratePath: fx.tracePath, Threshold: 0.02})
		if err != nil {
			t.Fatalf("New(%s): %v", modelPath, err)
		}
		return srv
	}
	carried, calibrated := boot(fx.modelPath), boot(stripped)
	if line := carried.boot.String(); !strings.Contains(line, "calibrate 0.0,") || calibrated.boot.calibrate == 0 {
		t.Fatalf("boot lines %q and %q: only the stripped model should calibrate", line, calibrated.boot)
	}
	if !reflect.DeepEqual(carried.det, calibrated.det) {
		t.Fatalf("detectors differ: %+v vs %+v", carried.det, calibrated.det)
	}
	batches := fx.rampBatches(t, 400, 40)
	feed(t, carried, batches, 1)
	feed(t, calibrated, batches, 1)
	if !reflect.DeepEqual(carried.MonitorState(), calibrated.MonitorState()) {
		t.Fatal("monitor states differ after the same batches")
	}
	if a, b := getEpochs(t, carried), getEpochs(t, calibrated); !bytes.Equal(a, b) {
		t.Fatalf("/epochs differ:\n%.200s\n%.200s", a, b)
	}
}

// metricsKeys and statusExtraKeys pin the wire: dashboards, alerts and the
// benchmark harness (which polls queue_depth, pending_states, monitor_*,
// wal_replayed and snapshots_written mid-run) read these names. /status is
// every /metrics key plus the extras. degraded_reason and degraded_for_s
// join /status only while the sink is degraded.
const (
	metricsKeys = `bad_requests boot_calibration_ms boot_ms boot_replay_ms bus_journal_bytes
		bus_journal_evictions degraded degraded_entries drain_busy_us drain_errors
		drain_fails_in_a_row drains drains_ticked drains_woken drift_mean_residual
		drift_residual_p50 drift_residual_p90 drift_residual_p99 drift_unattributed
		drift_unattributed_rate drift_window epochs_rendered handoff_exports
		handoff_imports handoff_nodes_in handoff_releases ingest_errors
		model_candidates_rejected model_retrain_failures model_retrains model_rollbacks
		model_swaps model_version monitor_diagnosed monitor_dropped monitor_duplicates
		monitor_first_reports monitor_flagged monitor_gap_reports monitor_invalid
		monitor_last_epoch monitor_max_gap monitor_normal monitor_reports monitor_stale
		pending_states quarantine_len queue_capacity queue_depth reports_accepted
		reports_ingested reports_received reports_refused_backlog reports_rejected
		snapshot_bytes snapshot_errors snapshot_ms snapshots_written stream_conns
		stream_conns_rejected stream_conns_total stream_frames stream_nacks wal_applied
		wal_errors wal_next_lsn wal_replay_bad wal_replay_skipped wal_replayed
		wal_segments wal_truncations`
	statusExtraKeys = `bin_bytes bin_cache_nodes bin_deltas bin_frames bin_fulls bin_records
		bin_rejects lifecycle_enabled model_cooldown_ticks model_history model_probation
		model_retraining started stream_dropped stream_encode_errors stream_journal_cap
		stream_journal_len stream_next_seq stream_published stream_subscribers uptime
		uptime_s`
)

// TestMetricsAndStatusKeys: the sorted key sets GET /metrics and GET
// /status answer on a WAL-backed sink (so every conditional key reports)
// are exactly the pinned ones.
func TestMetricsAndStatusKeys(t *testing.T) {
	srv := walServer(t, serveFixtures(t), t.TempDir())
	defer srv.jnl.Close()
	keys := func(path string) []string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	want := strings.Fields(metricsKeys)
	if got := keys("/metrics"); !slices.Equal(got, want) {
		t.Errorf("/metrics keys\n got %q\nwant %q", got, want)
	}
	want = append(want, strings.Fields(statusExtraKeys)...)
	slices.Sort(want)
	if got := keys("/status"); !slices.Equal(got, want) {
		t.Errorf("/status keys\n got %q\nwant %q", got, want)
	}
}

// TestMetricsAndStatusKeysDisjoint: /status is /metrics plus extras, so an
// extra that reused a /metrics key would be its second source — the two could
// disagree while a swap is in flight, and /status would silently show one of
// them (model_version once did). The pinned extras name no /metrics key, and
// on a sink at rest after a diagnosed batch every /metrics key reads the same
// in both. With the WAL on, so every conditional key reports.
func TestMetricsAndStatusKeysDisjoint(t *testing.T) {
	fx := serveFixtures(t)
	srv := walServer(t, fx, t.TempDir())
	defer srv.jnl.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	batch := []trace.Record{fx.hotReport(t, fx.nodes()[0], 1), fx.hotReport(t, fx.nodes()[1], 1)}
	if resp, body := postJSON(t, ts.URL+"/report", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	ingestAll(srv)
	srv.DrainTick()

	metrics, status := srv.metrics(), srv.status()
	for _, k := range strings.Fields(statusExtraKeys) {
		if _, twice := metrics[k]; twice {
			t.Errorf("/status extra %q is a /metrics key too", k)
		}
	}
	for k, v := range metrics {
		if !reflect.DeepEqual(status[k], v) {
			t.Errorf("%q: /metrics %v, /status %v", k, v, status[k])
		}
	}
}
