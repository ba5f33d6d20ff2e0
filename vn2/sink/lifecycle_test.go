package sink

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/sink/lifecycle"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// driftReport is the drifted regime: a per-epoch counter ramp on metrics the
// calibration-era basis cannot explain. The detector flags every report, the
// model's relative residual saturates near 1 — classic unattributed drift.
func driftReport(fx fixtures, node, epoch int) trace.Record {
	last := fx.tail[node]
	v := append([]float64(nil), last.Vector...)
	v[metricspec.BeaconCounter] += float64(epoch) * 5e6
	v[metricspec.NoParentCounter] += float64(epoch) * 4e6
	return trace.Record{Node: last.Node, Epoch: last.Epoch + epoch, Vector: v}
}

// shiftReport is a second, different drifted regime — unexplainable by both
// the calibration basis and a candidate retrained on driftReport's regime.
func shiftReport(fx fixtures, node, epoch int) trace.Record {
	last := fx.tail[node]
	v := append([]float64(nil), last.Vector...)
	v[metricspec.TransmitCounter] += float64(epoch) * 6e6
	v[metricspec.ParentChangeCounter] += float64(epoch) * 3e6
	return trace.Record{Node: last.Node, Epoch: last.Epoch + epoch, Vector: v}
}

// lifecycleServer builds a lifecycle-enabled server driven synchronously:
// tests call ingestAll and tick themselves.
func lifecycleServer(t *testing.T, fx fixtures, dir string, mut func(*Options)) *Server {
	t.Helper()
	o := Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		WALPath:       filepath.Join(dir, "wal"),
		QueueSize:     256,
		Lifecycle: lifecycle.Config{
			Enabled:       true,
			ModelsDir:     filepath.Join(dir, "models"),
			DriftMin:      8,
			HoldoutMin:    4,
			Probation:     6,
			CooldownTicks: 1,
		},
		Sleep: noSleep,
	}
	if mut != nil {
		mut(&o)
	}
	srv, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// tick is one drain tick with the shadow retrain it may start run to its
// end.
func tick(srv *Server) {
	srv.DrainTick()
	srv.lc.Wait()
}

// postEpochs posts one batch per epoch (all nodes) of the given regime and
// synchronously ingests each batch.
func postEpochs(t *testing.T, srv *Server, url string, fx fixtures,
	gen func(fixtures, int, int) trace.Record, nodes []int, from, to int) {
	t.Helper()
	for e := from; e <= to; e++ {
		batch := make([]trace.Record, len(nodes))
		for i, n := range nodes {
			batch[i] = gen(fx, n, e)
		}
		resp, body := postJSON(t, url+"/report", batch)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("epoch %d: %d %s", e, resp.StatusCode, body)
		}
		ingestAll(srv)
	}
}

// TestLifecycleDriftRetrainHotSwap is the happy-path E2E: a fault-mix shift
// saturates the drift window, the trigger fires, the shadow retrain produces
// a candidate that passes the validation gate, the hot-swap installs it at a
// queue barrier, the post-swap residuals collapse, and probation commits.
func TestLifecycleDriftRetrainHotSwap(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := lifecycleServer(t, fx, dir, nil)
	defer srv.jnl.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()[:4]

	// Drifted regime; diagnose WITHOUT lifecycle ticks so the pre-swap window
	// can be observed before the trigger reacts to it.
	postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 1, 3)
	if _, err := srv.mon.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	pre := srv.mon.DriftStats()
	if pre.Window < srv.opts.Lifecycle.DriftMin || pre.UnattributedRate < 0.5 { // the lifecycle's drift rate
		t.Fatalf("drift regime did not saturate the window: %+v", pre)
	}
	if pre.MeanResidual < 0.5 {
		t.Fatalf("drift regime unexpectedly explained: mean residual %.4f", pre.MeanResidual)
	}

	// One lifecycle tick: trigger → inline shadow retrain → gate → swap
	// journaled and enqueued as a barrier.
	tick(srv)
	if got := srv.lc.Retrains.Load(); got != 1 {
		t.Fatalf("retrains = %d, want 1 (rejects=%d fails=%d)", got, srv.lc.CandRejects.Load(), srv.lc.RetrainFails.Load())
	}
	if srv.mon.ModelVersion() != 1 {
		t.Fatal("swap applied before its queue barrier was consumed")
	}
	ingestAll(srv) // consume the barrier
	if got := srv.mon.ModelVersion(); got != 2 {
		t.Fatalf("monitor model version = %d, want 2", got)
	}
	if got := srv.lc.Current().Version; got != 2 {
		t.Fatalf("serving version = %d, want 2", got)
	}
	if srv.lc.Swaps.Load() != 1 || srv.lc.Rollbacks.Load() != 0 {
		t.Fatalf("swaps=%d rollbacks=%d, want 1/0", srv.lc.Swaps.Load(), srv.lc.Rollbacks.Load())
	}

	// The generation is persisted with its provenance.
	f, err := os.Open(filepath.Join(dir, "models", store.ModelFileName(2)))
	if err != nil {
		t.Fatalf("persisted generation missing: %v", err)
	}
	_, meta, err := vn2.LoadVersioned(f)
	f.Close()
	if err != nil {
		t.Fatalf("load persisted generation: %v", err)
	}
	if meta.ModelVersion != 2 || meta.Parent != 1 || meta.Origin != lifecycle.OriginUpdate {
		t.Errorf("persisted meta = %+v, want v2 from v1 via update", meta)
	}

	// /model reflects the new generation and its history.
	resp, err := http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	var mv struct {
		Version   uint64            `json:"version"`
		Probation bool              `json:"probation"`
		History   []store.SwapEvent `json:"history"`
	}
	err = json.NewDecoder(resp.Body).Decode(&mv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mv.Version != 2 || !mv.Probation || len(mv.History) != 1 || mv.History[0].Origin != lifecycle.OriginUpdate {
		t.Errorf("/model = %+v, want version 2 on probation with one update in history", mv)
	}

	// Same drifted regime under the new generation: residuals collapse.
	postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 4, 6)
	if _, err := srv.mon.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	post := srv.mon.DriftStats()
	if post.ModelVersion != 2 || post.Window == 0 {
		t.Fatalf("post-swap window: %+v", post)
	}
	if post.MeanResidual >= pre.MeanResidual || post.MeanResidual > 0.25 {
		t.Errorf("post-swap mean residual %.4f did not improve on pre-swap %.4f", post.MeanResidual, pre.MeanResidual)
	}
	if post.UnattributedRate >= 0.5 {
		t.Errorf("post-swap unattributed rate %.3f still at trigger level", post.UnattributedRate)
	}

	// Probation window is full and healthy: the next tick commits the swap.
	tick(srv)
	if _, _, probation := srv.lc.State(); probation {
		t.Error("healthy candidate still on probation after a full window")
	}
	if srv.lc.Rollbacks.Load() != 0 {
		t.Error("healthy candidate was rolled back")
	}

	// /metrics carries the lifecycle counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]float64
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metrics["model_version"] != 2 || metrics["model_swaps"] != 1 || metrics["model_retrains"] != 1 {
		t.Errorf("metrics: version=%v swaps=%v retrains=%v",
			metrics["model_version"], metrics["model_swaps"], metrics["model_retrains"])
	}
}

// TestLifecycleValidationGate exercises the candidate gate directly: a
// candidate that does not improve the held-out residual is rejected, and a
// candidate that improves it while silently relabeling previously-attributed
// states is rejected for churn.
func TestLifecycleValidationGate(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := lifecycleServer(t, fx, dir, nil)
	defer srv.jnl.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()[:4]

	// Establish a swapped-in generation that explains the drifted regime, so
	// the recent window holds well-attributed states.
	postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 1, 3)
	tick(srv)
	ingestAll(srv)
	if srv.mon.ModelVersion() != 2 {
		t.Fatalf("fixture swap did not land (version %d)", srv.mon.ModelVersion())
	}
	postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 4, 6)
	if _, err := srv.mon.Drain(); err != nil {
		t.Fatal(err)
	}

	cur := srv.lc.Current()
	holdout := srv.mon.RecentWindow()
	if len(holdout) < srv.opts.Lifecycle.HoldoutMin {
		t.Fatalf("holdout too small: %d", len(holdout))
	}

	// A candidate that regressed to the calibration-era basis cannot explain
	// the holdout the serving generation explains: rejected on the mean.
	mf, err := os.Open(fx.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := vn2.Load(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if reason := srv.lc.ValidateCandidate(cur, stale, holdout); !strings.Contains(reason, "does not improve") {
		t.Errorf("stale candidate: reason = %q, want non-improvement rejection", reason)
	}

	// A label-churning candidate: same span (so residuals improve on the
	// inflated stored ones) with the dominant basis row swapped away.
	b, err := json.Marshal(cur.Model)
	if err != nil {
		t.Fatal(err)
	}
	churned := &vn2.Model{}
	if err := json.Unmarshal(b, churned); err != nil {
		t.Fatal(err)
	}
	dom := holdout[0].Diagnosis.Dominant()
	if dom < 0 {
		t.Fatal("holdout state has no dominant cause")
	}
	other := (dom + 1) % churned.Rank
	rd := append([]float64(nil), churned.Psi.Row(dom)...)
	ro := append([]float64(nil), churned.Psi.Row(other)...)
	churned.Psi.SetRow(dom, ro)
	churned.Psi.SetRow(other, rd)
	for i := range holdout {
		// Inflate the stored residuals (still attributed: rel 0.3 < 0.5) so
		// the churned candidate strictly improves the mean and the gate must
		// fall through to the consistency check.
		norm, err := cur.Model.NormalizedNorm(holdout[i].State.Delta)
		if err != nil {
			t.Fatal(err)
		}
		holdout[i].Diagnosis.Residual = 0.3 * norm
	}
	if reason := srv.lc.ValidateCandidate(cur, churned, holdout); !strings.Contains(reason, "churn") {
		t.Errorf("churned candidate: reason = %q, want dominant-cause churn rejection", reason)
	}
}

// TestLifecycleRetrainDeadline: a shadow retrain that cannot finish inside
// its deadline fails closed — the serving generation is untouched, the
// failure is counted, and the trigger backs off instead of thrashing.
func TestLifecycleRetrainDeadline(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := lifecycleServer(t, fx, dir, func(o *Options) {
		o.Lifecycle.RetrainTimeout = time.Nanosecond
	})
	defer srv.jnl.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()[:4]

	postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 1, 3)
	tick(srv)
	ingestAll(srv)
	if got := srv.lc.Retrains.Load(); got != 1 {
		t.Fatalf("retrains = %d, want 1", got)
	}
	if got := srv.lc.RetrainFails.Load(); got != 1 {
		t.Fatalf("retrain failures = %d, want 1 (deadline)", got)
	}
	if srv.mon.ModelVersion() != 1 || srv.lc.Swaps.Load() != 0 {
		t.Fatalf("failed retrain changed the serving model: version %d, swaps %d",
			srv.mon.ModelVersion(), srv.lc.Swaps.Load())
	}
	if srv.lc.Retraining() {
		t.Error("retraining flag stuck after a failed retrain")
	}
	if _, cooldown, _ := srv.lc.State(); cooldown <= 0 {
		t.Error("no cooldown after a failed retrain; the trigger would thrash")
	}
	// Serving is alive and the next tick does not re-trigger (cooldown).
	resp, body := postJSON(t, ts.URL+"/report", driftReport(fx, nodes[0], 4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after failed retrain: %d %s", resp.StatusCode, body)
	}
	tick(srv)
	if got := srv.lc.Retrains.Load(); got != 1 {
		t.Errorf("retrains = %d during cooldown, want still 1", got)
	}
}

// TestLifecycleSwapCrashRecovery kills the server (WAL abandoned, no flush)
// at each crash point of the swap protocol and asserts recovery lands on a
// well-defined generation with bit-identical state across same-disk reruns.
func TestLifecycleSwapCrashRecovery(t *testing.T) {
	fx := serveFixtures(t)
	nodes := fx.nodes()[:4]

	// prep feeds the drifted regime and diagnoses it, without lifecycle ticks.
	prep := func(t *testing.T, dir string) (*Server, *httptest.Server) {
		t.Helper()
		srv := lifecycleServer(t, fx, dir, nil)
		ts := httptest.NewServer(srv.Handler())
		postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 1, 3)
		if _, err := srv.mon.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return srv, ts
	}
	// rebuildTwice recovers twice from the same disk state and asserts the
	// two recoveries agree bit-for-bit; returns the second (live) server.
	rebuildTwice := func(t *testing.T, dir string, wantVersion uint64) *Server {
		t.Helper()
		a := lifecycleServer(t, fx, dir, nil)
		stA, _ := json.Marshal(a.mon.State())
		verA := a.lc.Current().Version
		a.jnl.Abort() // recovery must not dirty the log
		b := lifecycleServer(t, fx, dir, nil)
		stB, _ := json.Marshal(b.mon.State())
		if string(stA) != string(stB) {
			t.Fatal("two recoveries from identical disk state diverged")
		}
		if verA != wantVersion || b.lc.Current().Version != wantVersion {
			t.Fatalf("recovered versions %d/%d, want %d", verA, b.lc.Current().Version, wantVersion)
		}
		if got := b.mon.ModelVersion(); got != wantVersion {
			t.Fatalf("recovered monitor version %d, want %d", got, wantVersion)
		}
		return b
	}

	t.Run("orphan model file", func(t *testing.T) {
		// Crash between the model-file rename and the WAL record: the file
		// exists, the record does not. The orphan must be ignored.
		dir := t.TempDir()
		srv, ts := prep(t, dir)
		ts.Close()
		srv.jnl.Abort()
		var buf strings.Builder
		err := srv.lc.Current().Model.SaveVersioned(&buf,
			vn2.ModelMeta{ModelVersion: 2, Parent: 1, Origin: lifecycle.OriginUpdate})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "models", store.ModelFileName(2)), []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		b := rebuildTwice(t, dir, 1)
		b.jnl.Close()
	})

	t.Run("swap journaled not applied", func(t *testing.T) {
		// Crash after the WAL swap record, before the queue barrier was
		// consumed: replay must finish the swap.
		dir := t.TempDir()
		srv, ts := prep(t, dir)
		tick(srv) // trigger + retrain + journaled swap, barrier still queued
		if srv.lc.Swaps.Load() != 0 || srv.mon.ModelVersion() != 1 {
			t.Fatal("swap applied before the crash point")
		}
		ts.Close()
		srv.jnl.Abort()
		b := rebuildTwice(t, dir, 2)
		// The recovered generation serves: the same regime is now explained.
		ts2 := httptest.NewServer(b.Handler())
		postEpochs(t, b, ts2.URL, fx, driftReport, nodes, 4, 5)
		if _, err := b.mon.Drain(); err != nil {
			t.Fatal(err)
		}
		ds := b.mon.DriftStats()
		if ds.ModelVersion != 2 || ds.Window == 0 || ds.MeanResidual > 0.25 {
			t.Errorf("recovered generation does not explain the drifted regime: %+v", ds)
		}
		ts2.Close()
		b.jnl.Close()
	})

	t.Run("swap applied and snapshotted", func(t *testing.T) {
		// Crash after the swap was applied and a snapshot cut, with more
		// journaled-only reports behind it.
		dir := t.TempDir()
		srv, ts := prep(t, dir)
		tick(srv)
		ingestAll(srv) // apply the swap
		if srv.mon.ModelVersion() != 2 {
			t.Fatal("fixture swap did not land")
		}
		if err := srv.writeSnapshot(); err != nil {
			t.Fatalf("writeSnapshot: %v", err)
		}
		preStats := srv.mon.Stats()
		// Journaled but neither ingested nor snapshotted.
		batch := make([]trace.Record, len(nodes))
		for i, n := range nodes {
			batch[i] = driftReport(fx, n, 4)
		}
		if resp, body := postJSON(t, ts.URL+"/report", batch); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-snapshot batch: %d %s", resp.StatusCode, body)
		}
		ts.Close()
		srv.jnl.Abort()
		b := rebuildTwice(t, dir, 2)
		if got, want := b.mon.Stats().Reports, preStats.Reports+uint64(len(nodes)); got != want {
			t.Errorf("recovered monitor saw %d reports, want %d", got, want)
		}
		b.jnl.Close()
	})
}

// TestReplayRefusesDetectorSwapRecord: a WAL swap record that names a
// detector file was written by a sink that refroze its detector on a swap.
// The detector is now fixed at boot, so replaying the rest of that WAL would
// diagnose it under a different detector than the one that wrote it: New
// must refuse, naming the file, even with the model file in place.
func TestReplayRefusesDetectorSwapRecord(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	models := filepath.Join(dir, "models")
	b, err := os.ReadFile(fx.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := vn2.Load(strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := model.SaveVersioned(&buf, vn2.ModelMeta{ModelVersion: 2, Parent: 1, Origin: lifecycle.OriginUpdate}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(models, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(models, store.ModelFileName(2)), []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(filepath.Join(dir, "wal"), noSleep)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.SwapRecord{Version: 2, Parent: 1, Origin: lifecycle.OriginUpdate,
		File: store.ModelFileName(2), Detector: "detector-v000002.json"}
	if _, err := j.AppendControl(store.KindSwap, rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		WALPath:       filepath.Join(dir, "wal"),
		Lifecycle:     lifecycle.Config{Enabled: true, ModelsDir: models},
		Sleep:         noSleep,
	})
	if !errors.Is(err, lifecycle.ErrSwapFileMismatch) || !strings.Contains(err.Error(), rec.Detector) {
		t.Fatalf("New over a WAL naming a detector file: err = %v, want ErrSwapFileMismatch naming %s", err, rec.Detector)
	}
}

// TestLifecycleRollback: a swap whose post-swap residuals regress past the
// (injected) pre-swap baseline is auto-reverted within the probation window;
// the revert is itself a journaled generation that survives restart.
func TestLifecycleRollback(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := lifecycleServer(t, fx, dir, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()[:4]
	orig := srv.lc.Current()

	// A legitimate swap onto the drifted regime.
	postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 1, 3)
	tick(srv)
	ingestAll(srv)
	if srv.mon.ModelVersion() != 2 {
		t.Fatalf("fixture swap did not land (version %d)", srv.mon.ModelVersion())
	}
	if _, _, probation := srv.lc.State(); !probation {
		t.Fatal("no probation window after the swap")
	}
	// Inject a regression baseline: pretend the pre-swap window was healthy,
	// so the shifted regime below reads as a post-swap regression.
	srv.lc.InjectBaseline(0.2)

	// A second regime shift the new generation cannot explain: the probation
	// mean saturates and must trip the rollback.
	postEpochs(t, srv, ts.URL, fx, shiftReport, nodes, 4, 6)
	if _, err := srv.mon.Drain(); err != nil {
		t.Fatal(err)
	}
	tick(srv)      // probation verdict: rollback journaled + enqueued
	ingestAll(srv) // barrier applies it

	if got := srv.lc.Rollbacks.Load(); got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
	if got := srv.mon.ModelVersion(); got != 3 {
		t.Fatalf("monitor version after rollback = %d, want 3 (new generation, old content)", got)
	}
	cur := srv.lc.Current()
	if cur.Version != 3 {
		t.Fatalf("serving version = %d, want 3", cur.Version)
	}
	if cur.Model != orig.Model {
		t.Error("rollback did not restore the pre-swap model content")
	}
	if _, cooldown, probation := srv.lc.State(); probation || cooldown <= srv.opts.Lifecycle.CooldownTicks {
		t.Errorf("after rollback: probation=%v cooldown=%d, want committed with a long cooldown", probation, cooldown)
	}
	// The rollback is persisted with its provenance.
	f, err := os.Open(filepath.Join(dir, "models", store.ModelFileName(3)))
	if err != nil {
		t.Fatalf("rollback generation not persisted: %v", err)
	}
	_, meta, err := vn2.LoadVersioned(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if meta.ModelVersion != 3 || meta.Parent != 2 || meta.Origin != lifecycle.OriginRollback {
		t.Errorf("rollback meta = %+v, want v3 from v2 via rollback", meta)
	}
	hist := srv.lc.History()
	if len(hist) != 2 || hist[1].Origin != lifecycle.OriginRollback {
		t.Errorf("history = %+v, want update then rollback", hist)
	}

	// kill -9 and recover: the rollback generation is the durable truth.
	ts.Close()
	srv.jnl.Abort()
	srv2 := lifecycleServer(t, fx, dir, nil)
	defer srv2.jnl.Close()
	if got := srv2.lc.Current().Version; got != 3 {
		t.Errorf("recovered version = %d, want 3", got)
	}
	if got := srv2.mon.ModelVersion(); got != 3 {
		t.Errorf("recovered monitor version = %d, want 3", got)
	}
}

// TestLifecycleConcurrentSwap runs the REAL server loops — HTTP ingest, the
// background drain ticker, the snapshot ticker, an asynchronous shadow
// retrain, and the queue-barrier hot-swap — all concurrently. This is the
// lifecycle's entry in the `make race` gate.
func TestLifecycleConcurrentSwap(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := lifecycleServer(t, fx, dir, func(o *Options) {
		o.Addr = freePort(t)
		o.Lifecycle.Probation = 4
		o.DrainEvery = 5 * time.Millisecond
		o.SnapshotEvery = 20 * time.Millisecond
	})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.opts.Addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	nodes := fx.nodes()[:4]
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for e := 1; e <= 400; e++ {
				if srv.lc.Swaps.Load() >= 1 && e > 40 {
					return // swap landed and probation traffic delivered
				}
				resp, body := postJSON(t, base+"/report", driftReport(fx, node, e))
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("node %d epoch %d: %d %s", node, e, resp.StatusCode, body)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(node)
	}
	// Observers hammer the lifecycle surfaces while the swap is in flight.
	obsStop := make(chan struct{})
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for {
			select {
			case <-obsStop:
				return
			default:
			}
			for _, ep := range []string{"/model", "/metrics", "/diagnosis"} {
				if resp, err := http.Get(base + ep); err == nil {
					resp.Body.Close()
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	for srv.lc.Swaps.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no hot-swap under load: retrains=%d fails=%d rejects=%d drift=%+v",
				srv.lc.Retrains.Load(), srv.lc.RetrainFails.Load(), srv.lc.CandRejects.Load(), srv.mon.DriftStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Quiesce all clients BEFORE the shutdown so its graceful-drain budget is
	// not spent on the test's own observer traffic. Closing the pooled
	// connections also evicts never-used conns from racing dials, which the
	// server would otherwise hold in StateNew for ~5s during Shutdown.
	close(obsStop)
	<-obsDone
	http.DefaultClient.CloseIdleConnections()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not shut down")
	}
	if srv.mon.ModelVersion() < 2 {
		t.Errorf("monitor version = %d after swap", srv.mon.ModelVersion())
	}
	// The shutdown snapshot resumes at the swapped generation.
	srv2, err := New(Options{SnapshotPath: filepath.Join(dir, "snapshot.json"), QueueSize: 8})
	if err != nil {
		t.Fatalf("restart from shutdown snapshot: %v", err)
	}
	if got := srv2.lc.Current().Version; got < 2 {
		t.Errorf("restarted at version %d, want the swapped generation", got)
	}
}
