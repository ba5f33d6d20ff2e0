package lifecycle

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// testManager builds a Manager over a real monitor serving a small model at
// version 1, with every enqueued swap's origin recorded in *origins instead
// of applied. A test that ticks it waits for the retrain it may start.
func testManager(t *testing.T, origins *[]string) *Manager {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	states := make([]trace.StateVector, 64)
	for i := range states {
		delta := make([]float64, 6)
		for k := range delta {
			delta[k] = rng.NormFloat64()
		}
		states[i] = trace.StateVector{Node: 1, Epoch: i + 2, Gap: 1, Delta: delta}
	}
	model, _, err := vn2.Train(states, vn2.TrainConfig{Rank: 2, CompressAllStates: true, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	det, err := trace.NewDetector(states, 0)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := online.NewMonitor(online.Config{Model: model, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Enabled: true, ModelsDir: t.TempDir(), DriftMin: 2, Probation: 2}
	return New(cfg, mon, &Set{Model: model, Version: 1}, Hooks{
		Enqueue: func(rec store.SwapRecord, apply func()) error {
			*origins = append(*origins, rec.Origin)
			return nil
		},
	})
}

// window replaces the monitor's drift window with n ≤ 2 attributed samples
// of one relative residual, so its p50 and its mean are both exactly rel (a
// third equal addend could round the sum).
func window(t *testing.T, m *Manager, n int, rel float64) {
	t.Helper()
	samples := make([]online.ResidualSample, n)
	for i := range samples {
		samples[i].Rel = rel
	}
	if err := m.mon.Restore(online.MonitorState{Residuals: samples}); err != nil {
		t.Fatal(err)
	}
}

// TestTickBoundaries pins the lifecycle's two fixed factors by behaviour: a
// shadow retrain starts when the residual p50 reaches 4× its healthy
// baseline over a filled window, and a swap on probation is reverted when
// the mean residual exceeds 1.05× the pre-swap mean.
func TestTickBoundaries(t *testing.T) {
	// Variables, not constants: the boundaries must be the float64 products
	// Tick computes, and Go folds a constant product exactly before rounding.
	base, regress, margin := 0.1, 4.0, 1.05
	for _, tc := range []struct {
		name     string
		fill     int
		p50      float64
		retrains uint64
	}{
		{"p50 just below 4x the baseline", 2, math.Nextafter(base*regress, 0), 0},
		{"p50 at 4x the baseline", 2, base * regress, 1},
		{"p50 far past it, window not filled", 1, 0.9, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var origins []string
			m := testManager(t, &origins)
			m.p50Base, m.p50Set = base, true
			window(t, m, tc.fill, tc.p50)
			m.Tick()
			m.Wait()
			if got := m.Retrains.Load(); got != tc.retrains {
				t.Fatalf("retrains = %d, want %d", got, tc.retrains)
			}
		})
	}
	for _, tc := range []struct {
		name     string
		mean     float64
		rollback bool
	}{
		{"mean residual at 1.05x the pre-swap mean", base * margin, false},
		{"mean residual just above it", math.Nextafter(base*margin, 1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var origins []string
			m := testManager(t, &origins)
			m.prev, m.baseMean = m.cur, base
			window(t, m, 2, tc.mean)
			m.Tick()
			m.Wait()
			if m.prev != nil {
				t.Fatal("probation did not end on a filled window")
			}
			if rolledBack := len(origins) == 1 && origins[0] == OriginRollback; rolledBack != tc.rollback {
				t.Fatalf("swaps enqueued = %v, want a rollback: %v", origins, tc.rollback)
			}
		})
	}
}

// flag drains n flagged states of distinct nodes through the monitor, so the
// recent ring — the retrain's held-out window — holds n states.
func flag(t *testing.T, m *Manager, n int) {
	t.Helper()
	for node := 1; node <= n; node++ {
		for epoch, v := range []float64{0, 50} {
			vec := []float64{v, v, v, v, v, v}
			if _, err := m.mon.Ingest(trace.Record{Node: packet.NodeID(node), Epoch: epoch + 1, Vector: vec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if out, err := m.mon.Drain(); err != nil || len(out) != n {
		t.Fatalf("Drain: %d diagnosed, err %v; want %d", len(out), err, n)
	}
}

// TestReplaySwapRefuses: a journaled swap replays only against the model
// file it names, carrying the version it promises, and never when it names
// a detector file; a refused record changes nothing, a sound one installs
// its generation.
func TestReplaySwapRefuses(t *testing.T) {
	var origins []string
	m := testManager(t, &origins)
	save := func(file string, version uint64) {
		t.Helper()
		var buf bytes.Buffer
		if err := m.cur.Model.SaveVersioned(&buf, vn2.ModelMeta{ModelVersion: version, Parent: version - 1, Origin: OriginUpdate}); err != nil {
			t.Fatal(err)
		}
		if err := m.persistFile(file, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	save(store.ModelFileName(3), 2) // a v3 file carrying v2
	save(store.ModelFileName(4), 4)
	swap := func(version uint64) store.SwapRecord {
		return store.SwapRecord{Version: version, Parent: version - 1, Origin: OriginUpdate, File: store.ModelFileName(version)}
	}
	named := swap(4)
	named.Detector = "detector-v000004.json"
	for _, tc := range []struct {
		name string
		rec  store.SwapRecord
		want error
	}{
		{"missing model file", swap(2), ErrSwapFileMissing},
		{"meta version differs", swap(3), ErrSwapFileMismatch},
		{"record names a detector", named, ErrSwapFileMismatch},
	} {
		if err := m.ReplaySwap(tc.rec); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if m.Current().Version != 1 || m.mon.ModelVersion() != 1 || len(m.History()) != 0 {
		t.Fatalf("a refused replay changed the generation: current v%d, monitor v%d, history %v",
			m.Current().Version, m.mon.ModelVersion(), m.History())
	}
	if err := m.ReplaySwap(swap(4)); err != nil || m.Current().Version != 4 || m.mon.ModelVersion() != 4 {
		t.Fatalf("sound record: err %v, current v%d, monitor v%d; want v4", err, m.Current().Version, m.mon.ModelVersion())
	}
}

// TestRetrainBacksOffWithoutHoldout: with fewer recent states than
// holdoutMin there is nothing to judge a candidate by, so the retrain backs
// off before it trains: no failure, no rejection, no swap.
func TestRetrainBacksOffWithoutHoldout(t *testing.T) {
	var origins []string
	m := testManager(t, &origins)
	flag(t, m, holdoutMin-1)
	m.retraining.Store(true) // as Tick does before it starts one
	m.runRetrain()
	if fails, rejects := m.RetrainFails.Load(), m.CandRejects.Load(); fails != 0 || rejects != 0 || len(origins) != 0 {
		t.Fatalf("failures %d, rejections %d, swaps %v: a candidate was trained", fails, rejects, origins)
	}
	if m.rejectN != 1 || m.cooldown != cooldownTicks<<1 || m.Retraining() {
		t.Fatalf("rejectN %d cooldown %d retraining %v, want one backoff step and no retrain in flight", m.rejectN, m.cooldown, m.Retraining())
	}
}

// TestRetrainPastDeadline: a retrain that outlives RetrainTimeout counts one
// failure, leaves the serving generation as it was and clears Retraining.
func TestRetrainPastDeadline(t *testing.T) {
	var origins []string
	m := testManager(t, &origins)
	m.cfg.RetrainTimeout = time.Nanosecond
	flag(t, m, holdoutMin)
	cur := m.Current()
	m.retraining.Store(true)
	m.runRetrain()
	if fails := m.RetrainFails.Load(); fails != 1 {
		t.Fatalf("retrain failures = %d, want 1", fails)
	}
	if m.Current() != cur || len(origins) != 0 || m.Retraining() {
		t.Fatalf("current v%d (was v%d), swaps %v, retraining %v", m.Current().Version, cur.Version, origins, m.Retraining())
	}
}
