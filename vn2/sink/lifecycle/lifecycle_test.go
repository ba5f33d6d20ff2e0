package lifecycle

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// testManager builds a Manager over a real monitor serving a small model at
// version 1, with retrains inline and every enqueued swap's origin recorded
// in *origins instead of applied.
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
	cfg := Config{Enabled: true, ModelsDir: t.TempDir(), DriftMin: 2, Probation: 2, HoldoutMin: 1, CooldownTicks: 1, Sync: true}
	return New(cfg, mon, &Set{Model: model, Version: 1}, nil, Hooks{
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
			if m.prev != nil {
				t.Fatal("probation did not end on a filled window")
			}
			if rolledBack := len(origins) == 1 && origins[0] == OriginRollback; rolledBack != tc.rollback {
				t.Fatalf("swaps enqueued = %v, want a rollback: %v", origins, tc.rollback)
			}
		})
	}
}
