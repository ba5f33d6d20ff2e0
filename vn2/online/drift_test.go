package online

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
)

// alien returns a report whose derived delta spikes metrics NO training
// archetype ever touched — the detector flags it, but the basis cannot
// explain it, so it must classify as unattributed.
func (r testRig) alien(node packet.NodeID, epoch int) trace.Record {
	v := make([]float64, len(r.baseline))
	copy(v, r.baseline)
	v[metricspec.BeaconCounter] += float64(epoch) * 500
	v[metricspec.NoParentCounter] += float64(epoch) * 400
	return trace.Record{Node: node, Epoch: epoch, Vector: v}
}

func ingestOK(t *testing.T, m *Monitor, rec trace.Record) Observation {
	t.Helper()
	obs, err := m.Ingest(rec)
	if err != nil {
		t.Fatalf("Ingest(node %d epoch %d): %v", rec.Node, rec.Epoch, err)
	}
	return obs
}

// TestRelResidualIsTheDriftSample: the lifecycle's validation gate scores a
// held-out state by RelResidual over the Flagged the monitor handed out; that
// must be bit for bit the sample the monitor put in its drift window for the
// same state, or the gate and the drift trigger disagree on "unattributed".
func TestRelResidualIsTheDriftSample(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	for epoch := 1; epoch <= 9; epoch++ {
		ingestOK(t, m, r.hot(1, epoch))
		ingestOK(t, m, r.alien(2, epoch))
	}
	holdout, err := m.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	samples := m.State().Residuals
	if len(holdout) != 16 || len(samples) != len(holdout) {
		t.Fatalf("%d diagnosed states, %d drift samples, want 16 of each", len(holdout), len(samples))
	}
	distinct := map[float64]bool{}
	for i, f := range holdout {
		got := RelResidual(r.model, f.State.Delta, f.Diagnosis.Residual)
		if got != samples[i].Rel {
			t.Errorf("state %d (node %d epoch %d): gate residual %v, drift sample %v", i, f.State.Node, f.State.Epoch, got, samples[i].Rel)
		}
		distinct[got] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("every residual is %v — the comparison is vacuous", distinct)
	}
}

func TestDriftClassification(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})

	// Node 1 streams on-basis contention storms, node 2 streams off-basis
	// alien states; both must be flagged by the detector.
	for epoch := 1; epoch <= 9; epoch++ {
		hotObs := ingestOK(t, m, r.hot(1, epoch))
		alienObs := ingestOK(t, m, r.alien(2, epoch))
		if epoch > 1 && (!hotObs.Flagged || !alienObs.Flagged) {
			t.Fatalf("epoch %d: hot flagged=%v alien flagged=%v, want both", epoch, hotObs.Flagged, alienObs.Flagged)
		}
	}
	if _, err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	ds := m.DriftStats()
	if ds.ModelVersion != 1 {
		t.Errorf("ModelVersion = %d, want 1", ds.ModelVersion)
	}
	if ds.Window != 16 {
		t.Errorf("Window = %d, want 16 (8 hot + 8 alien)", ds.Window)
	}
	// The alien half is unattributed, the hot half is explained by the
	// contention cause the model was trained on.
	if ds.WindowUnattributed != 8 {
		t.Errorf("WindowUnattributed = %d, want 8", ds.WindowUnattributed)
	}
	if ds.UnattributedRate != 0.5 {
		t.Errorf("UnattributedRate = %v, want 0.5", ds.UnattributedRate)
	}
	if ds.Quarantine != 8 {
		t.Errorf("Quarantine = %d, want 8", ds.Quarantine)
	}
	if !(ds.P50 > 0 && ds.P50 <= ds.P90 && ds.P90 <= ds.P99 && ds.P99 <= 1) {
		t.Errorf("quantiles not ordered in (0,1]: p50=%v p90=%v p99=%v", ds.P50, ds.P90, ds.P99)
	}
	st := m.Stats()
	if st.Unattributed != 8 || st.Quarantined != 8 {
		t.Errorf("stats unattributed=%d quarantined=%d, want 8/8", st.Unattributed, st.Quarantined)
	}
	q := m.Quarantine()
	if len(q) != 8 {
		t.Fatalf("Quarantine() len = %d, want 8", len(q))
	}
	for _, s := range q {
		if s.Node != 2 {
			t.Errorf("quarantined state from node %d, want only node 2", s.Node)
		}
	}
	if sum := m.Snapshot(); sum.Drift != ds {
		t.Errorf("Snapshot().Drift = %+v, want %+v", sum.Drift, ds)
	}
}

func TestQuarantineBound(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	// One node's first report derives no state, so quarantineSize+7 epochs
	// quarantine quarantineSize+6 unattributed states.
	for epoch := 1; epoch <= quarantineSize+7; epoch++ {
		ingestOK(t, m, r.alien(3, epoch))
	}
	if _, err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ds := m.DriftStats()
	if ds.Quarantine != quarantineSize {
		t.Errorf("Quarantine = %d, want bound %d", ds.Quarantine, quarantineSize)
	}
	if ds.Window != residualWindow {
		t.Errorf("Window = %d, want bound %d", ds.Window, residualWindow)
	}
	st := m.Stats()
	if st.QuarantineShed != 6 {
		t.Errorf("QuarantineShed = %d, want 6 (%d quarantined into %d slots)", st.QuarantineShed, quarantineSize+6, quarantineSize)
	}
	// The oldest were shed: the survivors are the newest epochs.
	q := m.Quarantine()
	for i, s := range q {
		if want := 8 + i; s.Epoch != want {
			t.Errorf("quarantine[%d].Epoch = %d, want %d", i, s.Epoch, want)
		}
	}
}

func TestSwapModel(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	for epoch := 1; epoch <= 5; epoch++ {
		ingestOK(t, m, r.alien(4, epoch))
	}
	if _, err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if m.DriftStats().Window == 0 {
		t.Fatal("expected a populated drift window before swap")
	}

	if err := m.SwapModel(1, r.model); !errors.Is(err, ErrBadConfig) {
		t.Errorf("swap to same version: err = %v, want ErrBadConfig", err)
	}
	if err := m.SwapModel(2, &vn2.Model{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("swap to untrained model: err = %v, want ErrBadConfig", err)
	}

	if err := m.SwapModel(2, r.model); err != nil {
		t.Fatalf("SwapModel: %v", err)
	}
	if got := m.ModelVersion(); got != 2 {
		t.Errorf("ModelVersion = %d, want 2", got)
	}
	ds := m.DriftStats()
	if ds.Window != 0 || ds.Quarantine != 0 {
		t.Errorf("drift window/quarantine not cleared by swap: %+v", ds)
	}
	if st := m.Stats(); st.Swaps != 1 {
		t.Errorf("Swaps = %d, want 1", st.Swaps)
	}
	// The stream keeps flowing through the new generation.
	obs := ingestOK(t, m, r.hot(9, 3))
	if obs.First {
		_ = obs // first report for node 9; follow with a second to derive a state
	}
	ingestOK(t, m, r.hot(9, 4))
	if _, err := m.Drain(); err != nil {
		t.Fatalf("Drain after swap: %v", err)
	}
	if ds := m.DriftStats(); ds.ModelVersion != 2 || ds.Window == 0 {
		t.Errorf("post-swap drift window = %+v, want version 2 with samples", ds)
	}
}

func TestDriftStateRoundTrip(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{ModelVersion: 7})
	for epoch := 1; epoch <= 6; epoch++ {
		ingestOK(t, m, r.hot(1, epoch))
		ingestOK(t, m, r.alien(2, epoch))
	}
	if _, err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want := m.DriftStats()
	if want.Window == 0 || want.Quarantine == 0 {
		t.Fatalf("fixture produced empty drift state: %+v", want)
	}

	st := m.State()
	if st.ModelVersion != 7 {
		t.Fatalf("State().ModelVersion = %d, want 7", st.ModelVersion)
	}
	m2 := newTestMonitor(t, Config{})
	if err := m2.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := m2.DriftStats(); got != want {
		t.Errorf("restored DriftStats = %+v, want %+v", got, want)
	}
	if got := m2.ModelVersion(); got != 7 {
		t.Errorf("restored ModelVersion = %d, want 7", got)
	}
	// RecentWindow must hand back deep copies: mutating the caller's view
	// must not leak into the monitor.
	rw := m2.RecentWindow()
	if len(rw) == 0 {
		t.Fatal("RecentWindow is empty")
	}
	rw[0].State.Delta[0] = 1e18
	rw[0].Diagnosis.Weights[0] = 1e18
	if m2.RecentWindow()[0].State.Delta[0] == 1e18 {
		t.Error("RecentWindow leaked internal state slices")
	}
}

func TestRestoreValidatesDriftShapes(t *testing.T) {
	r := newRig(t)
	base := func() MonitorState {
		m := newTestMonitor(t, Config{})
		ingestOK(t, m, r.hot(1, 1))
		ingestOK(t, m, r.hot(1, 2))
		if _, err := m.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return m.State()
	}

	t.Run("quarantine width", func(t *testing.T) {
		st := base()
		st.Quarantine = []trace.StateVector{{Node: 1, Epoch: 1, Delta: []float64{1, 2}}}
		if err := newTestMonitor(t, Config{}).Restore(st); !errors.Is(err, ErrBadState) {
			t.Errorf("err = %v, want ErrBadState", err)
		}
	})
	t.Run("recent weights rank", func(t *testing.T) {
		st := base()
		if len(st.Recent) == 0 || st.Recent[0].Diagnosis == nil {
			t.Fatal("fixture has no recent diagnosis")
		}
		st.Recent[0].Diagnosis.Weights = []float64{1}
		if err := newTestMonitor(t, Config{}).Restore(st); !errors.Is(err, ErrBadState) {
			t.Errorf("err = %v, want ErrBadState", err)
		}
	})
	t.Run("epoch cause rank", func(t *testing.T) {
		st := base()
		if len(st.Epochs) == 0 || len(st.Epochs[0].Contribs) == 0 {
			t.Fatal("fixture has no epoch contributions")
		}
		st.Epochs[0].Contribs[0].Causes = []vn2.RankedCause{{Cause: r.model.Rank, Strength: 1}}
		if err := newTestMonitor(t, Config{}).Restore(st); !errors.Is(err, ErrBadState) {
			t.Errorf("err = %v, want ErrBadState", err)
		}
	})
}

// oracleDrift is driftLocked as it stood: a fresh slice and a full sort per
// call for three nearest-rank quantiles.
func oracleDrift(m *Monitor) DriftStats {
	ds := DriftStats{
		ModelVersion: m.version,
		Window:       len(m.residuals),
		Unattributed: m.stats.Unattributed,
		Quarantine:   len(m.quar),
	}
	if len(m.residuals) == 0 {
		return ds
	}
	rels := make([]float64, len(m.residuals))
	var sum float64
	for i, s := range m.residuals {
		rels[i] = s.rel
		sum += s.rel
		if s.unattributed {
			ds.WindowUnattributed++
		}
	}
	ds.UnattributedRate = float64(ds.WindowUnattributed) / float64(len(m.residuals))
	ds.MeanResidual = sum / float64(len(m.residuals))
	sort.Float64s(rels)
	nearest := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(rels)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(rels) {
			i = len(rels) - 1
		}
		return rels[i]
	}
	ds.P50, ds.P90, ds.P99 = nearest(0.50), nearest(0.90), nearest(0.99)
	return ds
}

// TestDriftStatsMatchesSortOracle: DriftStats by selection from a reused
// buffer marshals to the bytes the sort gave — on the window real drains
// recorded, and on windows shaped to trip a selection (one sample, all
// equal, heavy ties, every length up to the 256 default) — and costs no
// allocation once the buffer has grown.
func TestDriftStatsMatchesSortOracle(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	check := func(name string) {
		t.Helper()
		want, _ := json.Marshal(oracleDrift(m))
		for call := 0; call < 2; call++ { // the second call selects from a rearranged buffer's successor
			if got, _ := json.Marshal(m.DriftStats()); !bytes.Equal(got, want) {
				t.Fatalf("%s: DriftStats = %s, sort oracle %s", name, got, want)
			}
		}
	}
	check("empty")
	for epoch := 1; epoch <= 40; epoch++ {
		ingestOK(t, m, r.hot(1, epoch))
		ingestOK(t, m, r.alien(2, epoch))
		ingestOK(t, m, r.hot(3, epoch))
		if epoch%3 == 0 {
			if _, err := m.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			check(fmt.Sprintf("recorded window after epoch %d", epoch))
		}
	}
	if len(m.residuals) < 100 {
		t.Fatalf("recorded window holds %d samples", len(m.residuals))
	}
	rng := rand.New(rand.NewSource(22))
	for n := 1; n <= 256; n++ {
		for _, shape := range []string{"equal", "ties", "spread"} {
			m.residuals = m.residuals[:0]
			for i := 0; i < n; i++ {
				s := resSample{rel: 0.25, unattributed: rng.Intn(3) == 0}
				switch shape {
				case "ties":
					s.rel = float64(rng.Intn(4)) / 4
				case "spread":
					s.rel = rng.Float64()
				}
				m.residuals = append(m.residuals, s)
			}
			check(fmt.Sprintf("%s window of %d", shape, n))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { m.driftLocked() }); allocs != 0 {
		t.Errorf("driftLocked allocates %.0f times per call at steady state, want 0", allocs)
	}
}
