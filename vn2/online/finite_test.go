package online

import (
	"encoding/json"
	"errors"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/trace"
)

// TestOverflowingStateRefused: a report whose metrics are all finite but
// whose state's normalized norm overflows (one metric at 1e200) is refused
// where it would join the backlog and counted Invalid, so no diagnosis
// carries an infinite residual and State, Snapshot and DriftStats still
// encode. A handoff slice or a snapshot carrying such a pending state is
// refused with ErrBadState.
func TestOverflowingStateRefused(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	if _, err := m.Ingest(r.calm(1, 1)); err != nil {
		t.Fatal(err)
	}
	huge := r.calm(1, 2)
	huge.Vector[metricspec.TransmitCounter] = 1e200
	if _, err := m.Ingest(huge); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Ingest of a finite report with an overflowing state: err = %v, want ErrNonFinite", err)
	}
	if st := m.Stats(); st.Invalid != 1 || st.Flagged != 0 || m.Pending() != 0 {
		t.Fatalf("invalid %d flagged %d pending %d, want 1/0/0", st.Invalid, st.Flagged, m.Pending())
	}
	// The node's stream goes on: back down from 1e200 overflows the same
	// way, then a calm and a hot report diagnose as usual.
	if _, err := m.Ingest(r.calm(1, 3)); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("back down from 1e200: err = %v, want ErrNonFinite", err)
	}
	for _, rec := range []trace.Record{r.calm(1, 4), r.hot(1, 5)} {
		if _, err := m.Ingest(rec); err != nil {
			t.Fatalf("epoch %d: %v", rec.Epoch, err)
		}
	}
	if out, err := m.Drain(); err != nil || len(out) != 1 {
		t.Fatalf("Drain: %d diagnosed, err %v; want 1", len(out), err)
	}
	for name, v := range map[string]any{"State": m.State(), "Snapshot": m.Snapshot(), "DriftStats": m.DriftStats()} {
		if _, err := json.Marshal(v); err != nil {
			t.Errorf("%s does not encode: %v", name, err)
		}
	}

	big := make([]float64, metricspec.MetricCount)
	big[metricspec.TransmitCounter] = 1e300
	sl := NodeSlice{Pending: []PendingState{{State: trace.StateVector{Node: 9, Epoch: 3, Gap: 1, Delta: big}, Score: 1}}}
	if err := m.ValidateSlice(sl); !errors.Is(err, ErrBadState) {
		t.Errorf("ValidateSlice: err = %v, want ErrBadState", err)
	}
	if err := m.ImportNodes(sl); !errors.Is(err, ErrBadState) {
		t.Errorf("ImportNodes: err = %v, want ErrBadState", err)
	}
	if err := newTestMonitor(t, Config{}).Restore(MonitorState{Pending: sl.Pending}); !errors.Is(err, ErrBadState) {
		t.Errorf("Restore: err = %v, want ErrBadState", err)
	}
	if m.Pending() != 0 {
		t.Errorf("a refused slice left %d states pending", m.Pending())
	}
}
