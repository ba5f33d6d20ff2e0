package trace_test

// External test package so the parity check can drive the real CitySee
// generator (internal/tracegen imports internal/trace; an in-package test
// would be an import cycle).

import (
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
)

// TestDetectorParityCitySee7Day freezes a detector on the CitySee 7-day
// training window (reduced node population to keep the test quick; the
// full 7 days of epochs) and replays every state through the O(M) online
// rule: same calibration as batch DetectExceptions, the same score state by
// state, and a decision that agrees with batch membership state by state.
func TestDetectorParityCitySee7Day(t *testing.T) {
	res, err := tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: 17, Days: 7, Nodes: 60})
	if err != nil {
		t.Fatalf("CitySeeTraining: %v", err)
	}
	states := res.Dataset.States()
	if len(states) == 0 {
		t.Fatal("no states generated")
	}

	batch, err := trace.DetectExceptions(states, 0)
	if err != nil {
		t.Fatalf("DetectExceptions: %v", err)
	}
	det, err := trace.NewDetector(states, 0)
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	for k := range batch.Center {
		if det.Center[k] != batch.Center[k] || det.Scale[k] != batch.Scale[k] {
			t.Fatalf("metric %d calibration differs", k)
		}
	}
	if det.RefMax != batch.RefMax {
		t.Fatalf("RefMax %v != batch %v", det.RefMax, batch.RefMax)
	}
	if len(batch.Indices) == 0 {
		t.Fatal("training window produced no exceptions; parity test is vacuous")
	}
	flagged := make(map[int]bool, len(batch.Indices))
	for _, i := range batch.Indices {
		flagged[i] = true
	}
	replayed := 0
	for i, s := range states {
		isEx, score, err := det.Exceptional(s.Delta)
		if err != nil {
			t.Fatalf("Exceptional(%d): %v", i, err)
		}
		if score != batch.Scores[i] {
			t.Fatalf("state %d online score %v != batch %v", i, score, batch.Scores[i])
		}
		if isEx != flagged[i] {
			t.Fatalf("state %d online decision %v != batch membership %v", i, isEx, flagged[i])
		}
		if isEx {
			replayed++
		}
	}
	if replayed != len(batch.Indices) {
		t.Fatalf("replay flagged %d states, batch %d", replayed, len(batch.Indices))
	}
}
