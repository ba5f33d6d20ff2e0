package trace

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

// noisyStates builds a batch with calm background and a few large
// excursions, so the detector has real structure to freeze.
func noisyStates(n int, seed int64) []StateVector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]StateVector, n)
	for i := range out {
		delta := make([]float64, metricspec.MetricCount)
		for k := range delta {
			delta[k] = rng.NormFloat64() * 0.3
		}
		if i%40 == 0 {
			delta[metricspec.NOACKRetransmitCounter] += 200 + rng.Float64()*100
			delta[metricspec.MacBackoffCounter] += 150 + rng.Float64()*50
		}
		out[i] = StateVector{Node: packet.NodeID(1 + i%7), Epoch: 2 + i/7, Gap: 1, Delta: delta}
	}
	return out
}

func TestNewDetectorErrors(t *testing.T) {
	if _, err := NewDetector(nil, 0); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v, want ErrEmpty", err)
	}
	ragged := []StateVector{{Delta: vec(0)}, {Delta: []float64{1}}}
	if _, err := NewDetector(ragged, 0); !errors.Is(err, ErrVectorLength) {
		t.Errorf("ragged err = %v, want ErrVectorLength", err)
	}
}

func TestNewDetectorFreezesThresholdAndCalibration(t *testing.T) {
	states := noisyStates(200, 3)
	det, err := NewDetector(states, 0)
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	if !det.Valid() {
		t.Fatal("detector not Valid after calibration")
	}
	if det.Threshold != defaultExceptionThreshold {
		t.Errorf("threshold = %v, want default %v", det.Threshold, defaultExceptionThreshold)
	}
	if det.Metrics() != metricspec.MetricCount {
		t.Errorf("Metrics = %d, want %d", det.Metrics(), metricspec.MetricCount)
	}
	if det.RefMax <= 0 {
		t.Errorf("RefMax = %v, want > 0", det.RefMax)
	}
	batch, err := DetectExceptions(states, 0)
	if err != nil {
		t.Fatalf("DetectExceptions: %v", err)
	}
	for k := range det.Center {
		if det.Center[k] != batch.Center[k] || det.Scale[k] != batch.Scale[k] {
			t.Fatalf("metric %d calibration differs: detector (%v,%v) batch (%v,%v)",
				k, det.Center[k], det.Scale[k], batch.Center[k], batch.Scale[k])
		}
	}
}

// TestDetectorReplayBitIdentical is the core contract: replaying the
// training batch through the frozen detector reproduces DetectExceptions
// exactly — scores, indices, everything.
func TestDetectorReplayBitIdentical(t *testing.T) {
	states := noisyStates(400, 11)
	batch, err := DetectExceptions(states, 0)
	if err != nil {
		t.Fatalf("DetectExceptions: %v", err)
	}
	det, err := NewDetector(states, 0)
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	// Replay state by state through the online rule: the batch's scores
	// and exactly its flagged indices, in order.
	var indices []int
	for i, s := range states {
		flagged, score, err := det.Exceptional(s.Delta)
		if err != nil {
			t.Fatalf("Exceptional(%d): %v", i, err)
		}
		if score != batch.Scores[i] {
			t.Fatalf("state %d online score %v != batch %v", i, score, batch.Scores[i])
		}
		if flagged {
			indices = append(indices, i)
		}
	}
	if !reflect.DeepEqual(indices, batch.Indices) {
		t.Fatalf("replay flagged %v, batch %v", indices, batch.Indices)
	}
}

func TestDetectorScoreErrors(t *testing.T) {
	var zero *Detector
	if _, err := zero.Score(vec(0)); !errors.Is(err, ErrDetectorUncalibrated) {
		t.Errorf("nil detector err = %v", err)
	}
	det, err := NewDetector(noisyStates(50, 1), 0)
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	if _, err := det.Score([]float64{1, 2}); !errors.Is(err, ErrVectorLength) {
		t.Errorf("short delta err = %v", err)
	}
	if _, _, err := det.Exceptional([]float64{1}); !errors.Is(err, ErrVectorLength) {
		t.Errorf("Exceptional short delta err = %v", err)
	}
	if _, err := det.Normalized(nil); !errors.Is(err, ErrVectorLength) {
		t.Errorf("Normalized empty err = %v", err)
	}
}

func TestDetectorUniformTraining(t *testing.T) {
	states := make([]StateVector, 20)
	for i := range states {
		states[i] = StateVector{Node: 1, Epoch: i + 2, Delta: vec(3)}
	}
	det, err := NewDetector(states, 0)
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	if det.RefMax != 0 {
		t.Fatalf("uniform training RefMax = %v, want 0", det.RefMax)
	}
	// Replaying the window flags nothing, like the batch detector.
	for i, s := range states {
		if flagged, _, err := det.Exceptional(s.Delta); err != nil || flagged {
			t.Errorf("uniform state %d: flagged=%v err=%v", i, flagged, err)
		}
	}
	// A genuinely deviating live state is unprecedented: flagged, score 1.
	dev := vec(3)
	dev[0] = 1000
	flagged, score, err := det.Exceptional(dev)
	if err != nil || !flagged || score != 1 {
		t.Errorf("deviation on uniform training: flagged=%v score=%v err=%v, want true/1/nil", flagged, score, err)
	}
	// A repeat of the constant state stays quiet.
	flagged, score, err = det.Exceptional(vec(3))
	if err != nil || flagged || score != 0 {
		t.Errorf("constant state: flagged=%v score=%v err=%v, want false/0/nil", flagged, score, err)
	}
}

// TestDetectorJSONRoundTrip covers the serve path's snapshot format: a
// detector survives JSON bit-for-bit.
func TestDetectorJSONRoundTrip(t *testing.T) {
	states := noisyStates(120, 7)
	det, err := NewDetector(states, 0.02)
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	b, err := json.Marshal(det)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Detector
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.Valid() {
		t.Fatal("round-tripped detector not Valid")
	}
	for i, s := range states {
		a, err1 := det.Normalized(s.Delta)
		c, err2 := back.Normalized(s.Delta)
		if err1 != nil || err2 != nil || a != c {
			t.Fatalf("state %d: original %v (%v), round-tripped %v (%v)", i, a, err1, c, err2)
		}
	}
}
