package trace_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
)

type namedTrace struct {
	name string
	ds   *trace.Dataset
}

// calibrationTraces are the two kinds of trace a detector is frozen from in
// this repository — a healthy CitySee district and the September storm — at
// a reduced size, on six seeds each; generated once for all tests.
var calibrationTraces = sync.OnceValue(func() []namedTrace {
	var out []namedTrace
	for seed := int64(1); seed <= 6; seed++ {
		opts := tracegen.CitySeeOptions{Seed: seed, Days: 2, Nodes: 24}
		healthy, err := tracegen.CitySeeTraining(opts)
		if err != nil {
			panic(err)
		}
		storm, _, err := tracegen.CitySeeSeptember(opts)
		if err != nil {
			panic(err)
		}
		out = append(out, namedTrace{fmt.Sprintf("healthy-%d", seed), healthy.Dataset},
			namedTrace{fmt.Sprintf("storm-%d", seed), storm.Dataset})
	}
	return out
})

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameDetector requires two detectors to agree bit for bit.
func sameDetector(t *testing.T, name string, got, want *trace.Detector) {
	t.Helper()
	if k := sameBits(got.Center, want.Center); k >= 0 {
		t.Fatalf("%s: center[%d] = %v, want %v", name, k, got.Center[k], want.Center[k])
	}
	if k := sameBits(got.Scale, want.Scale); k >= 0 {
		t.Fatalf("%s: scale[%d] = %v, want %v", name, k, got.Scale[k], want.Scale[k])
	}
	if math.Float64bits(got.RefMax) != math.Float64bits(want.RefMax) || got.Threshold != want.Threshold {
		t.Fatalf("%s: RefMax/Threshold = %v/%v, want %v/%v", name, got.RefMax, got.Threshold, want.RefMax, want.Threshold)
	}
}

// TestCalibrateMatchesSortOracle is the exactness contract of the selection
// kernel where it matters: on real calibration windows the detector, every
// normalized score and the flagged set are bit-identical to what the
// sort-based calibration produces.
func TestCalibrateMatchesSortOracle(t *testing.T) {
	for _, tr := range calibrationTraces() {
		name, states := tr.name, tr.ds.States()
		want, raw := trace.OracleCalibrate(states, 0.01) // the paper's cutoff, what threshold 0 selects
		det, err := trace.NewDetector(states, 0)
		if err != nil {
			t.Fatalf("%s: NewDetector: %v", name, err)
		}
		sameDetector(t, name, det, want)
		res, err := trace.DetectExceptions(states, 0)
		if err != nil {
			t.Fatalf("%s: DetectExceptions: %v", name, err)
		}
		var flagged []int
		for i := range raw {
			raw[i] /= want.RefMax
			if raw[i] >= want.Threshold {
				flagged = append(flagged, i)
			}
		}
		if i := sameBits(res.Scores, raw); i >= 0 {
			t.Fatalf("%s: score %d = %v, want %v", name, i, res.Scores[i], raw[i])
		}
		if len(flagged) == 0 || fmt.Sprint(res.Indices) != fmt.Sprint(flagged) {
			t.Fatalf("%s: flagged %v, want %v (non-empty)", name, res.Indices, flagged)
		}
	}
}

// TestDetectorSurvivesCSVRoundTrip: a detector frozen from a trace that went
// through WriteCSV and ReadCSV is bit-identical to one frozen from the trace
// in memory. vn2bench's oracle rests on this — the harness freezes one side,
// the sink process the other — and so does any deployment that calibrates
// from a file another process wrote.
func TestDetectorSurvivesCSVRoundTrip(t *testing.T) {
	for _, tr := range calibrationTraces() {
		name, ds := tr.name, tr.ds
		want, err := trace.NewDetector(ds.States(), 0)
		if err != nil {
			t.Fatalf("%s: NewDetector: %v", name, err)
		}
		var buf, ref bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		if err := trace.OracleWriteCSV(ds, &ref); err != nil || !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("%s: WriteCSV bytes differ from the encoding/csv writer's (err %v)", name, err)
		}
		back, err := trace.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", name, err)
		}
		got, err := trace.NewDetector(back.States(), 0)
		if err != nil {
			t.Fatalf("%s: NewDetector after the round trip: %v", name, err)
		}
		sameDetector(t, name, got, want)
	}
}
