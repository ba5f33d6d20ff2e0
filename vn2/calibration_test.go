package vn2

import (
	"bytes"
	"math"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
)

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCalibrationIsTheTrainingDetector: the calibration Train records is
// the detector a sink used to freeze from the training trace's CSV — center,
// scale and RefMax bit for bit — on a CitySee district and on the testbed
// trace the chaos harness trains on. It survives Save/Load and Update
// unchanged, and the trace's last rows, which a sink still reads, are
// ReadCSV's.
func TestCalibrationIsTheTrainingDetector(t *testing.T) {
	city, err := tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: 2, Days: 2, Nodes: 72})
	if err != nil {
		t.Fatal(err)
	}
	testbed, err := tracegen.Testbed(tracegen.TestbedOptions{Seed: 1, Scenario: tracegen.ScenarioExpansive})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ds   *trace.Dataset
		cfg  TrainConfig
	}{
		{"citysee", city.Dataset, TrainConfig{Rank: 12, Seed: 2}},
		{"testbed", testbed.Dataset, TrainConfig{Rank: 6, Seed: 1, CompressAllStates: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var csv bytes.Buffer
			if err := tc.ds.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			read, err := trace.ReadCSV(bytes.NewReader(csv.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := trace.NewDetector(read.States(), 0)
			if err != nil {
				t.Fatal(err)
			}
			model, _, err := Train(tc.ds.States(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var saved bytes.Buffer
			if err := model.Save(&saved); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&saved)
			if err != nil {
				t.Fatal(err)
			}
			updated, _, err := loaded.Update(tc.ds.States()[:len(tc.ds.States())/2], tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range map[string]*Model{"trained": model, "loaded": loaded, "updated": updated} {
				c := m.Calibration
				if c == nil || !sameBits(c.Center, want.Center) || !sameBits(c.Scale, want.Scale) ||
					math.Float64bits(c.RefMax) != math.Float64bits(want.RefMax) || c.Threshold != 0 {
					t.Fatalf("%s model's calibration is not NewDetector's on the trace's CSV", name)
				}
			}
			if got := *loaded.Calibration.WithThreshold(0); got.Threshold != want.Threshold {
				t.Fatalf("WithThreshold(0) cuts at %g, NewDetector at %g", got.Threshold, want.Threshold)
			}

			last, err := trace.ReadLastRecords(bytes.NewReader(csv.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			ref := read.LastRecords()
			if len(last) != len(ref) {
				t.Fatalf("ReadLastRecords: %d nodes, ReadCSV %d", len(last), len(ref))
			}
			for i := range ref {
				if last[i].Node != ref[i].Node || last[i].Epoch != ref[i].Epoch || !sameBits(last[i].Vector, ref[i].Vector) {
					t.Fatalf("ReadLastRecords row %d = node %d epoch %d, ReadCSV's node %d epoch %d (or vectors differ)",
						i, last[i].Node, last[i].Epoch, ref[i].Node, ref[i].Epoch)
				}
			}
		})
	}
}
