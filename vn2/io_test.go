package vn2

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
)

// savedModelJSON trains a small model and returns its Save output as a
// generic map for surgical corruption.
func savedModelJSON(t *testing.T) map[string]any {
	t.Helper()
	model, _ := trainSynth(t, 900, TrainConfig{Rank: 4, Seed: 9})
	if err := model.SetLabel(1, "loop"); err != nil {
		t.Fatalf("SetLabel: %v", err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal saved model: %v", err)
	}
	return doc
}

func reload(t *testing.T, doc map[string]any) (*Model, error) {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return Load(bytes.NewReader(b))
}

// TestLoadMalformed is the table-driven sweep of broken model files: every
// corruption must produce an error (the dimension mismatches a typed
// ErrCorruptModel), never a model that panics later.
func TestLoadMalformed(t *testing.T) {
	corrupt := func(f func(doc, model map[string]any)) func(*testing.T) (*Model, error) {
		return func(t *testing.T) (*Model, error) {
			doc := savedModelJSON(t)
			f(doc, doc["model"].(map[string]any))
			return reload(t, doc)
		}
	}
	truncateMatrix := func(m map[string]any, rows float64) {
		m["rows"] = rows
		data := m["data"].([]any)
		m["data"] = data[:int(rows)*int(m["cols"].(float64))]
	}
	cases := []struct {
		name        string
		load        func(*testing.T) (*Model, error)
		wantCorrupt bool
	}{
		{"truncated envelope", func(t *testing.T) (*Model, error) {
			return Load(strings.NewReader(`{"version":1,"model":{"psi":{"rows":2,`))
		}, false},
		{"missing model key", func(t *testing.T) (*Model, error) {
			return Load(strings.NewReader(`{"version":1}`))
		}, false},
		{"short signatures", corrupt(func(_, m map[string]any) {
			truncateMatrix(m["signatures"].(map[string]any), 2)
		}), true},
		{"signatures wrong cols", corrupt(func(_, m map[string]any) {
			sig := m["signatures"].(map[string]any)
			sig["cols"] = sig["cols"].(float64) - 1
			data := sig["data"].([]any)
			sig["data"] = data[:int(sig["rows"].(float64))*int(sig["cols"].(float64))]
		}), true},
		{"short metric names", corrupt(func(_, m map[string]any) {
			names := m["metric_names"].([]any)
			m["metric_names"] = names[:3]
		}), true},
		{"label outside rank", corrupt(func(_, m map[string]any) {
			m["labels"] = map[string]any{"99": "phantom cause"}
		}), true},
		{"negative label index", corrupt(func(_, m map[string]any) {
			m["labels"] = map[string]any{"-1": "phantom cause"}
		}), true},
		{"scale shorter than basis", corrupt(func(_, m map[string]any) {
			scale := m["scale"].([]any)
			m["scale"] = scale[:5]
		}), false},
		{"rank disagrees with basis", corrupt(func(_, m map[string]any) {
			m["rank"] = m["rank"].(float64) + 1
		}), false},
		{"short calibration center", corrupt(func(_, m map[string]any) {
			c := m["calibration"].(map[string]any)
			c["center"] = c["center"].([]any)[:5]
		}), true},
		{"calibration scale longer than basis", corrupt(func(_, m map[string]any) {
			c := m["calibration"].(map[string]any)
			c["scale"] = append(c["scale"].([]any), 1.0)
		}), true},
		{"zero calibration scale", corrupt(func(_, m map[string]any) {
			m["calibration"].(map[string]any)["scale"].([]any)[3] = 0.0
		}), true},
		{"negative calibration ref max", corrupt(func(_, m map[string]any) {
			m["calibration"].(map[string]any)["ref_max"] = -1.0
		}), true},
		{"calibration center past float64", func(t *testing.T) (*Model, error) {
			b, _ := json.Marshal(savedModelJSON(t))
			return Load(bytes.NewReader(bytes.Replace(b, []byte(`"center":[`), []byte(`"center":[1e999,`), 1)))
		}, false},
		{"negative basis entry", corrupt(func(_, m map[string]any) {
			m["psi"].(map[string]any)["data"].([]any)[7] = -0.5
		}), true},
		{"zero scale", corrupt(func(_, m map[string]any) {
			m["scale"].([]any)[2] = 0.0
		}), true},
		{"negative scale", corrupt(func(_, m map[string]any) {
			m["scale"].([]any)[4] = -3.0
		}), true},
		{"basis dims overflow int", corrupt(func(_, m map[string]any) {
			// rows·cols wraps to 2 in 64 bits; the data has 2 values, and
			// rank and scale agree with the claimed dims.
			const rows = 6148914691236517206
			psi := m["psi"].(map[string]any)
			psi["rows"], psi["cols"], psi["data"] = rows, 3, []any{0.5, 0.5}
			m["rank"], m["scale"] = rows, []any{1.0, 1.0, 1.0}
		}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, err := tc.load(t)
			if err == nil {
				t.Fatalf("corrupt model accepted: %+v", model)
			}
			if tc.wantCorrupt && !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("err = %v, want ErrCorruptModel", err)
			}
		})
	}
}

// FuzzLoadModel feeds Load arbitrary bytes, seeded with a trained model's
// Save output. No input may panic; a model Load accepts must re-save and
// reload to the same Psi, Scale and Calibration bits, and must diagnose a
// finite state (its Scale, which normalizes to all ones) to a finite
// residual.
func FuzzLoadModel(f *testing.F) {
	model, _, err := Train(synthStates(600, 42), TrainConfig{Rank: 3, Seed: 4})
	if err != nil {
		f.Fatalf("Train: %v", err)
	}
	var seed bytes.Buffer
	if err := model.Save(&seed); err != nil {
		f.Fatalf("Save: %v", err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("re-save of an accepted model: %v", err)
		}
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("reload of a re-saved model: %v", err)
		}
		same := m.Psi.Rows() == again.Psi.Rows() && sameBits(m.Scale, again.Scale)
		for i := 0; same && i < m.Psi.Rows(); i++ {
			same = sameBits(m.Psi.RawRow(i), again.Psi.RawRow(i))
		}
		if !same {
			t.Fatal("basis or scale changed across save and reload")
		}
		if c, a := m.Calibration, again.Calibration; (c == nil) != (a == nil) ||
			c != nil && (!sameBits(c.Center, a.Center) || !sameBits(c.Scale, a.Scale) ||
				math.Float64bits(c.RefMax) != math.Float64bits(a.RefMax)) {
			t.Fatal("calibration changed across save and reload")
		}
		d, err := m.Diagnose(trace.StateVector{Delta: append([]float64(nil), m.Scale...)})
		if err != nil {
			t.Fatalf("Diagnose: %v", err)
		}
		if math.IsNaN(d.Residual) || math.IsInf(d.Residual, 0) {
			t.Fatalf("residual %v is not finite", d.Residual)
		}
	})
}

// TestLoadedCorruptionWouldHavePanicked documents the bug the validation
// fixes: before Load checked Signatures dims, a short Signatures matrix
// panicked inside Signature(j).
func TestLoadValidatedModelIsUsable(t *testing.T) {
	doc := savedModelJSON(t)
	model, err := reload(t, doc)
	if err != nil {
		t.Fatalf("Load of pristine model: %v", err)
	}
	for j := 0; j < model.Rank; j++ {
		if _, err := model.Signature(j); err != nil {
			t.Fatalf("Signature(%d): %v", j, err)
		}
		if _, err := model.Explain(j, 3); err != nil {
			t.Fatalf("Explain(%d): %v", j, err)
		}
	}
	if model.Label(1) != "loop" {
		t.Errorf("Label(1) = %q, want loop", model.Label(1))
	}
}

// TestLabelSafeOnFreshAndBadInput is the regression test for the Label
// panic: a freshly trained model (nil Labels), a nil model, and
// out-of-range indices must all yield "" like an unset label.
func TestLabelSafeOnFreshAndBadInput(t *testing.T) {
	fresh, _ := trainSynth(t, 600, TrainConfig{Rank: 3, Seed: 4})
	if fresh.Labels != nil {
		t.Fatal("fresh model has non-nil Labels; test premise broken")
	}
	for _, j := range []int{-1, 0, 2, 3, 99} {
		if got := fresh.Label(j); got != "" {
			t.Errorf("fresh.Label(%d) = %q, want \"\"", j, got)
		}
	}
	var nilModel *Model
	if got := nilModel.Label(0); got != "" {
		t.Errorf("nil model Label = %q, want \"\"", got)
	}
	var zero Model
	if got := zero.Label(0); got != "" {
		t.Errorf("zero model Label = %q, want \"\"", got)
	}
	// A set label still comes back, and out-of-range stays "".
	if err := fresh.SetLabel(2, "reboot"); err != nil {
		t.Fatalf("SetLabel: %v", err)
	}
	if fresh.Label(2) != "reboot" {
		t.Errorf("Label(2) = %q after SetLabel", fresh.Label(2))
	}
	if fresh.Label(3) != "" {
		t.Errorf("Label(3) = %q, want \"\"", fresh.Label(3))
	}
}
