package vn2

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
)

func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	states := synthStates(1500, 11)
	train := func(workers int) (*Model, *TrainReport) {
		model, report, err := Train(states, TrainConfig{Rank: 5, Seed: 7, MaxIter: 120, Workers: workers})
		if err != nil {
			t.Fatalf("Train(workers=%d): %v", workers, err)
		}
		return model, report
	}
	wantM, wantR := train(0)
	for _, w := range []int{1, 2, 4, -1} {
		gotM, gotR := train(w)
		if !mat.Equal(wantM.Psi, gotM.Psi, 0) {
			t.Fatalf("workers=%d: Psi differs from sequential", w)
		}
		if !mat.Equal(wantM.Signatures, gotM.Signatures, 0) {
			t.Fatalf("workers=%d: signatures differ from sequential", w)
		}
		if !mat.Equal(wantR.W, gotR.W, 0) {
			t.Fatalf("workers=%d: correlation matrix differs from sequential", w)
		}
		if gotR.Accuracy != wantR.Accuracy || gotR.SparseAccuracy != wantR.SparseAccuracy {
			t.Fatalf("workers=%d: accuracies (%v, %v) differ from sequential (%v, %v)",
				w, gotR.Accuracy, gotR.SparseAccuracy, wantR.Accuracy, wantR.SparseAccuracy)
		}
	}
}

func TestTrainAutoRankBitIdenticalAcrossWorkers(t *testing.T) {
	states := synthStates(1200, 12)
	train := func(workers int) (*Model, *TrainReport) {
		model, report, err := Train(states, TrainConfig{
			Seed: 3, SweepMin: 2, SweepMax: 8, SweepStep: 2, MaxIter: 60, Workers: workers,
		})
		if err != nil {
			t.Fatalf("Train(workers=%d): %v", workers, err)
		}
		return model, report
	}
	wantM, wantR := train(0)
	for _, w := range []int{2, 4} {
		gotM, gotR := train(w)
		if gotM.Rank != wantM.Rank {
			t.Fatalf("workers=%d: selected rank %d, sequential picked %d", w, gotM.Rank, wantM.Rank)
		}
		if len(gotR.RankSweep) != len(wantR.RankSweep) {
			t.Fatalf("workers=%d: %d sweep points, want %d", w, len(gotR.RankSweep), len(wantR.RankSweep))
		}
		for i := range wantR.RankSweep {
			if gotR.RankSweep[i] != wantR.RankSweep[i] {
				t.Fatalf("workers=%d: sweep point %d = %+v, want %+v",
					w, i, gotR.RankSweep[i], wantR.RankSweep[i])
			}
		}
		if !mat.Equal(wantM.Psi, gotM.Psi, 0) {
			t.Fatalf("workers=%d: Psi differs from sequential", w)
		}
	}
}

// TestGramBuiltOncePerModel: Train, Update and Load each leave a model that
// diagnoses without rebuilding ΨΨᵀ — a literal Model, which has to build it
// per call, pays two allocations more — and every route to the same basis
// gives the same bits, at any worker count.
func TestGramBuiltOncePerModel(t *testing.T) {
	trained, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 36})
	updated, _, err := trained.Update(synthStates(2000, 99), TrainConfig{Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	literal := &Model{Psi: trained.Psi, Scale: trained.Scale, Rank: trained.Rank}
	repointed := *trained
	repointed.Psi = updated.Psi

	state := synthStates(3, 37)[1]
	allocs := func(m *Model) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := m.Diagnose(state); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := allocs(literal) - 2 // mat.MustNew: the matrix and its data
	for name, m := range map[string]*Model{"trained": trained, "updated": updated, "loaded": loaded} {
		if got := allocs(m); got != want {
			t.Errorf("%s model: %v allocations per Diagnose, want %v (a literal model's minus the Gram)", name, got, want)
		}
	}

	states := synthStates(200, 37)
	ref, err := trained.DiagnoseBatch(states, DiagnoseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	same := func(name string, m *Model, ref []*Diagnosis, workers int) {
		got, err := m.DiagnoseBatch(states, DiagnoseConfig{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ref {
			one, err := m.Diagnose(states[i])
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*Diagnosis{got[i], one} {
				if d.Residual != ref[i].Residual || !reflect.DeepEqual(d.Weights, ref[i].Weights) {
					t.Fatalf("%s workers=%d state %d: %v / %v, want %v / %v", name, workers, i, d.Weights, d.Residual, ref[i].Weights, ref[i].Residual)
				}
			}
		}
	}
	for _, workers := range []int{0, 1, 2, 8} {
		same("trained", trained, ref, workers)
		same("loaded", loaded, ref, workers)
		same("literal", literal, ref, workers)
	}
	// A copy whose Psi was re-pointed must not diagnose on the old Gram.
	updRef, err := updated.DiagnoseBatch(states, DiagnoseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	same("repointed", &repointed, updRef, 2)
}
