package lifecycle

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
)

// holdout flags three states through m's monitor and returns the recent
// window with every stored residual set to rel of its state's normalized
// norm: what the serving generation is taken to have explained.
func holdout(t *testing.T, m *Manager, rel float64) []online.Flagged {
	t.Helper()
	flag(t, m, 3)
	h := m.mon.RecentWindow()
	for i := range h {
		norm, err := m.Current().Model.NormalizedNorm(h[i].State.Delta)
		if err != nil {
			t.Fatal(err)
		}
		h[i].Diagnosis.Residual = rel * norm
	}
	return h
}

// TestValidateCandidateRejectsNoImprovement: a candidate whose mean holdout
// residual is not below the serving generation's is rejected for that, even
// when it keeps every dominant cause.
func TestValidateCandidateRejectsNoImprovement(t *testing.T) {
	var origins []string
	m := testManager(t, &origins)
	h := holdout(t, m, 0) // the serving generation explains the holdout fully
	cur := m.Current()
	if reason := m.ValidateCandidate(cur, cur.Model, h); !strings.Contains(reason, "does not improve") {
		t.Fatalf("reason = %q, want the mean-residual rejection", reason)
	}
}

// TestValidateCandidateRejectsChurn: a candidate that improves the mean but
// moves the dominant cause of too many previously-attributed states — the
// serving basis with its dominant row swapped for another — is rejected for
// churn.
func TestValidateCandidateRejectsChurn(t *testing.T) {
	var origins []string
	m := testManager(t, &origins)
	h := holdout(t, m, 0.45) // attributed (below 0.5), and worse than the candidate
	cur := m.Current()
	b, err := json.Marshal(cur.Model)
	if err != nil {
		t.Fatal(err)
	}
	churned := &vn2.Model{}
	if err := json.Unmarshal(b, churned); err != nil {
		t.Fatal(err)
	}
	dom := h[0].Diagnosis.Dominant()
	if dom < 0 {
		t.Fatal("holdout state has no dominant cause")
	}
	other := (dom + 1) % churned.Rank
	rd := append([]float64(nil), churned.Psi.Row(dom)...)
	churned.Psi.SetRow(dom, append([]float64(nil), churned.Psi.Row(other)...))
	churned.Psi.SetRow(other, rd)
	if reason := m.ValidateCandidate(cur, churned, h); !strings.Contains(reason, "churn") {
		t.Fatalf("reason = %q, want the dominant-cause churn rejection", reason)
	}
}

// TestValidateCandidateAccepts: a candidate that improves the mean and keeps
// every dominant cause passes both gates.
func TestValidateCandidateAccepts(t *testing.T) {
	var origins []string
	m := testManager(t, &origins)
	h := holdout(t, m, 0.45)
	cur := m.Current()
	if reason := m.ValidateCandidate(cur, cur.Model, h); reason != "" {
		t.Fatalf("reason = %q, want acceptance", reason)
	}
}
