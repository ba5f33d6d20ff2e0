package lifecycle

import (
	"context"
	"fmt"
	"os"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
)

// runRetrain is the shadow retrain: quarantine + held-out window through
// vn2.Update under a deadline, validation gate, then the hot-swap. It never
// runs on the serving path; a panic is contained, counted, and backed off.
func (m *Manager) runRetrain() {
	defer m.retraining.Store(false)
	defer func() {
		if r := recover(); r != nil {
			m.RetrainFails.Add(1)
			m.retrainBackoff()
			fmt.Fprintf(os.Stderr, "vn2 serve: shadow retrain panicked: %v\n", r)
		}
	}()

	cur := m.Current()
	holdout := m.mon.RecentWindow()
	if len(holdout) < holdoutMin {
		// Not enough evidence to judge a candidate; wait for more stream.
		m.retrainBackoff()
		return
	}
	quar := m.mon.Quarantine()
	// The training window: the unexplained states (what the new basis must
	// learn) plus the held-out recent window (what it must not forget).
	window := make([]trace.StateVector, 0, len(quar)+len(holdout))
	window = append(window, quar...)
	for _, f := range holdout {
		window = append(window, f.State)
	}

	cand, err := m.trainCandidate(cur, window)
	if err != nil {
		m.RetrainFails.Add(1)
		m.retrainBackoff()
		fmt.Fprintln(os.Stderr, "vn2 serve: shadow retrain failed:", err)
		return
	}
	if reason := m.ValidateCandidate(cur, cand, holdout); reason != "" {
		m.CandRejects.Add(1)
		m.retrainBackoff()
		fmt.Fprintf(os.Stderr, "vn2 serve: candidate v%d rejected: %s\n", cur.Version+1, reason)
		return
	}
	m.mu.Lock()
	m.rejectN = 0
	m.mu.Unlock()

	if err := m.swapTo(cand, cur.Version, OriginUpdate); err != nil {
		m.RetrainFails.Add(1)
		m.retrainBackoff()
		fmt.Fprintln(os.Stderr, "vn2 serve: hot-swap failed:", err)
	}
}

// trainCandidate runs vn2.Update once under the retrain deadline: Update is
// deterministic, so a second attempt could only repeat the first one's
// error. The solve itself cannot be interrupted, so the deadline races it in
// a goroutine and an expired attempt's result is dropped, even one that was
// ready by the time the race is read.
func (m *Manager) trainCandidate(cur *Set, window []trace.StateVector) (*vn2.Model, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.RetrainTimeout)
	defer cancel()
	type result struct {
		m   *vn2.Model
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- result{err: fmt.Errorf("update panicked: %v", r)}
			}
		}()
		cm, _, err := cur.Model.Update(window, vn2.TrainConfig{CompressAllStates: true})
		ch <- result{m: cm, err: err}
	}()
	select {
	case r := <-ch:
		if ctx.Err() == nil {
			return r.m, r.err
		}
	case <-ctx.Done():
	}
	return nil, ctx.Err()
}

// candConsistencyMin is the fraction of previously-attributed holdout states
// whose dominant cause the candidate must preserve: the no-silent-label-churn
// gate. Update warm-starts from the current basis, so cause indices are
// comparable across generations.
const candConsistencyMin = 0.7

// ValidateCandidate replays the held-out window through the candidate and
// accepts only if the mean relative residual improves AND
// previously-attributed diagnoses keep their dominant cause. Returns the
// rejection reason, or "" on acceptance.
func (m *Manager) ValidateCandidate(cur *Set, cand *vn2.Model, holdout []online.Flagged) string {
	states := make([]trace.StateVector, len(holdout))
	for i, f := range holdout {
		states[i] = f.State
	}
	diags, err := cand.DiagnoseBatch(states, vn2.DiagnoseConfig{Workers: m.mon.Workers()})
	if err != nil {
		return fmt.Sprintf("holdout replay failed: %v", err)
	}
	var curSum, candSum float64
	attributed, consistent := 0, 0
	for i, f := range holdout {
		if f.Diagnosis == nil {
			continue
		}
		curRel := online.RelResidual(cur.Model, f.State.Delta, f.Diagnosis.Residual)
		candRel := online.RelResidual(cand, f.State.Delta, diags[i].Residual)
		curSum += curRel
		candSum += candRel
		if dom := f.Diagnosis.Dominant(); dom >= 0 && curRel < online.ResidualThreshold {
			attributed++
			if diags[i].Dominant() == dom {
				consistent++
			}
		}
	}
	n := float64(len(holdout))
	curMean, candMean := curSum/n, candSum/n
	if candMean >= curMean {
		return fmt.Sprintf("mean holdout residual %.4f does not improve on %.4f", candMean, curMean)
	}
	if attributed > 0 && float64(consistent) < candConsistencyMin*float64(attributed) {
		return fmt.Sprintf("dominant-cause churn: only %d/%d previously-attributed states kept their cause (need %.0f%%)",
			consistent, attributed, candConsistencyMin*100)
	}
	return ""
}
