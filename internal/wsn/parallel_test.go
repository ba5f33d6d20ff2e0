package wsn

import (
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/par"
)

// run45 simulates a 45-node grid (the testbed's size) for the given epoch
// count, returning epoch results and the final node snapshots.
func run45(t *testing.T, epochs int) ([]*EpochResult, []NodeSnapshot) {
	t.Helper()
	topo, err := GridTopology(9, 5, 12)
	if err != nil {
		t.Errorf("GridTopology: %v", err)
		return nil, nil
	}
	n, err := New(Config{Seed: 42, Topology: topo, ReportInterval: 3 * time.Minute})
	if err != nil {
		t.Errorf("New: %v", err)
		return nil, nil
	}
	res, err := n.Run(epochs)
	if err != nil {
		t.Errorf("Run: %v", err)
	}
	return res, n.Snapshots()
}

// TestStepBitIdenticalAcrossWorkers: simulations stepped on several
// goroutines at once share no state — the radio and environment draws are
// keyed, not streamed — so each equals a simulation run alone.
func TestStepBitIdenticalAcrossWorkers(t *testing.T) {
	const epochs = 6
	wantRes, wantSnaps := run45(t, epochs)
	for _, w := range []int{2, 4, -1} {
		got := make([]struct {
			res   []*EpochResult
			snaps []NodeSnapshot
		}, par.Workers(w))
		_ = par.Run(len(got), w, func(_, start, end int) error {
			for k := start; k < end; k++ {
				got[k].res, got[k].snaps = run45(t, epochs)
			}
			return nil
		})
		for _, g := range got {
			for e := range wantRes {
				a, b := wantRes[e], g.res[e]
				if a.Generated != b.Generated || a.Delivered != b.Delivered || a.PRR != b.PRR {
					t.Fatalf("workers=%d epoch %d: %+v vs alone %+v", w, e+1, b, a)
				}
				if len(a.Reports) != len(b.Reports) {
					t.Fatalf("workers=%d epoch %d: %d reports, want %d", w, e+1, len(b.Reports), len(a.Reports))
				}
				for j := range a.Reports {
					va, err := a.Reports[j].Vector()
					if err != nil {
						t.Fatalf("Vector: %v", err)
					}
					vb, err := b.Reports[j].Vector()
					if err != nil {
						t.Fatalf("Vector: %v", err)
					}
					for k := range va {
						if va[k] != vb[k] {
							t.Fatalf("workers=%d epoch %d node %d metric %d: %v vs %v",
								w, e+1, b.Reports[j].C1.Node, k, vb[k], va[k])
						}
					}
				}
			}
			for i := range wantSnaps {
				if g.snaps[i] != wantSnaps[i] {
					t.Fatalf("workers=%d: node %d final state differs:\n got %+v\nwant %+v",
						w, i, g.snaps[i], wantSnaps[i])
				}
			}
		}
	}
}
