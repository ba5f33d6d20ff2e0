package wsn

import "testing"

// stepAllocCeiling is the per-epoch allocation budget at CitySee scale (286
// nodes, one report bundle per node). The seed measured ~277 allocs/op —
// report assembly, seen-map growth, and queue churn; every phase loop and
// the per-pass scratch are reused, so steady-state stepping stays under it.
const stepAllocCeiling = 277

// TestStepAllocCeiling asserts the steady-state allocation budget of Step at
// CitySee scale — the regression guard for per-pass allocations (a closure
// or a scratch slice per transmit pass once cost ~5000 an epoch).
func TestStepAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("286-node epochs are too slow for -short")
	}
	topo, err := RandomTopology(286, 1200, 17)
	if err != nil {
		t.Fatal(err)
	}
	// The subtest keeps the name it had when Step took a worker count: 0
	// was the sequential path, the one Step has now.
	t.Run("workers0", func(t *testing.T) {
		n, err := New(Config{Seed: 17, Topology: topo, PacketsPerEpoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(3); err != nil { // warm the routing tree
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := n.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > stepAllocCeiling {
			t.Errorf("%.0f allocs per epoch, budget %d", allocs, stepAllocCeiling)
		}
	})
}
