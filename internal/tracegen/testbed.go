package tracegen

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/radio"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/wsn"
)

// Scenario selects the spatial pattern of testbed node removal (Fig. 5).
type Scenario int

const (
	// ScenarioLocal removes nodes from a contiguous grid region
	// (Fig. 5(h): harder to represent).
	ScenarioLocal Scenario = iota + 1
	// ScenarioExpansive removes nodes spread across the whole grid
	// (Fig. 5(i): exceptions are distinct and detected more accurately).
	ScenarioExpansive
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case ScenarioLocal:
		return "local"
	case ScenarioExpansive:
		return "expansive"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Testbed layout constants from Section V-A: 45 TelosB nodes in a 9×5
// grid, three packets every three minutes, a two-hour run.
const (
	testbedRows     = 9
	testbedCols     = 5
	testbedSpacing  = 10.0
	testbedInterval = 3 * time.Minute
	// TestbedEpochs is the full two-hour run.
	TestbedEpochs = 40
)

// TestbedOptions parametrizes a testbed run.
type TestbedOptions struct {
	// Seed drives everything.
	Seed int64
	// Scenario selects local vs expansive removal. Defaults to
	// ScenarioExpansive.
	Scenario Scenario
	// Epochs to simulate; defaults to TestbedEpochs (2 hours at 3 min).
	Epochs int
}

func (o TestbedOptions) withDefaults() TestbedOptions {
	if o.Scenario == 0 {
		o.Scenario = ScenarioExpansive
	}
	if o.Epochs == 0 {
		o.Epochs = TestbedEpochs
	}
	return o
}

// Testbed generates the Section V-A experiment: every ~10 minutes remove
// 5–7 nodes (node-failure events) and put back some previously removed
// nodes (node-reboot events), in the configured spatial pattern.
func Testbed(opts TestbedOptions) (*Result, error) {
	opts = opts.withDefaults()
	topo, err := wsn.GridTopology(testbedRows, testbedCols, testbedSpacing)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	nodes := len(topo) - 1
	n, err := wsn.New(wsn.Config{
		Seed:            opts.Seed,
		Topology:        topo,
		ReportInterval:  testbedInterval,
		PacketsPerEpoch: 3, // C1, C2, C3 every three minutes
		Radio:           radio.Config{TxPower: -25, Seed: opts.Seed + 21},
		Env:             env.Config{Seed: opts.Seed + 22, FieldSize: 100, InterferenceRate: 0.01},
	})
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}

	res := &Result{
		Dataset:       trace.NewDataset(),
		TotalNodes:    nodes,
		EpochInterval: testbedInterval,
	}
	rng := rand.New(rand.NewSource(opts.Seed + 300))
	var removed []packet.NodeID

	hook := func(epoch int) error {
		// Events every ~10 minutes (every 3rd epoch) after a short warm-up
		// for the tree to form. Removal epochs and put-back epochs
		// alternate so the two ground-truth event types occupy disjoint
		// epochs and their root-cause distributions are separable
		// (Fig. 5g).
		if epoch < 4 || (epoch-4)%3 != 0 {
			return nil
		}
		phase := (epoch - 4) / 3
		if phase%2 == 1 {
			// Put back roughly half of the currently removed nodes.
			putBack := (len(removed) + 1) / 2
			for i := 0; i < putBack; i++ {
				id := removed[0]
				removed = removed[1:]
				if err := n.RebootNode(id); err != nil {
					return err
				}
			}
			return nil
		}
		// Remove 5–7 fresh victims.
		count := 5 + rng.Intn(3)
		victims := pickVictims(rng, opts.Scenario, nodes, count, removed)
		for _, id := range victims {
			if err := n.FailNode(id); err != nil {
				return err
			}
			removed = append(removed, id)
		}
		return nil
	}
	if err := collect(n, opts.Epochs, res, hook); err != nil {
		return nil, err
	}
	return res, nil
}

// pickVictims chooses removal victims in the requested spatial pattern.
// Node IDs are 1..nodes laid out row-major on the grid.
func pickVictims(rng *rand.Rand, sc Scenario, nodes, count int, alreadyDown []packet.NodeID) []packet.NodeID {
	down := make(map[packet.NodeID]bool, len(alreadyDown))
	for _, id := range alreadyDown {
		down[id] = true
	}
	var out []packet.NodeID
	switch sc {
	case ScenarioLocal:
		// A contiguous run of IDs is a contiguous grid block (row-major
		// layout), anchored at a random start.
		start := 1 + rng.Intn(nodes)
		for i := 0; len(out) < count && i < nodes; i++ {
			id := packet.NodeID((start+i-1)%nodes + 1)
			if !down[id] {
				out = append(out, id)
				down[id] = true
			}
		}
	default: // ScenarioExpansive
		// Stride sampling spreads victims across the grid.
		stride := nodes/count + 1
		start := 1 + rng.Intn(nodes)
		for i := 0; len(out) < count && i < nodes; i++ {
			id := packet.NodeID((start+i*stride-1)%nodes + 1)
			if !down[id] {
				out = append(out, id)
				down[id] = true
			}
		}
		// Fill any shortfall (collisions with already-down nodes) randomly.
		for len(out) < count {
			id := packet.NodeID(1 + rng.Intn(nodes))
			if !down[id] {
				out = append(out, id)
				down[id] = true
			}
		}
	}
	return out
}
