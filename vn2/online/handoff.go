package online

import (
	"slices"

	"github.com/wsn-tools/vn2/internal/packet"
)

// NodeSlice is the portable per-node slice of a monitor's rolling state:
// everything a sink must hand to another sink when ring ownership of a
// set of nodes moves. It carries each moved node's first-differencing
// baseline, its flagged-but-undiagnosed backlog entries, and its share of
// the per-epoch cause contributions — exactly the state the fleet merge
// depends on. Cumulative Stats counters stay with the source shard: they
// are operational telemetry about where work happened, not diagnosis
// state, and moving them would double-count fleet-wide totals.
//
// Slices are in canonical order (nodes ascending, epochs ascending) so
// the same logical slice always marshals to the same bytes — which is
// what lets the handoff WAL record replay deterministically.
type NodeSlice struct {
	Nodes   []NodeState    `json:"nodes"`
	Pending []PendingState `json:"pending,omitempty"`
	Epochs  []EpochState   `json:"epochs,omitempty"`
}

// Empty reports whether the slice carries no state at all.
func (sl NodeSlice) Empty() bool {
	return len(sl.Nodes) == 0 && len(sl.Pending) == 0 && len(sl.Epochs) == 0
}

// ExportNodes returns a deep copy of the given nodes' slice of the
// monitor state without mutating anything — the export half of a shard
// handoff. Pair with DropNodes once the slice is durably accepted by the
// target shard.
func (m *Monitor) ExportNodes(nodes []packet.NodeID) NodeSlice {
	want := nodeSet(nodes)
	m.mu.Lock()
	defer m.mu.Unlock()
	sl := m.exportNodesLocked(want)
	sl.Epochs = m.exportEpochsLocked(want)
	return sl
}

// DropNodes removes the given nodes' slice from the monitor: their
// baselines, their pending flagged states, and their per-epoch
// contributions (epochs left with no contributions are deleted). The
// release half of a shard handoff; also correct for permanent
// decommissioning of nodes.
func (m *Monitor) DropNodes(nodes []packet.NodeID) {
	drop := nodeSet(nodes)
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range drop {
		delete(m.last, id)
	}
	kept := m.pending[:0]
	for _, p := range m.pending {
		if !drop[p.state.Node] {
			kept = append(kept, p)
		}
	}
	m.pending = kept
	for e, ec := range m.epochs {
		all := ec.held()
		switch kept := slices.DeleteFunc(all, func(c Contribution) bool { return drop[c.Node] }); {
		case len(kept) == 0:
			delete(m.epochs, e)
		case len(kept) != len(all):
			ec.contribs, ec.part, ec.sum = kept, nil, EpochCauses{}
		}
	}
}

// ImportNodes merges a handed-off slice into the monitor — the accept
// half of a shard handoff. Shapes are validated against the live
// detector/model before anything is touched, so a slice exported against
// an incompatible model fails atomically with ErrBadState.
//
// A baseline for a node the monitor already tracks is only overwritten
// when the imported report is at least as new, preserving the ingest
// path's epoch monotonicity; contributions always append, because ring
// ownership guarantees the source and target never diagnosed the same
// (node, epoch) state.
func (m *Monitor) ImportNodes(sl NodeSlice) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.validateSliceLocked(sl, m.epochs); err != nil {
		return err
	}
	m.importLocked(sl)
	return nil
}

// ValidateSlice checks a handed-off slice against the live detector and
// model without touching any state — the sink runs this BEFORE journaling
// the handoff record, so a slice that could never import does not poison
// the WAL with a record that would fail again on every replay.
func (m *Monitor) ValidateSlice(sl NodeSlice) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.validateSliceLocked(sl, m.epochs)
}

// EpochStates exports the rolling per-epoch contributions in canonical
// order (epochs ascending, contributions node-ascending) WITHOUT the
// rest of the monitor state — the fleet aggregator's merge input. Unlike
// Snapshot, the distributions are not pre-summed: the fleet merge needs
// the raw contributions so it can re-sum the union across shards in one
// canonical node order and stay bit-identical to a single sink (float
// addition is not associative, so summing pre-summed shard totals would
// not be).
func (m *Monitor) EpochStates() []EpochState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exportEpochsLocked(nil)
}

// Rank returns the serving model's root-cause count — the Distribution
// length of every EpochCauses this monitor produces.
func (m *Monitor) Rank() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.model.Rank
}

func nodeSet(nodes []packet.NodeID) map[packet.NodeID]bool {
	s := make(map[packet.NodeID]bool, len(nodes))
	for _, n := range nodes {
		s[n] = true
	}
	return s
}
