package online

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
)

// Contribution is one diagnosed state's share of an epoch's cause
// distribution, kept per node so the distribution can be re-summed in a
// canonical order (see epochAcc).
type Contribution struct {
	Node   packet.NodeID     `json:"node"`
	Causes []vn2.RankedCause `json:"causes"`
}

// NodeState is one node's last ingested report — the first-differencing
// slot.
type NodeState struct {
	Node   packet.NodeID `json:"node"`
	Epoch  int           `json:"epoch"`
	Vector []float64     `json:"vector"`
}

// PendingState is one flagged state awaiting diagnosis.
type PendingState struct {
	State trace.StateVector `json:"state"`
	Score float64           `json:"score"`
}

// EpochState is one epoch's diagnosed contributions.
type EpochState struct {
	Epoch    int            `json:"epoch"`
	Contribs []Contribution `json:"contribs"`
}

// ResidualSample is one drift-window entry in serializable form.
type ResidualSample struct {
	Rel          float64 `json:"rel"`
	Unattributed bool    `json:"unattributed,omitempty"`
}

// MonitorState is the monitor's complete rolling state in serializable
// form: counters, every node's diff slot, the flagged backlog, the
// per-epoch contributions, and the recent ring. Together with a model and
// detector it reconstructs a monitor exactly; the serve subcommand embeds
// it in snapshots so a restart resumes mid-stream instead of re-warming,
// and a WAL replay on top recovers everything past the snapshot.
type MonitorState struct {
	Stats   Stats          `json:"stats"`
	Nodes   []NodeState    `json:"nodes"`
	Pending []PendingState `json:"pending,omitempty"`
	Epochs  []EpochState   `json:"epochs,omitempty"`
	Recent  []Flagged      `json:"recent,omitempty"`
	// ModelVersion is the serving model's generation at export time; 0 (a
	// pre-lifecycle state) keeps the restoring monitor's configured version.
	ModelVersion uint64 `json:"model_version,omitempty"`
	// Quarantine and Residuals carry the drift window: the unattributed
	// states held for retraining and the rolling relative-residual samples.
	Quarantine []trace.StateVector `json:"quarantine,omitempty"`
	Residuals  []ResidualSample    `json:"residuals,omitempty"`
}

// State exports a consistent deep copy of the monitor's rolling state, with
// every slice in a canonical (node- or epoch-ascending) order so the same
// logical state always marshals to the same bytes.
func (m *Monitor) State() MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stateLocked()
	st.Epochs = m.exportEpochsLocked(nil)
	return st
}

// stateLocked is State without the epochs. Caller holds mu.
func (m *Monitor) stateLocked() MonitorState {
	sl := m.exportNodesLocked(nil)
	st := MonitorState{Stats: m.stats, Nodes: sl.Nodes, Pending: sl.Pending}
	st.Recent = make([]Flagged, len(m.recent))
	for i, f := range m.recent {
		st.Recent[i] = copyFlagged(f)
	}
	st.ModelVersion = m.version
	if len(m.quar) > 0 {
		st.Quarantine = make([]trace.StateVector, len(m.quar))
		for i, s := range m.quar {
			st.Quarantine[i] = copyState(s)
		}
	}
	if len(m.residuals) > 0 {
		st.Residuals = make([]ResidualSample, len(m.residuals))
		for i, s := range m.residuals {
			st.Residuals[i] = ResidualSample{Rel: s.rel, Unattributed: s.unattributed}
		}
	}
	return st
}

// Capture is what a snapshot takes from the monitor, all of one instant;
// State.Epochs is nil, EpochParts carries them rendered (Monitor.EpochParts).
type Capture struct {
	State      MonitorState
	Summary    Summary
	EpochParts [][]byte
}

// Capture takes State, Snapshot and EpochParts under ONE acquisition of mu.
// Taken apart, a drain between them moves states from Pending into the
// epochs: a file holding both would diagnose them a second time on restore.
// It also waits out a running drain (drainMu, then mu — Drain's own order):
// the states a drain is solving are in neither place, and a file cut then
// would restore without them.
func (m *Monitor) Capture() (Capture, error) {
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	parts, err := m.partsLocked()
	if err != nil {
		return Capture{}, err
	}
	return Capture{State: m.stateLocked(), Summary: m.summaryLocked(), EpochParts: parts}, nil
}

// EpochParts returns what EpochStates returns, as JSON — one element per
// retained epoch, ascending, each byte for byte json.Marshal of its
// EpochState — and the model's rank. An epoch is rendered on the first read
// after its contributions changed and the bytes are shared by all readers
// (who must not modify them) until they change again: a read costs the
// epochs drained since the last one, not the window.
func (m *Monitor) EpochParts() (rank int, parts [][]byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	parts, err = m.partsLocked()
	return m.model.Rank, parts, err
}

// EpochsRendered counts the epochs EpochParts and Capture had to render.
func (m *Monitor) EpochsRendered() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rendered
}

// partsLocked collects the epochs' rendered parts, ascending, rendering the
// missing ones and settling all but the newest. Caller holds mu.
func (m *Monitor) partsLocked() ([][]byte, error) {
	accs := make([]*epochAcc, 0, len(m.epochs))
	for _, ec := range m.epochs {
		accs = append(accs, ec)
	}
	slices.SortFunc(accs, func(a, b *epochAcc) int { return cmp.Compare(a.epoch, b.epoch) })
	parts := make([][]byte, len(accs))
	for i, ec := range accs {
		if ec.part == nil {
			es := ec.export(nil)
			b, err := json.Marshal(es)
			if err != nil {
				return nil, fmt.Errorf("render epoch %d: %w", ec.epoch, err)
			}
			ec.part, ec.sum = b, SumEpoch(ec.epoch, m.model.Rank, es.Contribs)
			m.rendered++
		}
		if ec.epoch < m.stats.LastEpoch {
			ec.contribs = nil
		}
		parts[i] = ec.part
	}
	return parts, nil
}

func copyState(s trace.StateVector) trace.StateVector {
	s.Delta = append([]float64(nil), s.Delta...)
	return s
}

// exportNodesLocked deep-copies the per-node part of the rolling state but
// the epochs, in canonical order: baselines node-ascending, the flagged
// backlog in arrival order. A nil want keeps every node; otherwise only the
// nodes in want. Caller holds mu.
func (m *Monitor) exportNodesLocked(want map[packet.NodeID]bool) NodeSlice {
	var sl NodeSlice
	if want == nil {
		// A full export sizes its slices once, and marshals an empty
		// monitor's nodes as [] where an empty handoff slice says null.
		sl.Nodes = make([]NodeState, 0, len(m.last))
		sl.Pending = make([]PendingState, 0, len(m.pending))
	}
	for id, lr := range m.last {
		if want == nil || want[id] {
			sl.Nodes = append(sl.Nodes, NodeState{Node: id, Epoch: lr.epoch, Vector: append([]float64(nil), lr.vector...)})
		}
	}
	sort.Slice(sl.Nodes, func(i, j int) bool { return sl.Nodes[i].Node < sl.Nodes[j].Node })
	for _, p := range m.pending {
		if want == nil || want[p.state.Node] {
			sl.Pending = append(sl.Pending, PendingState{State: copyState(p.state), Score: p.score})
		}
	}
	return sl
}

// exportEpochsLocked deep-copies the per-epoch contributions, epochs
// ascending and each epoch's contributions node-ascending. A nil want keeps
// every contribution and consults no node set; under a filter, epochs left
// with no contribution are omitted. Caller holds mu.
func (m *Monitor) exportEpochsLocked(want map[packet.NodeID]bool) []EpochState {
	out := make([]EpochState, 0, len(m.epochs))
	for _, ec := range m.epochs {
		if es := ec.export(want); want == nil || len(es.Contribs) > 0 {
			out = append(out, es)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// export deep-copies one epoch's contributions (those of the nodes in want;
// all of them when want is nil), node-ascending. It is what both the struct
// export and the rendered part are made from, so the two cannot disagree.
func (ec *epochAcc) export(want map[packet.NodeID]bool) EpochState {
	es := EpochState{Epoch: ec.epoch, Contribs: make([]Contribution, 0, len(ec.contribs))}
	for _, c := range ec.held() {
		if want == nil || want[c.Node] {
			es.Contribs = append(es.Contribs, Contribution{Node: c.Node, Causes: append([]vn2.RankedCause(nil), c.Causes...)})
		}
	}
	sortByNode(es.Contribs)
	return es
}

// sortByNode sorts in place, stably, so a decoded epoch re-sorts exactly.
func sortByNode(cs []Contribution) []Contribution {
	slices.SortStableFunc(cs, func(a, b Contribution) int { return cmp.Compare(a.Node, b.Node) })
	return cs
}

func (ec *epochAcc) settled() bool { return ec.contribs == nil && ec.part != nil }

// held is the epoch's contributions, a settled one's decoded from its part:
// exactly, as JSON holds shortest round-trip floats and integer ids.
func (ec *epochAcc) held() []Contribution {
	var es EpochState
	if !ec.settled() {
		return ec.contribs
	} else if err := json.Unmarshal(ec.part, &es); err != nil {
		panic(fmt.Sprintf("online: epoch %d: rendered part does not decode: %v", ec.epoch, err))
	}
	return es.Contribs
}

// open readies an epoch for a change to its contributions.
func (ec *epochAcc) open() { ec.contribs, ec.part, ec.sum = ec.held(), nil, EpochCauses{} }

// validateSliceLocked checks the per-node part of an incoming state — a
// snapshot's or a handoff's — against the live detector and model: vector
// lengths, finite baselines, pending states whose norm does not overflow,
// cause indices within the model's rank, non-negative finite strengths, and
// epochs whose SumEpoch distribution stays finite once the slice's
// contributions join those onto already holds (nil for Restore, which
// replaces them). Caller holds mu.
func (m *Monitor) validateSliceLocked(sl NodeSlice, onto map[int]*epochAcc) error {
	metrics := m.det.Metrics()
	rank := m.model.Rank
	for _, ns := range sl.Nodes {
		if len(ns.Vector) != metrics {
			return fmt.Errorf("%w: node %d vector has %d metrics, want %d",
				ErrBadState, ns.Node, len(ns.Vector), metrics)
		}
		if k := firstNonFinite(ns.Vector); k >= 0 {
			return fmt.Errorf("%w: node %d metric %d non-finite", ErrBadState, ns.Node, k)
		}
	}
	for _, p := range sl.Pending {
		if len(p.State.Delta) != metrics {
			return fmt.Errorf("%w: pending state node %d delta has %d metrics, want %d",
				ErrBadState, p.State.Node, len(p.State.Delta), metrics)
		}
		if overflows(m.model, p.State.Delta) {
			return fmt.Errorf("%w: pending state node %d epoch %d has a non-finite normalized norm",
				ErrBadState, p.State.Node, p.State.Epoch)
		}
	}
	merged := make(map[int][]Contribution)
	for _, es := range sl.Epochs {
		for _, c := range es.Contribs {
			for _, rc := range c.Causes {
				if rc.Cause < 0 || rc.Cause >= rank || !(rc.Strength >= 0) || math.IsInf(rc.Strength, 1) {
					return fmt.Errorf("%w: epoch %d node %d cites cause %d (model rank %d) at strength %v",
						ErrBadState, es.Epoch, c.Node, rc.Cause, rank, rc.Strength)
				}
			}
		}
		if _, ok := merged[es.Epoch]; !ok && onto[es.Epoch] != nil {
			merged[es.Epoch] = slices.Clone(onto[es.Epoch].held())
		}
		merged[es.Epoch] = append(merged[es.Epoch], es.Contribs...)
	}
	for _, es := range sl.Epochs {
		if k := firstNonFinite(SumEpoch(es.Epoch, rank, merged[es.Epoch]).Distribution); k >= 0 {
			return fmt.Errorf("%w: epoch %d cause %d sums to a non-finite strength", ErrBadState, es.Epoch, k)
		}
	}
	return nil
}

// importLocked merges a validated slice into the monitor under the rules
// ImportNodes documents; Restore runs it over freshly emptied maps, where
// merging is replacing. Caller holds mu.
func (m *Monitor) importLocked(sl NodeSlice) {
	m.gen++
	for _, ns := range sl.Nodes {
		if lr, ok := m.last[ns.Node]; ok && lr.epoch > ns.Epoch {
			continue
		}
		m.last[ns.Node] = lastReport{epoch: ns.Epoch, vector: append([]float64(nil), ns.Vector...)}
		m.stats.LastEpoch = max(m.stats.LastEpoch, ns.Epoch)
	}
	for _, p := range sl.Pending {
		m.pending = append(m.pending, pendingState{state: copyState(p.State), score: p.Score})
	}
	for _, es := range sl.Epochs {
		ec := m.epochs[es.Epoch]
		if ec == nil {
			ec = &epochAcc{epoch: es.Epoch}
			m.epochs[es.Epoch] = ec
		}
		ec.open()
		for _, c := range es.Contribs {
			ec.contribs = append(ec.contribs, Contribution{Node: c.Node, Causes: append([]vn2.RankedCause(nil), c.Causes...)})
		}
		m.stats.LastEpoch = max(m.stats.LastEpoch, es.Epoch)
	}
}

// Restore loads an exported state into a freshly constructed monitor,
// replacing whatever it held. Vector lengths are validated against the
// detector and diagnosis shapes against the model's rank, so a snapshot
// whose monitor state disagrees with the model/detector it is restored
// against fails with a typed ErrBadState instead of corrupting the stream
// (the serve path surfaces that as a snapshot/model mismatch).
func (m *Monitor) Restore(st MonitorState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sl := NodeSlice{Nodes: st.Nodes, Pending: st.Pending, Epochs: st.Epochs}
	if err := m.validateSliceLocked(sl, nil); err != nil {
		return err
	}
	metrics := m.det.Metrics()
	rank := m.model.Rank
	for _, s := range st.Quarantine {
		if len(s.Delta) != metrics {
			return fmt.Errorf("%w: quarantined state node %d delta has %d metrics, want %d",
				ErrBadState, s.Node, len(s.Delta), metrics)
		}
	}
	for _, f := range st.Recent {
		if len(f.State.Delta) != metrics {
			return fmt.Errorf("%w: recent state node %d delta has %d metrics, want %d",
				ErrBadState, f.State.Node, len(f.State.Delta), metrics)
		}
		if f.Diagnosis != nil && len(f.Diagnosis.Weights) != rank {
			return fmt.Errorf("%w: recent diagnosis for node %d has %d weights, model rank is %d",
				ErrBadState, f.State.Node, len(f.Diagnosis.Weights), rank)
		}
	}
	m.stats = st.Stats
	m.last = make(map[packet.NodeID]lastReport, len(st.Nodes))
	m.pending = nil
	m.epochs = make(map[int]*epochAcc, len(st.Epochs))
	m.importLocked(sl)
	m.recent = make([]Flagged, len(st.Recent))
	for i, f := range st.Recent {
		m.recent[i] = copyFlagged(f)
	}
	if st.ModelVersion != 0 {
		m.version = st.ModelVersion
	}
	m.quar = nil
	for _, s := range st.Quarantine {
		m.quar = append(m.quar, copyState(s))
	}
	m.residuals = nil
	for _, s := range st.Residuals {
		m.residuals = append(m.residuals, resSample{rel: s.Rel, unattributed: s.Unattributed})
	}
	return nil
}
