package sink

import (
	"sort"
	"strconv"

	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/lifecycle"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// The event taxonomy published on the bus and streamed over GET /stream.
// Every type is currently at payload schema version 1 (the Event.V field);
// payload shapes are documented in DESIGN.md "Event taxonomy".
const (
	// EvReportAccepted: a report batch (any transport) was committed.
	// Payload: {count, queue_depth}.
	EvReportAccepted = "ReportAccepted"
	// EvEpochDiagnosed: a drain diagnosed states of one epoch.
	// Payload: {epoch, states, causes} — causes maps cause name → summed
	// contribution across the epoch's diagnosed states.
	EvEpochDiagnosed = "EpochDiagnosed"
	// EvDriftStats: the monitor's rolling drift view after a drain.
	// Payload: {model_version, window, unattributed, unattributed_rate,
	// mean_residual, residual_p50, residual_p90, residual_p99, quarantine}
	// — the same key names the drift_* metrics use, minus the prefix.
	EvDriftStats = "DriftStats"
	// EvModelSwapped / EvModelRolledBack: a lifecycle generation change was
	// fully applied. Payload: store.SwapEvent {version, parent, origin, at}.
	EvModelSwapped    = "ModelSwapped"
	EvModelRolledBack = "ModelRolledBack"
	// EvDegradedEntered / EvDegradedCleared: the degraded-mode state machine
	// transitioned. Payload: {reason}.
	EvDegradedEntered = "DegradedEntered"
	EvDegradedCleared = "DegradedCleared"
	// EvSnapshotWritten: a snapshot landed on disk.
	// Payload: {wal_applied, bytes, model_version}.
	EvSnapshotWritten = "SnapshotWritten"
	// EvHandoffImported / EvHandoffReleased: a shard handoff moved node
	// ownership through this sink. Payload: {dir, nodes}.
	EvHandoffImported = "HandoffImported"
	EvHandoffReleased = "HandoffReleased"
)

type reportAcceptedEvent struct {
	Count      int `json:"count"`
	QueueDepth int `json:"queue_depth"`
}

// epochDiagnosedEvent renders an epoch's cause distribution with named
// causes (ψ column index → "psiN"), which is what the dashboard's bar chart
// keys on.
type epochDiagnosedEvent struct {
	Epoch  int                `json:"epoch"`
	States int                `json:"states"`
	Causes map[string]float64 `json:"causes"`
}

// driftEvent mirrors online.DriftStats under the stream's key names (the
// drift_* metric names without the prefix), so dashboard and /metrics
// readers speak one vocabulary.
type driftEvent struct {
	ModelVersion     uint64  `json:"model_version"`
	Window           int     `json:"window"`
	Unattributed     int     `json:"unattributed"`
	UnattributedRate float64 `json:"unattributed_rate"`
	MeanResidual     float64 `json:"mean_residual"`
	ResidualP50      float64 `json:"residual_p50"`
	ResidualP90      float64 `json:"residual_p90"`
	ResidualP99      float64 `json:"residual_p99"`
	Quarantine       int     `json:"quarantine"`
}

func driftEventOf(ds online.DriftStats) driftEvent {
	return driftEvent{
		ModelVersion:     ds.ModelVersion,
		Window:           ds.Window,
		Unattributed:     ds.WindowUnattributed,
		UnattributedRate: ds.UnattributedRate,
		MeanResidual:     ds.MeanResidual,
		ResidualP50:      ds.P50,
		ResidualP90:      ds.P90,
		ResidualP99:      ds.P99,
		Quarantine:       ds.Quarantine,
	}
}

type degradedEvent struct {
	Reason string `json:"reason"`
}

type snapshotEvent struct {
	WALApplied   uint64 `json:"wal_applied"`
	Bytes        int    `json:"bytes"`
	ModelVersion uint64 `json:"model_version"`
}

type handoffEvent struct {
	Dir   string `json:"dir"`
	Nodes int    `json:"nodes"`
}

// publish fires one versioned event into the bus. Marshal failures are
// counted by the bus; the serving path never cares.
func (s *Server) publish(typ string, data any) {
	_, _ = s.bus.Publish(typ, 1, data)
}

// publishDiagnosed turns one drain's output into stream events: one
// EpochDiagnosed per distinct epoch the drain touched (ascending), then the
// refreshed DriftStats.
func (s *Server) publishDiagnosed(out []online.Flagged) {
	seen := make(map[int]struct{}, 4)
	epochs := make([]int, 0, 4)
	for _, f := range out {
		if _, ok := seen[f.State.Epoch]; !ok {
			seen[f.State.Epoch] = struct{}{}
			epochs = append(epochs, f.State.Epoch)
		}
	}
	sort.Ints(epochs)
	for _, e := range epochs {
		ec, ok := s.mon.EpochCauses(e)
		if !ok {
			continue // already rotated out of the rolling window
		}
		s.publish(EvEpochDiagnosed, epochEvent(ec))
	}
	s.publish(EvDriftStats, driftEventOf(s.mon.DriftStats()))
}

// epochEvent converts the monitor's positional distribution into the named
// map the stream (and dashboard) carry.
func epochEvent(ec online.EpochCauses) epochDiagnosedEvent {
	causes := make(map[string]float64, len(ec.Distribution))
	for i, v := range ec.Distribution {
		if v > 0 {
			causes[causeName(i)] = v
		}
	}
	return epochDiagnosedEvent{Epoch: ec.Epoch, States: ec.States, Causes: causes}
}

// causeName labels a ψ basis column for human consumption.
func causeName(i int) string {
	return "psi" + strconv.Itoa(i)
}

// onModelSwap is the lifecycle's OnSwap hook: a fully-applied generation
// change becomes a stream event, typed by its origin.
func (s *Server) onModelSwap(ev store.SwapEvent) {
	typ := EvModelSwapped
	if ev.Origin == lifecycle.OriginRollback {
		typ = EvModelRolledBack
	}
	s.publish(typ, ev)
}
