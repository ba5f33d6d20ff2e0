// Package online turns the batch VN2 pipeline into a streaming sink-side
// monitor: per-node reports are ingested one at a time, first-differenced
// against the node's previous report into state vectors, screened by a
// frozen trace.Detector in O(M), and the flagged states are diagnosed in
// parallel batches against the trained model — the "new network state
// coming up" loop of the paper, without re-running batch detection over a
// growing window.
//
// Ingest is two steps. Stage classifies a batch and solves its flagged
// states without changing what a reader sees; Apply makes it visible under
// one lock. Drain then folds the backlog into the per-epoch distributions,
// solving only what Stage did not. A sink stages a batch while its WAL
// record is being fsynced and applies it once durable, so the solver's
// time overlaps the disk's.
package online

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
)

// Errors returned by the monitor.
var (
	// ErrStaleReport reports a record whose epoch is not after the node's
	// last ingested report.
	ErrStaleReport = errors.New("online: report epoch not after previous report")
	// ErrBacklog reports that the flagged-state buffer is full; the state
	// was dropped and the caller should drain (or shed load).
	ErrBacklog = errors.New("online: flagged-state backlog full")
	// ErrBadConfig reports an unusable monitor configuration.
	ErrBadConfig = errors.New("online: bad monitor configuration")
	// ErrNonFinite reports a record carrying NaN or ±Inf metric values;
	// such reports are rejected at the boundary before they can poison a
	// state vector.
	ErrNonFinite = errors.New("online: non-finite metric value")
	// ErrBadState reports an unusable MonitorState passed to Restore.
	ErrBadState = errors.New("online: bad monitor state")
)

// Note on duplicates: an exact duplicate of the node's last report (same
// epoch, bit-identical vector — what a retransmitting measurement channel
// produces) is deduplicated silently: Ingest returns a nil error with
// Observation.Duplicate set and counts it in Stats.Duplicates. A same-epoch
// report with a DIFFERENT vector is a conflict and stays ErrStaleReport.

// ResidualThreshold is the relative-residual cutoff at or above which a
// diagnosed exception counts as unattributed (the basis explains too little
// of it) and enters the quarantine buffer. Relative residual is ‖s − wΨ‖/‖s‖
// in the model's normalized space: 0 = fully explained, 1 = not explained at
// all. The lifecycle judges drift and candidates against the same cutoff.
const ResidualThreshold = 0.5

// DefaultMaxPending is Config.MaxPending's default.
const DefaultMaxPending = 4096

// The monitor's fixed ring bounds. maxRecent bounds the kept ring of most
// recent diagnosed states (the serve path's /diagnosis detail view);
// quarantineSize the buffer of unattributed exception states kept for the
// next shadow retrain, whose oldest are evicted when it is full;
// residualWindow the rolling sample window behind DriftStats' residual
// quantiles and unattributed rate.
const (
	maxRecent      = 128
	quarantineSize = 512
	residualWindow = 256
)

// Config assembles a Monitor.
type Config struct {
	// Model is the trained representative matrix used to diagnose flagged
	// states. Required.
	Model *vn2.Model
	// Detector is the frozen exception detector that screens incoming
	// states. Required; its metric count must match the model's.
	Detector *trace.Detector
	// History bounds the rolling per-epoch cause-distribution window, in
	// epochs. Epochs older than the newest seen epoch minus History are
	// pruned. Defaults to 64.
	History int
	// MaxPending bounds flagged states awaiting diagnosis; an Ingest that
	// flags a state while the buffer is full drops it and returns
	// ErrBacklog. Defaults to DefaultMaxPending.
	MaxPending int
	// Workers bounds the goroutines a large drain's NNLS solves fan out to
	// (nnls.SolveBatchInto): 0 uses all cores, otherwise as
	// vn2.DiagnoseConfig.Workers. Results are identical for any value.
	Workers int
	// ModelVersion seeds the monitor's model generation counter; 0 means 1.
	// SwapModel advances it.
	ModelVersion uint64
}

func (c Config) withDefaults() Config {
	if c.History == 0 {
		c.History = 64
	}
	if c.MaxPending == 0 {
		c.MaxPending = DefaultMaxPending
	}
	if c.Workers == 0 {
		c.Workers = -1
	}
	if c.ModelVersion == 0 {
		c.ModelVersion = 1
	}
	return c
}

// Observation is the outcome of ingesting one report.
type Observation struct {
	Node  packet.NodeID `json:"node"`
	Epoch int           `json:"epoch"`
	// First marks a node's first report: no state can be derived yet.
	First bool `json:"first,omitempty"`
	// Duplicate marks an exact retransmission of the node's last report,
	// absorbed without deriving a state.
	Duplicate bool `json:"duplicate,omitempty"`
	// Gap is the epochs since the node's previous report (1 = consecutive);
	// 0 on a first report.
	Gap int `json:"gap,omitempty"`
	// Score is the normalized deviation ε/RefMax of the derived state.
	Score float64 `json:"score"`
	// Flagged marks the state as an exception awaiting diagnosis.
	Flagged bool `json:"flagged,omitempty"`
}

// Flagged is one exception state with its diagnosis, produced by Drain.
type Flagged struct {
	State trace.StateVector `json:"state"`
	// Score is the detector's normalized deviation that flagged the state.
	Score float64 `json:"score"`
	// Diagnosis is the NNLS projection onto the model's root causes.
	Diagnosis *vn2.Diagnosis `json:"diagnosis"`
}

// EpochCauses is the rolling per-epoch root-cause distribution.
type EpochCauses struct {
	Epoch int `json:"epoch"`
	// States is how many flagged states of this epoch were diagnosed.
	States int `json:"states"`
	// Distribution is the per-cause total strength (length Rank).
	Distribution []float64 `json:"distribution"`
}

// Stats counts what the monitor has seen.
type Stats struct {
	// Reports is every record offered to Ingest (including rejects).
	Reports uint64 `json:"reports"`
	// FirstReports is how many were a node's first (no state derived).
	FirstReports uint64 `json:"first_reports"`
	// Warmed counts records primed through Warm.
	Warmed uint64 `json:"warmed"`
	// Stale counts rejected out-of-order records.
	Stale uint64 `json:"stale"`
	// Duplicates counts exact retransmissions absorbed by dedup.
	Duplicates uint64 `json:"duplicates"`
	// Invalid counts rejected malformed records (wrong length, NaN/±Inf)
	// and flagged states whose normalized norm is not finite.
	Invalid uint64 `json:"invalid"`
	// Normal and Flagged partition the derived states by the detector.
	Normal  uint64 `json:"normal"`
	Flagged uint64 `json:"flagged"`
	// Dropped counts flagged states shed because the backlog was full.
	Dropped uint64 `json:"dropped"`
	// Diagnosed counts flagged states that went through a drain.
	Diagnosed uint64 `json:"diagnosed"`
	// Drains counts non-empty Drain calls.
	Drains uint64 `json:"drains"`
	// GapReports counts states derived across a reporting gap (Gap > 1) —
	// the sink-side trace of lost reports.
	GapReports uint64 `json:"gap_reports"`
	// MaxGap is the largest reporting gap seen.
	MaxGap int `json:"max_gap"`
	// LastEpoch is the newest epoch seen across all nodes.
	LastEpoch int `json:"last_epoch"`
	// Unattributed counts diagnosed exceptions whose relative residual met
	// ResidualThreshold (or whose diagnosis ranked no cause at all): states
	// the current basis could not explain. This is the drift signal.
	Unattributed uint64 `json:"unattributed"`
	// Quarantined counts unattributed states admitted to the quarantine
	// buffer; QuarantineShed counts oldest entries evicted to make room.
	Quarantined    uint64 `json:"quarantined"`
	QuarantineShed uint64 `json:"quarantine_shed"`
	// Swaps counts accepted SwapModel calls over the monitor's lifetime.
	Swaps uint64 `json:"swaps"`
}

// DriftStats summarizes how well the current model explains the recent
// stream: the rolling relative-residual window and the unattributed-exception
// rate the serve path's lifecycle trigger watches.
type DriftStats struct {
	// ModelVersion is the generation of the model the window was measured
	// against; SwapModel resets the window and bumps this.
	ModelVersion uint64 `json:"model_version"`
	// Window is how many diagnosed states the rolling window holds (bounded
	// by residualWindow); WindowUnattributed is how many of those were
	// unattributed, and UnattributedRate is their ratio (0 when empty).
	Window             int     `json:"window"`
	WindowUnattributed int     `json:"window_unattributed"`
	UnattributedRate   float64 `json:"unattributed_rate"`
	// Unattributed is the cumulative counter (across the model's lifetime,
	// reset on swap only in the window, never in Stats).
	Unattributed uint64 `json:"unattributed"`
	// MeanResidual and the quantiles describe the window's relative
	// residuals (‖s−wΨ‖/‖s‖, nearest-rank quantiles); all 0 when empty.
	MeanResidual float64 `json:"mean_residual"`
	P50          float64 `json:"p50"`
	P90          float64 `json:"p90"`
	P99          float64 `json:"p99"`
	// Quarantine is the current quarantine-buffer length.
	Quarantine int `json:"quarantine"`
}

// Summary is a consistent snapshot of the monitor's rolling state.
type Summary struct {
	Stats Stats `json:"stats"`
	// Pending is the flagged-state backlog length right now.
	Pending int `json:"pending"`
	// Rank is the model's root-cause count (Distribution length).
	Rank int `json:"rank"`
	// Epochs holds the rolling per-epoch cause distributions, ascending.
	Epochs []EpochCauses `json:"epochs"`
	// Recent holds the most recently diagnosed states, oldest first.
	Recent []Flagged `json:"recent"`
	// Drift is the rolling residual/unattributed view of the same instant.
	Drift DriftStats `json:"drift"`
}

type lastReport struct {
	epoch  int
	vector []float64
}

// pendingState is a flagged state in the backlog, with the diagnosis and
// drift sample solved for it under model generation version, if any. The
// cache is never exported: a restored or imported state has none.
type pendingState struct {
	state   trace.StateVector
	score   float64
	diag    *vn2.Diagnosis
	sample  resSample
	version uint64
}

// solved reports whether the state's cached diagnosis is under version.
func (p pendingState) solved(version uint64) bool { return p.diag != nil && p.version == version }

// epochAcc keeps one epoch's diagnosed contributions per node rather than a
// pre-summed distribution. Summing happens at read time by SumEpoch, so the
// per-epoch distribution is a pure function of the SET of diagnosed states —
// bit-identical no matter how drains grouped them, which is what lets a
// crash-recovered monitor reproduce the fault-free run exactly (see
// DESIGN.md "Failure model & recovery").
//
// part is the read plane's cache: the epoch's EpochState as JSON, rendered
// on the first read after a change with sum taken from it at the rank of the
// time, and immutable once built, so readers use it outside mu. A rendered
// epoch older than Stats.LastEpoch drops contribs (it is settled); a change
// opens it.
type epochAcc struct {
	epoch    int
	contribs []Contribution
	part     []byte
	sum      EpochCauses
}

// resSample is one diagnosed state's contribution to the rolling residual
// window.
type resSample struct {
	rel          float64
	unattributed bool
}

// Monitor is the streaming sink service core. All methods are safe for
// concurrent use; Stage does the per-report work and the NNLS solves outside
// mu, and Apply and Drain's merge are bookkeeping under it. The model is
// mutable via SwapModel — every read of it goes through mu; the detector is
// fixed at construction.
type Monitor struct {
	cfg Config

	mu        sync.Mutex
	model     *vn2.Model
	det       *trace.Detector
	version   uint64
	last      map[packet.NodeID]lastReport
	batchLast map[packet.NodeID]lastReport // deriveLocked's scratch: the batch's own stored reports
	gen       uint64                       // bumped by every write to last: a Staged older than it is re-classified
	pending   []pendingState
	epochs    map[int]*epochAcc
	recent    []Flagged
	residuals []resSample
	driftBuf  []float64 // driftLocked's selection buffer, reused across drains
	quar      []trace.StateVector
	stats     Stats
	rendered  uint64 // epoch parts rendered, cumulative (EpochsRendered)

	// Flagged states diagnosed by Stage and by Drain, cumulative (Solves).
	staged, drained atomic.Uint64

	// drainMu serializes drains so two concurrent Drain calls cannot
	// interleave their merges (ingest keeps flowing meanwhile: the solve
	// runs outside mu).
	drainMu sync.Mutex
}

// NewMonitor validates the configuration and returns a ready monitor.
func NewMonitor(cfg Config) (*Monitor, error) {
	c := cfg.withDefaults()
	if c.Model == nil || c.Model.Metrics() == 0 || c.Model.Rank <= 0 {
		return nil, fmt.Errorf("%w: model missing or untrained", ErrBadConfig)
	}
	if !c.Detector.Valid() {
		return nil, fmt.Errorf("%w: detector missing or uncalibrated", ErrBadConfig)
	}
	if c.Detector.Metrics() != c.Model.Metrics() {
		return nil, fmt.Errorf("%w: detector has %d metrics, model %d",
			ErrBadConfig, c.Detector.Metrics(), c.Model.Metrics())
	}
	return &Monitor{
		cfg:       c,
		model:     c.Model,
		det:       c.Detector,
		version:   c.ModelVersion,
		last:      make(map[packet.NodeID]lastReport),
		batchLast: make(map[packet.NodeID]lastReport),
		epochs:    make(map[int]*epochAcc),
	}, nil
}

// Warm primes a node's last-report slot without scoring anything — used to
// seed the monitor from the tail of a calibration trace so the first live
// report already produces a state vector.
func (m *Monitor) Warm(rec trace.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(rec.Vector) != m.det.Metrics() {
		return fmt.Errorf("%w: got %d metrics, want %d", trace.ErrVectorLength, len(rec.Vector), m.det.Metrics())
	}
	if k := firstNonFinite(rec.Vector); k >= 0 {
		return fmt.Errorf("%w: metric %d", ErrNonFinite, k)
	}
	if lr, ok := m.last[rec.Node]; ok && rec.Epoch <= lr.epoch {
		m.stats.Stale++
		return fmt.Errorf("%w: node %d epoch %d ≤ %d", ErrStaleReport, rec.Node, rec.Epoch, lr.epoch)
	}
	m.storeLast(rec)
	m.stats.Warmed++
	return nil
}

// storeLast copies rec's vector into the node's slot, reusing the previous
// buffer so steady-state ingest does not allocate per report. Caller holds mu.
func (m *Monitor) storeLast(rec trace.Record) {
	lr := m.last[rec.Node]
	if lr.vector == nil {
		lr.vector = make([]float64, len(rec.Vector))
	}
	copy(lr.vector, rec.Vector)
	lr.epoch = rec.Epoch
	m.last[rec.Node] = lr
	m.gen++
	m.stats.LastEpoch = max(m.stats.LastEpoch, rec.Epoch)
}

// Ingest feeds one sink report through the online pipeline: diff against
// the node's previous report, score with the frozen detector, and queue the
// state for diagnosis when it is exceptional. The returned Observation
// reports what happened even when an error (stale report, full backlog) is
// returned alongside it. It is Stage and Apply of a batch of one.
func (m *Monitor) Ingest(rec trace.Record) (Observation, error) {
	st := m.Stage([]trace.Record{rec})
	m.Apply(st)
	return st.out[0].obs, st.out[0].err
}

// Staged is a batch of reports classified and its flagged states solved, as
// Stage found the monitor, with nothing visible yet; Apply makes it so, once.
type Staged struct {
	recs         []trace.Record
	gen, version uint64 // the monitor's at Stage: Apply classifies again if either moved
	out          []verdict
	flagged      []pendingState // the flagged records' states, in order
}

// verdict is one record's outcome, the Stats counter it moves, and the
// state derived from it, if any.
type verdict struct {
	obs   Observation
	err   error
	count *uint64
	delta []float64
}

// Stage classifies recs as Ingest would, in order, and diagnoses their
// flagged states. Under mu it only derives the states — each record's
// difference against its node's last report, which costs what copying the
// report would; the scores and the solves run outside it. A sink stages a
// batch during its fsync, leaving Apply's bookkeeping.
func (m *Monitor) Stage(recs []trace.Record) *Staged {
	st := &Staged{recs: recs}
	m.mu.Lock()
	model := m.model
	m.deriveLocked(st)
	m.mu.Unlock()
	m.score(st, model)
	// A failed solve caches nothing: the drain solves again and reports it.
	if n, err := m.diagnose(st.flagged, model, st.version); err == nil {
		m.staged.Add(uint64(n))
	}
	return st
}

// deriveLocked is the part of classifying st that reads the nodes' last
// reports: each record's invalid, duplicate, stale or first verdict, or its
// gap and its difference against its base — the node's last report, or its
// own earlier one in the batch. Caller holds mu.
func (m *Monitor) deriveLocked(st *Staged) {
	st.gen, st.version = m.gen, m.version
	st.out, st.flagged = make([]verdict, len(st.recs)), nil
	metrics := m.det.Metrics()
	for i, rec := range st.recs {
		v := &st.out[i]
		v.obs, v.count = Observation{Node: rec.Node, Epoch: rec.Epoch}, &m.stats.Invalid
		lr, ok := m.batchLast[rec.Node]
		if !ok {
			lr, ok = m.last[rec.Node]
		}
		switch k := firstNonFinite(rec.Vector); {
		case len(rec.Vector) != metrics:
			v.err = fmt.Errorf("%w: got %d metrics, want %d", trace.ErrVectorLength, len(rec.Vector), metrics)
			continue
		case k >= 0:
			v.err = fmt.Errorf("%w: node %d epoch %d metric %d", ErrNonFinite, rec.Node, rec.Epoch, k)
			continue
		case ok && rec.Epoch == lr.epoch && slices.Equal(rec.Vector, lr.vector):
			// An exact retransmission is absorbed, not diffed into a zero state.
			v.count, v.obs.Duplicate = &m.stats.Duplicates, true
			continue
		case ok && rec.Epoch <= lr.epoch:
			v.count, v.err = &m.stats.Stale, fmt.Errorf("%w: node %d epoch %d ≤ %d", ErrStaleReport, rec.Node, rec.Epoch, lr.epoch)
			continue
		}
		m.batchLast[rec.Node] = lastReport{epoch: rec.Epoch, vector: rec.Vector}
		if !ok {
			v.count, v.obs.First = &m.stats.FirstReports, true
			continue
		}
		v.obs.Gap, v.delta = rec.Epoch-lr.epoch, make([]float64, metrics)
		for k, x := range rec.Vector {
			v.delta[k] = x - lr.vector[k]
		}
	}
	clear(m.batchLast)
}

// score screens st's derived states with the detector and queues the
// exceptional ones as st.flagged. It reads no monitor state but the fixed
// detector, so it runs outside mu; model is the one st was derived under.
func (m *Monitor) score(st *Staged, model *vn2.Model) {
	n := 0
	for i := range st.out {
		v, rec := &st.out[i], st.recs[i]
		if v.delta == nil {
			continue
		}
		flagged, score, err := m.det.Exceptional(v.delta)
		switch {
		case err != nil: // unreachable: the length was checked
			v.err = err
		case !flagged:
			v.count, v.obs.Score = &m.stats.Normal, score
		case overflows(model, v.delta):
			v.obs.Score, v.err = score, fmt.Errorf("%w: node %d epoch %d: the state's normalized norm overflows", ErrNonFinite, rec.Node, rec.Epoch)
		default:
			v.count, v.obs.Score, v.obs.Flagged = &m.stats.Flagged, score, true
			n++
		}
	}
	st.flagged = make([]pendingState, 0, n)
	for i, v := range st.out {
		if rec := st.recs[i]; v.obs.Flagged {
			state := trace.StateVector{Node: rec.Node, Epoch: rec.Epoch, Gap: v.obs.Gap, Delta: v.delta}
			st.flagged = append(st.flagged, pendingState{state: state, score: v.obs.Score})
		}
	}
}

// Apply makes a staged batch visible under one acquisition of mu. If a last
// report was stored or the model swapped since Stage, it classifies the
// batch again first, solving nothing under mu: the drain solves those
// states. It returns how many reports the monitor took cleanly and the
// backlog length after.
func (m *Monitor) Apply(st *Staged) (taken, pending int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.gen != m.gen || st.version != m.version {
		m.deriveLocked(st)
		m.score(st, m.model)
	}
	flagged := st.flagged
	m.pending = slices.Grow(m.pending, len(flagged))
	for i := range st.out {
		v := &st.out[i]
		m.stats.Reports++
		*v.count++
		if v.obs.First || v.obs.Gap > 0 {
			m.storeLast(st.recs[i])
		}
		if v.obs.Gap > 1 {
			m.stats.GapReports++
		}
		m.stats.MaxGap = max(m.stats.MaxGap, v.obs.Gap)
		if v.obs.Flagged {
			if len(m.pending) < m.cfg.MaxPending {
				m.pending = append(m.pending, flagged[0])
			} else {
				m.stats.Dropped++
				v.err = fmt.Errorf("%w: %d states pending", ErrBacklog, len(m.pending))
			}
			flagged = flagged[1:]
		}
		if v.err == nil {
			taken++
		}
	}
	return taken, len(m.pending)
}

// diagnose solves, in one batch under model, every state of ps without a
// diagnosis under version, and returns how many it solved.
func (m *Monitor) diagnose(ps []pendingState, model *vn2.Model, version uint64) (int, error) {
	var states []trace.StateVector
	for _, p := range ps {
		if !p.solved(version) {
			states = append(states, p.state)
		}
	}
	if len(states) == 0 {
		return 0, nil
	}
	diags, err := model.DiagnoseBatch(states, vn2.DiagnoseConfig{Workers: m.cfg.Workers})
	if err != nil {
		return 0, err
	}
	k := 0
	for i, p := range ps {
		if !p.solved(version) {
			ps[i].diag, ps[i].sample, ps[i].version = diags[k], sample(model, p.state.Delta, diags[k]), version
			k++
		}
	}
	return k, nil
}

// Drain diagnoses everything flagged since the last drain — one exact NNLS
// solve per state on the model's Gram matrix, in one batch — and folds the
// results into the rolling per-epoch cause distributions. Ingest keeps flowing
// while the solve runs. Returns the diagnosed states in ingest order; a nil
// slice means there was nothing pending.
func (m *Monitor) Drain() ([]Flagged, error) {
	m.drainMu.Lock()
	defer m.drainMu.Unlock()

	m.mu.Lock()
	pend := m.pending
	m.pending = nil
	model, version := m.model, m.version
	m.mu.Unlock()
	if len(pend) == 0 {
		return nil, nil
	}

	// Stage solved most states already; what it did not, or solved under
	// another model generation, is solved here under the drain's.
	n, err := m.diagnose(pend, model, version)
	if err != nil {
		// Put the batch back so nothing is lost; newer flagged states queued
		// during the solve stay behind it in order.
		m.mu.Lock()
		m.pending = append(pend, m.pending...)
		m.mu.Unlock()
		return nil, fmt.Errorf("drain: %w", err)
	}
	m.drained.Add(uint64(n))
	out := make([]Flagged, len(pend))
	for i, p := range pend {
		out[i] = Flagged{State: p.state, Score: p.score, Diagnosis: p.diag}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Drains++
	m.stats.Diagnosed += uint64(len(out))
	for _, f := range out {
		ec := m.epochs[f.State.Epoch]
		if ec == nil {
			ec = &epochAcc{epoch: f.State.Epoch}
			m.epochs[f.State.Epoch] = ec
		}
		ec.open()
		ec.contribs = append(ec.contribs, Contribution{
			Node:   f.State.Node,
			Causes: append([]vn2.RankedCause(nil), f.Diagnosis.Ranked...),
		})
	}
	m.recent = append(m.recent, out...)
	if over := len(m.recent) - maxRecent; over > 0 {
		m.recent = append(m.recent[:0], m.recent[over:]...)
	}
	// The drift window and quarantine describe ONE model generation. If a
	// swap landed while the solve ran, these samples were measured against
	// the outgoing model — folding them into the new generation's window
	// would poison its baseline, so they are dropped. Epoch distributions
	// and the recent ring merge regardless: they record what was served.
	if m.version == version {
		for i, p := range pend {
			m.residuals = append(m.residuals, p.sample)
			if !p.sample.unattributed {
				continue
			}
			m.stats.Unattributed++
			if len(m.quar) >= quarantineSize {
				shed := len(m.quar) - quarantineSize + 1
				m.quar = append(m.quar[:0], m.quar[shed:]...)
				m.stats.QuarantineShed += uint64(shed)
			}
			m.quar = append(m.quar, copyState(out[i].State))
			m.stats.Quarantined++
		}
		if over := len(m.residuals) - residualWindow; over > 0 {
			m.residuals = append(m.residuals[:0], m.residuals[over:]...)
		}
	}
	// Prune epochs that fell out of the rolling window.
	floor := m.stats.LastEpoch - m.cfg.History
	for e := range m.epochs {
		if e <= floor {
			delete(m.epochs, e)
		}
	}
	return out, nil
}

// RelResidual is THE definition of a diagnosis's relative residual
// ‖s−wΨ‖/‖s‖, clamped to [0,1]: what the drift window samples and what the
// lifecycle's validation gate scores a candidate by.
func RelResidual(model *vn2.Model, delta []float64, residual float64) float64 {
	norm, err := model.NormalizedNorm(delta)
	if err != nil || norm < 1e-12 {
		// A flagged state with a ~zero normalized norm should not happen
		// (the detector flagged it for deviating); treat any leftover
		// residual as fully unexplained rather than dividing by ~0.
		if residual > 1e-12 {
			return 1
		}
		return 0
	}
	return min(residual/norm, 1)
}

// sample turns one diagnosis into its drift-window sample: the relative
// residual and whether the state counts as unattributed (residual past the
// threshold, or an empty diagnosis of a state the detector flagged).
func sample(model *vn2.Model, delta []float64, d *vn2.Diagnosis) resSample {
	rel := RelResidual(model, delta, d.Residual)
	return resSample{rel: rel, unattributed: rel >= ResidualThreshold || len(d.Ranked) == 0}
}

// Snapshot returns a consistent copy of the rolling state: counters, the
// per-epoch cause distributions (ascending) and the recent diagnoses.
func (m *Monitor) Snapshot() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.summaryLocked()
}

// summaryLocked computes Snapshot. Caller holds mu.
func (m *Monitor) summaryLocked() Summary {
	s := Summary{
		Stats:   m.stats,
		Pending: len(m.pending),
		Rank:    m.model.Rank,
		Epochs:  make([]EpochCauses, 0, len(m.epochs)),
		Recent:  append([]Flagged(nil), m.recent...),
		Drift:   m.driftLocked(),
	}
	for _, ec := range m.epochs {
		s.Epochs = append(s.Epochs, ec.causes(m.model.Rank))
	}
	sort.Slice(s.Epochs, func(i, j int) bool { return s.Epochs[i].Epoch < s.Epochs[j].Epoch })
	return s
}

// causes is an epoch's cause distribution at rank: the sum taken at its
// render, or, changed since or rendered at another rank, SumEpoch of its
// contributions. Caller holds mu.
func (ec *epochAcc) causes(rank int) EpochCauses {
	if ec.part == nil || len(ec.sum.Distribution) != rank {
		return SumEpoch(ec.epoch, rank, slices.Clone(ec.held()))
	}
	out := ec.sum
	out.Distribution = slices.Clone(out.Distribution)
	return out
}

// SumEpoch is the one rule that turns an epoch's contributions into its
// cause distribution, for a monitor and for a fleet merge alike: contribs
// sorted in place, stably, by node, then each cause in [0, rank) summed on
// its own in that order. Float addition is not associative, so the order is
// the rule: the result is a pure function of the SET of contributions, not
// of how drains grouped them or how shards split them.
func SumEpoch(epoch, rank int, contribs []Contribution) EpochCauses {
	sortByNode(contribs)
	out := EpochCauses{Epoch: epoch, States: len(contribs), Distribution: make([]float64, rank)}
	for _, c := range contribs {
		for _, rc := range c.Causes {
			if rc.Cause >= 0 && rc.Cause < rank {
				out.Distribution[rc.Cause] += rc.Strength
			}
		}
	}
	return out
}

// overflows reports whether a state's normalized norm under model is not
// finite, so neither would its diagnosis be (nor any JSON view holding it).
// Finite reports can get there, so it is checked where a state is queued,
// never per report; a model that cannot normalize the state is the drain's
// error to report.
func overflows(model *vn2.Model, delta []float64) bool {
	norm, err := model.NormalizedNorm(delta)
	return err == nil && (math.IsInf(norm, 0) || math.IsNaN(norm))
}

// firstNonFinite returns the index of the first NaN/±Inf value, or -1.
func firstNonFinite(v []float64) int {
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return k
		}
	}
	return -1
}

// EpochCauses returns the rolling cause distribution of one epoch, summed in
// ascending node order (bit-identical regardless of how drains grouped the
// states), and whether the epoch is still inside the rolling window. This is
// the per-epoch hook behind the sink's EpochDiagnosed stream event: after a
// drain, the sink asks for exactly the epochs that drain touched instead of
// paying for a full Snapshot.
func (m *Monitor) EpochCauses(epoch int) (EpochCauses, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ec := m.epochs[epoch]
	if ec == nil {
		return EpochCauses{}, false
	}
	return ec.causes(m.model.Rank), true
}

// Stats returns a copy of the counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Solves returns how many flagged states Stage diagnosed ahead of their
// Apply, and how many a drain still had to: a state restored, imported,
// staged when Apply had to classify it again, or solved under a model
// swapped out since.
func (m *Monitor) Solves() (staged, drained uint64) { return m.staged.Load(), m.drained.Load() }

// Pending returns the flagged-state backlog length.
func (m *Monitor) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// ModelVersion returns the generation of the currently serving model.
func (m *Monitor) ModelVersion() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// DriftStats returns the rolling drift view: residual quantiles and the
// unattributed rate over the current model's sample window.
func (m *Monitor) DriftStats() DriftStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.driftLocked()
}

// driftLocked computes DriftStats. Caller holds mu.
func (m *Monitor) driftLocked() DriftStats {
	ds := DriftStats{
		ModelVersion: m.version,
		Window:       len(m.residuals),
		Unattributed: m.stats.Unattributed,
		Quarantine:   len(m.quar),
	}
	if len(m.residuals) == 0 {
		return ds
	}
	rels := m.driftBuf[:0]
	var sum float64
	for _, s := range m.residuals {
		rels = append(rels, s.rel)
		sum += s.rel
		if s.unattributed {
			ds.WindowUnattributed++
		}
	}
	ds.UnattributedRate = float64(ds.WindowUnattributed) / float64(len(m.residuals))
	ds.MeanResidual = sum / float64(len(m.residuals))
	m.driftBuf = rels
	// Nearest-rank quantiles by selection: an order statistic is a property
	// of the multiset, so selecting gives what a sort would without sorting
	// 256 samples under mu on every drain. A selection leaves everything
	// before its index at or below it, so each next rank is sought in the
	// suffix only. For q in (0, 1] and a non-empty window a rank is in range.
	rank := func(q float64) int { return int(math.Ceil(q*float64(len(rels)))) - 1 }
	i50, i90, i99 := rank(0.50), rank(0.90), rank(0.99)
	ds.P50 = trace.SelectKth(rels, i50)
	ds.P90 = trace.SelectKth(rels[i50:], i90-i50)
	ds.P99 = trace.SelectKth(rels[i90:], i99-i90)
	return ds
}

// Quarantine returns a deep copy of the quarantined unattributed states,
// oldest first — the shadow retrainer's raw material.
func (m *Monitor) Quarantine() []trace.StateVector {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]trace.StateVector, len(m.quar))
	for i, s := range m.quar {
		out[i] = copyState(s)
	}
	return out
}

// RecentWindow returns a deep copy of the recent diagnosed ring, oldest
// first — the lifecycle's held-out validation set: states the CURRENT model
// already diagnosed, replayable against a candidate for an apples-to-apples
// residual and dominant-cause comparison.
func (m *Monitor) RecentWindow() []Flagged {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Flagged, len(m.recent))
	for i, f := range m.recent {
		out[i] = copyFlagged(f)
	}
	return out
}

// copyFlagged deep-copies one recent-ring entry.
func copyFlagged(f Flagged) Flagged {
	f.State = copyState(f.State)
	if f.Diagnosis != nil {
		d := *f.Diagnosis
		d.Weights = append([]float64(nil), f.Diagnosis.Weights...)
		d.Ranked = append([]vn2.RankedCause(nil), f.Diagnosis.Ranked...)
		f.Diagnosis = &d
	}
	return f
}

// Workers is the drain's solver goroutine bound (Config.Workers, 0 read as
// all cores); the sink's shadow retrain runs on the same count.
func (m *Monitor) Workers() int { return m.cfg.Workers }

// SwapModel atomically replaces the serving model under a new generation
// number; the detector is the deployment's, fixed at construction, and the
// model must fit its metric count. The version must advance — rollbacks
// re-install old model CONTENT under a NEW version, keeping the generation
// counter monotonic so swap records replay deterministically. The drift window and quarantine are cleared (they
// describe the outgoing model); pending states stay queued and are diagnosed
// by the new model; the recent ring and epoch distributions stay as the
// record of what was actually served.
func (m *Monitor) SwapModel(version uint64, model *vn2.Model) error {
	if model == nil || model.Metrics() == 0 || model.Rank <= 0 {
		return fmt.Errorf("%w: swap model missing or untrained", ErrBadConfig)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if version <= m.version {
		return fmt.Errorf("%w: swap version %d not after current %d", ErrBadConfig, version, m.version)
	}
	if model.Metrics() != m.det.Metrics() {
		return fmt.Errorf("%w: swap model has %d metrics, stream has %d",
			ErrBadConfig, model.Metrics(), m.det.Metrics())
	}
	m.model = model
	m.version = version
	m.residuals = nil
	m.quar = nil
	m.stats.Swaps++
	return nil
}
