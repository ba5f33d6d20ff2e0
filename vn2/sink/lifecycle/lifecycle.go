// Package lifecycle is the self-healing model layer of the sink:
// residual-driven drift detection (vn2/online's DriftStats), shadow retrain
// off the serving path, a validation gate over a held-out window, an atomic
// versioned hot-swap journaled through the WAL, and a probation window with
// automatic rollback. The Manager owns the generation state machine and the
// snapshot mutex that orders swap application against snapshot capture;
// journaling and queue insertion are injected as one hook (the sink's
// commit point) so this package never touches the WAL or the ingest queue
// directly.
// See DESIGN.md "Model lifecycle & drift" for the state machine and the
// crash-consistency argument.
package lifecycle

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// Typed lifecycle failures surfaced at startup.
var (
	// ErrSwapFileMissing reports a WAL swap record whose persisted model file
	// is gone. The swap ordering (file before record) makes this corruption
	// or operator deletion, never a crash window.
	ErrSwapFileMissing = errors.New("serve: model swap record references a missing model file")
	// ErrSwapFileMismatch reports a swap model file whose embedded meta does
	// not carry the version the WAL record promised.
	ErrSwapFileMismatch = errors.New("serve: model swap file does not match its WAL record")
)

// Swap origins, recorded in WAL swap records and model-file meta.
const (
	OriginUpdate   = "update"
	OriginRollback = "rollback"
)

// HistoryMax bounds the kept swap history.
const HistoryMax = 64

// Set is one immutable generation of serving state: the model, its version,
// and its serialized envelope (what snapshots embed and the models directory
// files contain). The detector is not part of it: it belongs to the
// deployment, frozen once at boot, and no swap changes it.
type Set struct {
	Model   *vn2.Model
	Version uint64
	Raw     json.RawMessage
}

// pendingSwap rides the ingest queue as a barrier item (through the Enqueue
// hook's opaque apply closure): everything enqueued before it is diagnosed
// by the outgoing model, everything after by the new one — the same
// boundary a WAL replay reconstructs from the record's LSN.
type pendingSwap struct {
	rec store.SwapRecord
	set *Set
}

// The drift trigger and the rollback verdict, over a filled window: a
// shadow retrain starts when the unattributed rate reaches driftRate, or
// when the residual p50 reaches driftRegress × its healthy baseline (and
// half the unattributed cutoff, so a tiny baseline cannot trigger on noise);
// a swap is reverted when the mean residual after probation exceeds
// rollbackMargin × the pre-swap mean.
const (
	driftRate      = 0.5
	driftRegress   = 4
	rollbackMargin = 1.05
)

// holdoutMin is the fewest held-out states a candidate is judged by;
// cooldownTicks the base trigger cooldown, in drain ticks, that a failed
// retrain multiplies and a rollback makes eight times longer.
const (
	holdoutMin    = 8
	cooldownTicks = 8
)

// Config is the lifecycle's knobs (sink.Options.Lifecycle, the serve
// flags); New fills the zero ones with the defaults in parentheses.
type Config struct {
	Enabled        bool          // drift-triggered retrain + hot-swap on; the sink skips Tick when false
	ModelsDir      string        // directory for persisted model generations
	DriftMin       int           // min drift-window fill before triggering (32)
	RetrainTimeout time.Duration // shadow retrain deadline (2m)
	Probation      int           // post-swap window before commit/rollback (32)
}

func (c *Config) defaults() {
	if c.DriftMin <= 0 {
		c.DriftMin = 32
	}
	if c.RetrainTimeout <= 0 {
		c.RetrainTimeout = 2 * time.Minute
	}
	if c.Probation <= 0 {
		c.Probation = 32
	}
}

// Hooks are the seams back into the sink root. Enqueue must journal rec and
// insert apply as a barrier into the ingest queue as one step of the sink's
// commit order, or fail having done neither. DrainErr counts a
// failed pre-swap drain into the sink's drain_errors. OnSwap fires after a
// swap (or rollback) is fully applied — the bus event seam. Any hook may be
// nil.
type Hooks struct {
	Enqueue  func(rec store.SwapRecord, apply func()) error
	DrainErr func()
	OnSwap   func(ev store.SwapEvent)
}

// Manager owns the lifecycle state machine for one sink.
type Manager struct {
	cfg   Config
	mon   *online.Monitor
	hooks Hooks

	// SnapMu serializes snapshot capture against swap application so no
	// snapshot sees a half-applied swap. The sink's PersistSnapshot holds it
	// for the whole capture.
	SnapMu sync.Mutex

	// mu guards the generation state. cur is the serving generation; prev
	// is kept during a swap's probation window so a regression can revert.
	mu       sync.Mutex
	cur      *Set
	prev     *Set
	baseMean float64 // pre-swap mean residual: the rollback baseline
	p50Base  float64 // healthy-regime p50 baseline for the regression trigger
	p50Set   bool
	hist     []store.SwapEvent
	cooldown int // drain ticks the trigger stays quiet
	rejectN  int // consecutive rejected candidates (backoff exponent)

	retraining atomic.Bool
	// swapQueued is set from the moment a swap is journaled and queued until
	// its barrier has run. The trigger stays quiet meanwhile: a second
	// retrain started from the still-serving generation would reuse the
	// queued swap's version number and overwrite its model file, and a WAL
	// replay would then load a model the live sink never served.
	swapQueued atomic.Bool
	wg         sync.WaitGroup

	Retrains     atomic.Uint64 // shadow retrains launched
	RetrainFails atomic.Uint64 // retrains that errored/panicked/timed out
	CandRejects  atomic.Uint64 // candidates the validation gate refused
	Swaps        atomic.Uint64 // applied hot-swaps (including rollbacks)
	Rollbacks    atomic.Uint64 // probation regressions that auto-reverted
}

// New builds a Manager serving cur. The retrain solver runs on the
// monitor's worker count.
func New(cfg Config, mon *online.Monitor, cur *Set, hooks Hooks) *Manager {
	cfg.defaults()
	return &Manager{cfg: cfg, mon: mon, cur: cur, hooks: hooks}
}

// Current returns the serving generation.
func (m *Manager) Current() *Set {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// History returns a copy of the swap history, oldest first.
func (m *Manager) History() []store.SwapEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]store.SwapEvent(nil), m.hist...)
}

// SeedHistory installs snapshot-restored history (startup only).
func (m *Manager) SeedHistory(hist []store.SwapEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist = append(m.hist, hist...)
}

// State answers /model's mutable-state fields in one lock hold.
func (m *Manager) State() (version uint64, cooldown int, probation bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Version, m.cooldown, m.prev != nil
}

// Retraining reports whether a shadow retrain is in flight.
func (m *Manager) Retraining() bool { return m.retraining.Load() }

// Wait blocks until any in-flight shadow retrain lands: the shutdown path,
// and how a caller that ticks by hand sees a retrain's outcome.
func (m *Manager) Wait() { m.wg.Wait() }

// InjectBaseline overrides the rollback baseline (tests provoke rollbacks
// with it).
func (m *Manager) InjectBaseline(v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.baseMean = v
}

// recordSwapLocked folds an applied swap into the history. Caller holds mu.
func (m *Manager) recordSwapLocked(rec store.SwapRecord) store.SwapEvent {
	ev := store.SwapEvent{
		Version: rec.Version,
		Parent:  rec.Parent,
		Origin:  rec.Origin,
		At:      time.Now().UTC(),
	}
	m.hist = append(m.hist, ev)
	if over := len(m.hist) - HistoryMax; over > 0 {
		m.hist = append(m.hist[:0], m.hist[over:]...)
	}
	return ev
}

// Tick advances the lifecycle state machine by one drain tick: probation
// verdicts first (commit or roll back the newest swap), then cooldown, then
// the drift trigger that launches a shadow retrain.
func (m *Manager) Tick() {
	ds := m.mon.DriftStats()

	m.mu.Lock()
	// Probation: after a swap the previous generation is kept until the new
	// one has served a full window. A mean residual regressing past the
	// pre-swap baseline by the rollback margin auto-reverts.
	if m.prev != nil && ds.ModelVersion == m.cur.Version {
		if ds.Window >= m.cfg.Probation {
			if m.baseMean > 1e-9 && ds.MeanResidual > m.baseMean*rollbackMargin {
				from, to := m.cur, m.prev
				base := m.baseMean
				m.prev = nil
				// A reverted candidate earns a long quiet period: the drift
				// that triggered it is still there, and retrying immediately
				// would thrash.
				m.cooldown = cooldownTicks * 8
				m.mu.Unlock()
				fmt.Fprintf(os.Stderr,
					"vn2 serve: rollback: v%d mean residual %.4f regressed past pre-swap %.4f (margin %.2f), reverting to v%d content\n",
					from.Version, ds.MeanResidual, base, rollbackMargin, to.Version)
				if err := m.swapTo(to.Model, from.Version, OriginRollback); err != nil {
					fmt.Fprintln(os.Stderr, "vn2 serve: rollback swap:", err)
				}
				return
			}
			m.prev = nil // candidate survived probation: committed
		}
	}
	if m.cooldown > 0 {
		m.cooldown--
		m.mu.Unlock()
		return
	}
	if m.retraining.Load() || m.swapQueued.Load() {
		m.mu.Unlock()
		return
	}
	// Freeze the healthy-regime quantile baseline the first time the window
	// fills for this generation; quantile regression is judged against it.
	if ds.Window >= m.cfg.DriftMin && !m.p50Set {
		m.p50Base, m.p50Set = ds.P50, true
	}
	trigger := ""
	if ds.Window >= m.cfg.DriftMin {
		switch {
		case ds.UnattributedRate >= driftRate:
			trigger = fmt.Sprintf("unattributed rate %.3f >= %.3f over %d states",
				ds.UnattributedRate, driftRate, ds.Window)
		case m.p50Set && m.p50Base > 1e-9 &&
			ds.P50 >= m.p50Base*driftRegress &&
			ds.P50 >= online.ResidualThreshold/2:
			trigger = fmt.Sprintf("residual p50 %.4f regressed %.1fx past baseline %.4f",
				ds.P50, ds.P50/m.p50Base, m.p50Base)
		}
	}
	m.mu.Unlock()
	if trigger == "" {
		return
	}
	if !m.retraining.CompareAndSwap(false, true) {
		return
	}
	m.Retrains.Add(1)
	fmt.Fprintf(os.Stderr, "vn2 serve: drift detected (model v%d): %s; shadow retrain started\n", ds.ModelVersion, trigger)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.runRetrain()
	}()
}

// retrainBackoff sets the post-failure cooldown: exponential in the number
// of consecutive rejections so a persistent regime the model cannot learn
// stops burning retrains.
func (m *Manager) retrainBackoff() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejectN++
	shift := min(m.rejectN, 6)
	m.cooldown = cooldownTicks << shift
}

// applySwap installs a generation at its barrier position in the ingest
// order: drain everything the outgoing model still owns, swap the monitor,
// then publish the new current set. Runs on the sink's ingest path via the
// barrier closure.
func (m *Manager) applySwap(ps *pendingSwap) {
	defer m.swapQueued.Store(false)
	// Exclude snapshot capture for the whole transition so no snapshot sees
	// a half-applied swap.
	m.SnapMu.Lock()
	defer m.SnapMu.Unlock()
	if _, err := m.mon.Drain(); err != nil {
		// The batch is back in pending and will be diagnosed by the new
		// model; losing generation purity here beats losing the states.
		if m.hooks.DrainErr != nil {
			m.hooks.DrainErr()
		}
		fmt.Fprintln(os.Stderr, "vn2 serve: pre-swap drain failed:", err)
	}
	pre := m.mon.DriftStats()
	if err := m.mon.SwapModel(ps.set.Version, ps.set.Model); err != nil {
		fmt.Fprintf(os.Stderr, "vn2 serve: swap to v%d not applied: %v\n", ps.set.Version, err)
		return
	}
	m.mu.Lock()
	if ps.rec.Origin == OriginRollback {
		m.prev = nil
		m.baseMean = 0
	} else {
		m.prev = m.cur
		m.baseMean = pre.MeanResidual
	}
	m.cur = ps.set
	m.p50Base, m.p50Set = 0, false
	ev := m.recordSwapLocked(ps.rec)
	m.mu.Unlock()
	m.Swaps.Add(1)
	if ps.rec.Origin == OriginRollback {
		m.Rollbacks.Add(1)
	}
	fmt.Fprintf(os.Stderr, "vn2 serve: model hot-swapped to v%d (%s, parent v%d)\n",
		ps.set.Version, ps.rec.Origin, ps.rec.Parent)
	if m.hooks.OnSwap != nil {
		m.hooks.OnSwap(ev)
	}
}

// swapTo persists the new generation, journals the swap, and enqueues the
// barrier item that applies it. Ordering is the crash-consistency contract:
//
//  1. model file: tmp + fsync + rename + dir fsync
//  2. WAL swap record appended + fsynced at the sink's commit point
//  3. barrier item enqueued in the same commit step
//
// Steps 2–3 live behind the Enqueue hook (the sink root owns the journal
// and the queue). A crash after (1) leaves an orphan file — harmless. A
// crash after (2) replays the swap from the WAL against the file (1)
// guaranteed. Report batches commit through the same mutex, so the queue
// order equals the LSN order at the boundary and a replay reconstructs
// exactly which reports each generation diagnosed.
func (m *Manager) swapTo(model *vn2.Model, parent uint64, origin string) error {
	if m.cfg.ModelsDir == "" {
		return fmt.Errorf("serve: lifecycle swap requires -models")
	}
	version := parent + 1
	var raw bytes.Buffer
	err := model.SaveVersioned(&raw, vn2.ModelMeta{
		ModelVersion: version,
		Parent:       parent,
		Origin:       origin,
		SavedAt:      time.Now().UTC(),
	})
	if err != nil {
		return fmt.Errorf("serialize model v%d: %w", version, err)
	}
	rec := store.SwapRecord{Version: version, Parent: parent, Origin: origin, File: store.ModelFileName(version)}
	if err := m.persistFile(rec.File, raw.Bytes()); err != nil {
		return fmt.Errorf("persist model v%d: %w", version, err)
	}
	set := &Set{Model: model, Version: version, Raw: json.RawMessage(raw.Bytes())}
	if m.hooks.Enqueue == nil {
		return fmt.Errorf("serve: lifecycle swap has no enqueue hook")
	}
	ps := &pendingSwap{rec: rec, set: set}
	m.swapQueued.Store(true)
	if err := m.hooks.Enqueue(rec, func() { m.applySwap(ps) }); err != nil {
		m.swapQueued.Store(false)
		return err
	}
	return nil
}

// ReplaySwap re-applies a journaled swap during WAL replay: load the
// persisted generation and install it at the record's position. The
// snapshot may already reflect the swap (its monitor state can be newer
// than its watermark); then only the serving set is updated. A record that
// names a detector file comes from a sink that refroze its detector on a
// swap; it is refused, since this one would diagnose the rest of the WAL
// under a different detector.
func (m *Manager) ReplaySwap(rec store.SwapRecord) error {
	if rec.Detector != "" {
		return fmt.Errorf("%w: swap to v%d names detector file %s; the detector is fixed at boot",
			ErrSwapFileMismatch, rec.Version, rec.Detector)
	}
	if m.cfg.ModelsDir == "" {
		return fmt.Errorf("%w: swap to v%d replayed but -models is not set", ErrSwapFileMissing, rec.Version)
	}
	b, err := os.ReadFile(filepath.Join(m.cfg.ModelsDir, rec.File))
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s (v%d)", ErrSwapFileMissing, rec.File, rec.Version)
	}
	if err != nil {
		return err
	}
	model, meta, err := vn2.LoadVersioned(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("load swap model %s: %w", rec.File, err)
	}
	if meta.ModelVersion != rec.Version {
		return fmt.Errorf("%w: %s carries v%d, record says v%d",
			ErrSwapFileMismatch, rec.File, meta.ModelVersion, rec.Version)
	}
	if m.mon.ModelVersion() < rec.Version {
		if _, err := m.mon.Drain(); err != nil {
			return fmt.Errorf("drain before replayed swap: %w", err)
		}
		if err := m.mon.SwapModel(rec.Version, model); err != nil {
			return fmt.Errorf("replay swap to v%d: %w", rec.Version, err)
		}
	}
	m.mu.Lock()
	m.cur = &Set{Model: model, Version: rec.Version, Raw: json.RawMessage(b)}
	m.prev = nil // probation does not survive a restart (documented)
	m.recordSwapLocked(rec)
	m.mu.Unlock()
	return nil
}

// persistFile atomically writes one modelsDir file, directory fsync
// included, so the rename is durable before the WAL record that references
// the file by name.
func (m *Manager) persistFile(name string, data []byte) error {
	if err := os.MkdirAll(m.cfg.ModelsDir, 0o755); err != nil {
		return err
	}
	return store.WriteFileAtomic(filepath.Join(m.cfg.ModelsDir, name), data, true)
}
