// Package sink is the online diagnosis sink service, decomposed into
// layers:
//
//	sink/ingest    — report body and frame decoding, the queue item type
//	sink/store     — WAL journal policy, snapshot format
//	sink/lifecycle — drift → shadow retrain → gate → hot-swap → rollback
//	sink/api       — HTTP helpers: JSON responses, SSE, degraded-mode
//	                 state machine, embedded dashboard
//	sink/bus       — the event plane connecting all of the above to the
//	                 live visibility surface (GET /stream)
//
// The root package wires them into one Server: one commit point (commit.go)
// in front of a bounded ingest queue feeding the monitor, drains woken by
// flagged states, periodic snapshots, a WAL making every 202 durable, and
// the HTTP surface — including the visibility plane (/stream, /status, and
// the embedded dashboard at /). cmd/vn2's serve subcommand is just flag
// parsing in front of New + Run.
package sink

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/bus"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
	"github.com/wsn-tools/vn2/vn2/sink/lifecycle"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// ErrSnapshotMismatch reports a snapshot whose monitor state does not fit
// the model/detector it is being restored against (different rank or
// metric shape) — restarting with the wrong model must fail loudly, not
// corrupt the stream.
var ErrSnapshotMismatch = errors.New("serve: snapshot monitor state does not match the configured model/detector")

// bootTimes is where New spent its time, in the order the stages run; one
// that did not run (no snapshot, a snapshot detector, no WAL) reads zero.
// monitor includes its warm-up or restore and the wiring of the server;
// /metrics reports the total, the calibration and the replay (boot_*).
type bootTimes struct{ snapshot, model, calibRead, calibrate, monitor, replay time.Duration }

func (b bootTimes) total() time.Duration {
	return b.snapshot + b.model + b.calibRead + b.calibrate + b.monitor + b.replay
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (b bootTimes) String() string {
	return fmt.Sprintf("%.1fms (snapshot %.1f, model %.1f, calibration read %.1f, calibrate %.1f, monitor %.1f, replay %.1f)",
		ms(b.total()), ms(b.snapshot), ms(b.model), ms(b.calibRead), ms(b.calibrate), ms(b.monitor), ms(b.replay))
}

// Options collects the sink's configuration (the serve subcommand's flags).
type Options struct {
	Addr          string
	ModelPath     string
	CalibratePath string
	SnapshotPath  string
	WALPath       string
	Threshold     float64
	QueueSize     int
	MaxPending    int
	Workers       int
	DrainEvery    time.Duration // idle upper bound of the diagnosis pass; clock of the lifecycle and of a drain failure's recovery
	SnapshotEvery time.Duration

	// Lifecycle is the model lifecycle, inert unless Lifecycle.Enabled; its
	// retrain solves on Workers.
	Lifecycle lifecycle.Config

	// StreamBuffer bounds each /stream subscriber's ring (0 = 64). It and
	// QueueSize are bounds, paid for as used: neither is allocated up front.
	StreamBuffer int

	// Persistent frame-stream ingest edge (the -stream-addr flag; empty =
	// no raw-TCP listener, HTTP ingest only).
	StreamAddr        string
	StreamMaxConns    int           // connection cap (0 = 64)
	StreamReadTimeout time.Duration // per-frame read deadline (0 = 30s)
}

// The values New gives a zero or negative QueueSize, DrainEvery and
// SnapshotEvery; the serve flags default to them too.
const (
	DefaultQueueSize     = 1024
	DefaultDrainEvery    = 2 * time.Second
	DefaultSnapshotEvery = time.Minute
)

// defaults fills the unset bounds and intervals, before anything is built
// on them: the monitor's backlog is the bound admission counts against.
func (o *Options) defaults() {
	if o.QueueSize <= 0 {
		o.QueueSize = DefaultQueueSize
	}
	if o.MaxPending <= 0 {
		o.MaxPending = online.DefaultMaxPending
	}
	if o.DrainEvery <= 0 {
		o.DrainEvery = DefaultDrainEvery
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
}

// New loads the model, obtains a frozen detector (the snapshot's, else the
// model's, else calibrated from the trace), primes the monitor, restores
// snapshot state, replays the WAL, and assembles the Server unstarted.
func New(o Options) (*Server, error) {
	o.defaults()
	var boot bootTimes
	mark := time.Now()
	lap := func(stage *time.Duration) {
		*stage = time.Since(mark)
		mark = mark.Add(*stage)
	}
	var snap *store.Snapshot
	if o.SnapshotPath != "" {
		var err error
		snap, err = store.ReadSnapshot(o.SnapshotPath)
		if err != nil {
			return nil, err
		}
		lap(&boot.snapshot)
	}

	// Model: explicit -model wins — unless the snapshot carries a LATER
	// generation of the same deployment (a lifecycle swap happened after the
	// operator exported the file behind -model); then the snapshot's copy is
	// the truth.
	var model *vn2.Model
	var meta vn2.ModelMeta
	var modelRaw json.RawMessage
	var snapModel *vn2.Model
	var snapMeta vn2.ModelMeta
	if snap != nil && len(snap.Model) > 0 {
		var err error
		snapModel, snapMeta, err = vn2.LoadVersioned(bytes.NewReader(snap.Model))
		if err != nil {
			return nil, fmt.Errorf("load model from snapshot: %w", err)
		}
		if snapMeta.ModelVersion == 0 {
			snapMeta.ModelVersion = snap.ModelVersion
		}
	}
	switch {
	case o.ModelPath != "":
		b, err := os.ReadFile(o.ModelPath)
		if err != nil {
			return nil, err
		}
		model, meta, err = vn2.LoadVersioned(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("load model: %w", err)
		}
		modelRaw = json.RawMessage(b)
		if snapModel != nil && snapMeta.ModelVersion > max(meta.ModelVersion, 1) {
			model, meta, modelRaw = snapModel, snapMeta, snap.Model
		}
	case snapModel != nil:
		model, meta, modelRaw = snapModel, snapMeta, snap.Model
	default:
		return nil, fmt.Errorf("serve: -model is required (no snapshot model available)")
	}
	if meta.ModelVersion == 0 {
		meta.ModelVersion = 1
	}
	lap(&boot.model)

	// Detector: the snapshot's when present, else the model's training-window
	// calibration cut at -threshold. The calibration trace then supplies only
	// each node's last report; a model saved without a calibration is
	// calibrated from the whole trace, as before models carried one.
	var det *trace.Detector
	var warm []trace.Record // each calibration node's last report
	switch {
	case snap != nil && snap.Detector.Valid():
		det = snap.Detector
	case o.CalibratePath != "":
		f, err := os.Open(o.CalibratePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if model.Calibration != nil {
			det = model.Calibration.WithThreshold(o.Threshold)
			if warm, err = trace.ReadLastRecords(f); err != nil {
				return nil, fmt.Errorf("read calibration trace: %w", err)
			}
			lap(&boot.calibRead)
			break
		}
		ds, err := trace.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("read calibration trace: %w", err)
		}
		lap(&boot.calibRead)
		det, err = trace.NewDetector(ds.States(), o.Threshold)
		if err != nil {
			return nil, fmt.Errorf("calibrate detector: %w", err)
		}
		lap(&boot.calibrate)
		warm = ds.LastRecords()
	default:
		return nil, fmt.Errorf("serve: -calibrate is required (no snapshot detector available)")
	}

	mon, err := online.NewMonitor(online.Config{
		Model:        model,
		Detector:     det,
		MaxPending:   o.MaxPending,
		Workers:      o.Workers,
		ModelVersion: meta.ModelVersion,
	})
	if err != nil {
		return nil, err
	}
	// Prime each node's diff slot with its last calibration report so the
	// first live report already yields a state vector. Warm copies the
	// vector: past this loop nothing refers to the parsed trace or its
	// states, so a restart does not carry them through the WAL replay.
	for _, rec := range warm {
		if err := mon.Warm(rec); err != nil {
			return nil, fmt.Errorf("warm monitor: %w", err)
		}
	}
	// Restore the monitor's rolling state (version ≥ 2 snapshots). This
	// replaces the calibration warm above, which is the point: the
	// snapshot's diff slots are newer. A shape mismatch means the snapshot
	// was cut under a DIFFERENT model/detector than the one configured now —
	// a typed, fatal operator error.
	if snap != nil && snap.Monitor != nil {
		if err := mon.Restore(*snap.Monitor); err != nil {
			if errors.Is(err, online.ErrBadState) {
				return nil, fmt.Errorf("%w: %v", ErrSnapshotMismatch, err)
			}
			return nil, fmt.Errorf("restore monitor state: %w", err)
		}
	}
	s := &Server{
		opts:    o,
		det:     det,
		mon:     mon,
		queue:   bus.NewQueue[ingest.Item](o.QueueSize),
		wake:    make(chan struct{}, 1),
		started: time.Now(),
		binDec:  ingest.NewBinaryDecoder(),
	}
	s.bus = bus.New(0)
	s.lc = lifecycle.New(o.Lifecycle, mon,
		&lifecycle.Set{Model: model, Version: meta.ModelVersion, Raw: modelRaw},
		lifecycle.Hooks{
			Enqueue: func(rec store.SwapRecord, apply func()) error {
				return s.barrier(0, func() (uint64, error) { return s.jnl.AppendControl(store.KindSwap, rec) }, apply)
			},
			DrainErr: func() { s.drainErrs.Add(1) },
			OnSwap:   s.onModelSwap,
		})
	if snap != nil {
		s.lc.SeedHistory(snap.Swaps)
	}
	lap(&boot.monitor)

	// WAL: open, then replay everything retained past the snapshot's
	// watermark into the monitor. Records at or below the watermark are
	// already in the restored state; anything the replay re-offers is
	// absorbed by the monitor's duplicate/stale handling, so recovery errs
	// on the side of replaying too much.
	if o.WALPath != "" {
		j, err := store.OpenJournal(o.WALPath, nil)
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		var base uint64
		if snap != nil {
			base = snap.WALApplied
		}
		err = j.Replay(func(lsn uint64, kind store.RecordKind, inner []byte) error {
			if lsn <= base {
				s.walSkipped.Add(1)
				return nil
			}
			switch kind {
			case store.KindSwap:
				var rec store.SwapRecord
				if err := json.Unmarshal(inner, &rec); err != nil {
					s.walBadRec.Add(1)
					return nil
				}
				// A swap replays at exactly its LSN position: reports before
				// it are drained under the outgoing model, reports after it
				// under the new one — the same boundary the live queue
				// enforced.
				if err := s.lc.ReplaySwap(rec); err != nil {
					return err
				}
				s.walReplayed.Add(1)
			case store.KindHandoff:
				// A shard handoff replays at exactly its LSN position: the
				// moved nodes' own report records land first, then the
				// import/drop — the same ordering the live queue barrier
				// enforced.
				return s.replayHandoff(inner)
			case store.KindBatch:
				// A report batch: one WAL record carrying many reports,
				// always fully materialized, whichever transport it arrived
				// on. Replaying through the binary decoder both feeds the
				// monitor and re-primes the sink's delta cache, so a client
				// that kept its baselines across our restart can keep
				// sending deltas.
				a, err := s.binDec.DecodeArena(inner)
				if err != nil {
					s.walBadRec.Add(1)
					return nil
				}
				s.walReplayed.Add(s.ingestRecs(a.Records(), s.mon.Stage(a.Records())))
				s.binDec.Release(a)
				if mon.Pending() >= o.MaxPending/2 {
					// Keep the backlog bounded during long replays.
					if _, err := mon.Drain(); err != nil {
						return fmt.Errorf("drain during replay: %w", err)
					}
				}
			default: // no writer produces any other kind
				s.walBadRec.Add(1)
			}
			return nil
		})
		if err != nil {
			j.Abort()
			return nil, fmt.Errorf("replay wal: %w", err)
		}
		s.jnl = j
		s.applied.Store(j.NextLSN() - 1)
		lap(&boot.replay)
	}
	s.boot = boot
	return s, nil
}
