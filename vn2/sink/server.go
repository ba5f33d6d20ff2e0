package sink

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/bus"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
	"github.com/wsn-tools/vn2/vn2/sink/lifecycle"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// Degraded-mode reasons, by prefix: a drain reason clears on the next clean
// drain tick; a WAL reason only by a restart, because the WAL fails stop.
const (
	degradedWAL   = "wal"
	degradedDrain = "drain"
)

// Drain scheduling, see DESIGN.md: pending states wake the drain loop once
// the queue runs dry, or at drainBurst of them; drainFailLimit consecutive
// failed ticks degrade the server.
const (
	drainBurst     = 256
	drainFailLimit = 5
)

// Server is the online sink service: a bounded ingest queue feeding the
// monitor, woken drains and periodic snapshots, a WAL making every 202 durable,
// the lifecycle manager, the event bus, and the HTTP surface. When
// persistence or diagnosis fails persistently it degrades to a read-only
// "last-good diagnosis" mode instead of erroring: ingest answers 503,
// /diagnosis serves the last good summary, /healthz and /metrics carry the
// reason.
type Server struct {
	opts    Options
	det     *trace.Detector // the deployment's, frozen at boot; no swap changes it
	mon     *online.Monitor
	jnl     *store.Journal
	started time.Time
	boot    bootTimes // where New spent its time

	lc  *lifecycle.Manager
	bus *bus.Bus

	// The commit point (see commit.go). commitMu orders every WAL append
	// with its queue push; it also guards the two arenas it reuses: binDec,
	// the sink side of the delta protocol, and walBuf, where the WAL's full
	// frames are built. depth is the queue occupancy in reports (what
	// -queue, queue_depth and admission count) and backlog the pending
	// states queued handoff imports carry; both are raised under commitMu
	// and lowered by the ingest loop. applied is the LSN of the last item
	// the ingest loop applied — in LSN order and only once durable, so it
	// never passes the journal's Durable().
	commitMu sync.Mutex
	queue    *bus.Queue[ingest.Item] // grows with what it holds; room bounds it to -queue reports
	wake     chan struct{}           // 1 slot, ingest loop → drain loop: "flagged states are pending"
	depth    atomic.Int64
	backlog  atomic.Int64
	applied  atomic.Uint64
	binDec   *ingest.BinaryDecoder
	walBuf   []byte

	received       atomic.Uint64 // reports offered by clients
	accepted       atomic.Uint64 // reports that fit in the queue
	rejected       atomic.Uint64 // reports shed by backpressure (503)
	refusedBacklog atomic.Uint64 // of those, refused for the diagnosis backlog
	badReqs        atomic.Uint64 // malformed request bodies (400)
	ingested       atomic.Uint64 // reports the monitor consumed cleanly
	ingestErr      atomic.Uint64 // stale/invalid/backlogged reports
	drainsWoken    atomic.Uint64 // non-empty passes a flagged state woke
	drainsTicked   atomic.Uint64 // non-empty passes the tick ran
	drainBusy      atomic.Int64  // ns inside Monitor.Drain, cumulative
	drainErrs      atomic.Uint64 // failed diagnosis passes (total)
	snapshots      atomic.Uint64
	snapErrs       atomic.Uint64
	snapBytes      atomic.Int64 // size of the last snapshot written
	snapNanos      atomic.Int64 // its capture-to-rename time

	walReplayed atomic.Uint64 // records re-ingested from the WAL at startup
	walSkipped  atomic.Uint64 // replay records at or below the snapshot watermark
	walBadRec   atomic.Uint64 // replay records whose payload did not decode

	binFrames  atomic.Uint64 // binary frames accepted
	binRecords atomic.Uint64 // reports carried by accepted binary frames
	binBytes   atomic.Uint64 // wire bytes of accepted binary frames, headers included
	binRejects atomic.Uint64 // frames rejected (bad frame or delta-base miss)

	// Persistent frame-stream edge (see stream_srv.go).
	streamMu         sync.Mutex
	stream           *streamSrv
	streamConnsTotal atomic.Uint64 // connections ever accepted
	streamRejects    atomic.Uint64 // connections turned away (cap/draining)
	streamFrames     atomic.Uint64 // frames read off stream connections
	streamNacks      atomic.Uint64 // frames NACKed on the stream edge

	deg        api.Degraded
	lastGood   atomic.Pointer[online.Summary] // served read-only while degraded
	drainFails atomic.Uint64                  // consecutive failed ticks

	// draining flips when graceful shutdown starts: the process is still
	// live (/healthz stays 200 so supervisors do not double-kill it) but
	// /readyz answers 503 so routers stop sending it new work.
	draining atomic.Bool

	// Shard handoff (see handoff.go).
	handoffExports  atomic.Uint64 // slices exported to a peer shard
	handoffImports  atomic.Uint64 // slices accepted from a peer shard
	handoffReleases atomic.Uint64 // node sets released after a durable import
	handoffNodes    atomic.Uint64 // nodes moved in (imports), cumulative
}

// enterDegraded flips the server into read-only last-good mode. The first
// reason wins until cleared. The last-good summary is captured before the
// degraded flag publishes, so a reader that observes the flag always finds
// the summary.
func (s *Server) enterDegraded(reason string) {
	entered := s.deg.Enter(reason, func() {
		sum := s.mon.Snapshot()
		s.lastGood.Store(&sum)
	})
	if !entered {
		return
	}
	fmt.Fprintf(os.Stderr, "vn2 serve: DEGRADED (%s): serving last-good diagnosis, shedding ingest\n", reason)
	s.publish(EvDegradedEntered, degradedEvent{Reason: reason})
}

// clearDegraded exits degraded mode if the active reason starts with the
// given class prefix (so a clean drain tick can't clear a WAL failure).
func (s *Server) clearDegraded(class string) {
	reason, cleared := s.deg.Clear(class, func() { s.lastGood.Store(nil) })
	if !cleared {
		return
	}
	fmt.Fprintf(os.Stderr, "vn2 serve: recovered from degraded mode (%s)\n", reason)
	s.publish(EvDegradedCleared, degradedEvent{Reason: reason})
}

// ingestLoop consumes the queue until it is closed and empty, feeding the
// monitor and advancing the applied watermark. A report counts as applied
// whether the monitor accepted it or rejected it as stale/duplicate/invalid
// — either way it never needs replaying.
func (s *Server) ingestLoop() {
	ctx := context.Background()
	for q, ok := s.queue.Next(ctx); ok; q, ok = s.queue.Next(ctx) {
		s.ingestOne(q)
	}
}

// IngestQueued synchronously feeds everything currently queued into the
// monitor — the deterministic stand-in for ingestLoop used by the chaos
// harness and tests, which drive the server without background goroutines.
// With no drain loop to wake, it applies the loop's burst rule itself.
func (s *Server) IngestQueued() {
	for q, ok := s.queue.TryNext(); ok; q, ok = s.queue.TryNext() {
		s.ingestOne(q)
	}
	if s.mon.Pending() >= drainBurst {
		_ = s.drainPass(&s.drainsWoken) // a failure is logged and counted inside
	}
}

// ingestOne applies one item once its WAL record is durable, so the monitor
// holds only what a crash cannot take back. A report batch is staged first —
// classified and its flagged states solved, nothing visible — which overlaps
// the fsync its committer has started; the loop then waits for that fsync
// (or runs one) up to the item's own record, and applies. An item whose
// sync fails is dropped unapplied with its staged work — the WAL is
// poisoned and its committer NACKs it. Either way its decoder arena goes
// back for reuse: nothing holds the records after this.
func (s *Server) ingestOne(q ingest.Item) {
	st := s.mon.Stage(q.Recs)
	if q.LSN == 0 || q.LSN <= s.jnl.Durable() || s.jnl.SyncTo(q.LSN) == nil {
		if q.Apply != nil {
			q.Apply()
		}
		s.ingestRecs(q.Recs, st)
		if q.LSN != 0 {
			s.applied.Store(q.LSN)
		}
	}
	s.binDec.Release(q.Arena)
	// Lowered last: admission must never see a report or an imported state
	// as neither queued nor pending.
	s.depth.Add(-int64(q.Weight()))
	s.backlog.Add(-int64(q.Pending))
}

// ingestRecs applies one staged batch, live or replayed, and returns how
// many reports the monitor took; the rest were stale, invalid or dropped.
// Pending states wake the drain loop once nothing is queued behind them, or
// at drainBurst of them. st goes back to the monitor for reuse.
func (s *Server) ingestRecs(recs []trace.Record, st *online.Staged) (taken uint64) {
	n, p := s.mon.Apply(st)
	s.mon.Release(st)
	taken = uint64(n)
	s.ingested.Add(taken)
	s.ingestErr.Add(uint64(len(recs)) - taken)
	if p >= drainBurst || p > 0 && s.queue.Len() == 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return taken
}

// drainPass runs one batched diagnosis pass — Monitor.Drain, timed, then the
// diagnosed epochs onto the event bus — counting a non-empty one in count.
func (s *Server) drainPass(count *atomic.Uint64) error {
	start := time.Now()
	out, err := s.mon.Drain()
	s.drainBusy.Add(int64(time.Since(start)))
	if err != nil {
		// Log at 1, 2, 4, 8, ... so a persistent failure doesn't flood.
		if total := s.drainErrs.Add(1); total&(total-1) == 0 {
			fmt.Fprintf(os.Stderr, "vn2 serve: drain failed (%d total): %v\n", total, err)
		}
	} else if len(out) > 0 {
		count.Add(1)
		s.publishDiagnosed(out)
	}
	return err
}

// DrainTick is one tick of the drain loop — a pass, then, if it was clean,
// the tick's housekeeping; the chaos harness and tests call it directly.
func (s *Server) DrainTick() {
	if err := s.drainPass(&s.drainsTicked); err != nil {
		if fails := s.drainFails.Add(1); fails >= drainFailLimit {
			s.enterDegraded(fmt.Sprintf("%s: %d consecutive diagnosis failures: %v", degradedDrain, fails, err))
		}
		return
	}
	s.drainFails.Store(0)
	s.clearDegraded(degradedDrain)

	// Lifecycle: only on a clean, non-degraded tick — a degraded server has
	// bigger problems than drift, and its window is not trustworthy.
	if s.opts.Lifecycle.Enabled && !s.deg.Active() {
		s.lc.Tick()
	}
}

// drainLoop runs a pass on every wake; the ticker is the idle bound, the
// lifecycle's clock and a failed woken pass's retry clock.
func (s *Server) drainLoop(ctx context.Context) {
	ticker := time.NewTicker(s.opts.DrainEvery)
	defer ticker.Stop()
	wake := s.wake // nil while standing down after a failed woken pass
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.DrainTick()
			wake = s.wake
		case <-wake:
			if s.drainPass(&s.drainsWoken) != nil {
				wake = nil // the tick is the retry clock
			}
		}
	}
}

// PersistSnapshot atomically rewrites the snapshot file (tmp + rename) and
// makes the rename durable, then lets the WAL drop segments wholly covered
// by the snapshot. A failure is not retried: the snapshot tick is the retry
// clock. The watermark is read BEFORE the monitor state so the state can
// only be newer — see store.Snapshot.WALApplied. The file is streamed
// (store.WriteSnapshot): the document is never in memory, and its epochs
// are the read plane's parts.
func (s *Server) PersistSnapshot() error {
	if s.opts.SnapshotPath == "" {
		return nil
	}
	start := time.Now()
	// The capture is serialized against swap application (SnapMu): the
	// model envelope, the monitor state, and the history all describe the
	// same side of any generation boundary. A torn capture (old model, new
	// state) would recover with the wrong model and no replayable fix.
	s.lc.SnapMu.Lock()
	wm := s.applied.Load()
	cur := s.lc.Current()
	capt, err := s.mon.Capture()
	hist := s.lc.History()
	s.lc.SnapMu.Unlock()
	if err != nil {
		s.snapErrs.Add(1)
		return err
	}
	snap := store.Snapshot{
		Version:      store.SnapshotVersion,
		SavedAt:      time.Now().UTC(),
		Model:        cur.Raw,
		Detector:     s.det,
		Summary:      capt.Summary,
		Monitor:      &capt.State,
		WALApplied:   wm,
		ModelVersion: cur.Version,
		Swaps:        hist,
	}
	var size int64
	// The directory fsync is what makes the rename durable; without it a
	// power loss could bring back the older snapshot after the truncation
	// below has unlinked the segments between the two watermarks.
	err = store.WriteAtomic(s.opts.SnapshotPath, true, func(w io.Writer) (err error) {
		size, err = store.WriteSnapshot(w, &snap, capt.EpochParts)
		return err
	})
	if err != nil {
		s.snapErrs.Add(1)
		return err
	}
	s.snapshots.Add(1)
	s.snapBytes.Store(size)
	s.snapNanos.Store(int64(time.Since(start)))
	s.publish(EvSnapshotWritten, snapshotEvent{WALApplied: wm, Bytes: int(size), ModelVersion: cur.Version})
	if s.jnl != nil {
		if err := s.jnl.TruncateBefore(wm + 1); err != nil {
			fmt.Fprintln(os.Stderr, "vn2 serve: wal truncate:", err)
		}
	}
	return nil
}

// QueueDepth is the current ingest queue occupancy, in reports.
func (s *Server) QueueDepth() int { return int(s.depth.Load()) }

// MonitorState exports the monitor's rolling state (chaos/test drive API).
func (s *Server) MonitorState() online.MonitorState { return s.mon.State() }

// AbortWAL closes the journal without flushing — the crash-simulation hook.
func (s *Server) AbortWAL() error {
	if s.jnl == nil {
		return nil
	}
	return s.jnl.Abort()
}

// CloseWAL flushes and closes the journal.
func (s *Server) CloseWAL() error {
	if s.jnl == nil {
		return nil
	}
	return s.jnl.Close()
}

// Run serves until ctx is canceled, then shuts down gracefully: stop
// accepting requests, drain the queue into the monitor, run a final
// diagnosis pass, write a final snapshot, and close the WAL.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	httpSrv := api.NewServer(s.Handler())
	// Unwind long-lived /stream subscribers when Shutdown starts; without
	// this every open SSE connection would hold Shutdown to its deadline.
	httpSrv.RegisterOnShutdown(s.bus.Shutdown)

	loopCtx, cancelLoops := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// stopLoops is every exit's teardown once no writer is left: let any
	// in-flight shadow retrain land (or fail), then close the queue and wait
	// for the loops, the ingest loop draining what was already queued.
	stopLoops := func() {
		cancelLoops()
		s.lc.Wait()
		s.queue.Close()
		wg.Wait()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ingestLoop()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.drainLoop(loopCtx)
	}()
	if s.opts.SnapshotPath != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(s.opts.SnapshotEvery)
			defer ticker.Stop()
			for {
				select {
				case <-loopCtx.Done():
					return
				case <-ticker.C:
					if err := s.PersistSnapshot(); err != nil {
						fmt.Fprintln(os.Stderr, "vn2 serve: snapshot:", err)
					}
				}
			}
		}()
	}

	// The persistent frame-stream edge. It must stop (and its handlers
	// fully unwind) before the queue closes below: stream handlers are
	// queue writers.
	if s.opts.StreamAddr != "" {
		streamAddr, err := s.StartStream(s.opts.StreamAddr)
		if err != nil {
			ln.Close()
			stopLoops()
			s.CloseWAL()
			return err
		}
		fmt.Fprintf(os.Stderr, "vn2 serve: stream listening on %s\n", streamAddr)
	}

	fmt.Fprintf(os.Stderr, "vn2 serve: boot %s\n", s.boot)
	fmt.Fprintf(os.Stderr, "vn2 serve: listening on http://%s (queue %d, drain %s, wal %q)\n",
		ln.Addr(), s.opts.QueueSize, s.opts.DrainEvery, s.opts.WALPath)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		s.StopStream(true)
		stopLoops()
		s.CloseWAL()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "vn2 serve: shutting down")
	// From here the process is draining: still alive (liveness stays 200)
	// but no longer a routing target (/readyz flips to 503).
	s.draining.Store(true)
	// Budget must exceed net/http's ~5s grace for StateNew connections
	// (dialed but never used), or a single racing client dial makes
	// Shutdown report DeadlineExceeded.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutCtx)
	// Drain the stream edge: in-flight frames finish and are acknowledged,
	// then the connections close — clients see a clean EOF, not a torn ACK.
	s.StopStream(true)
	stopLoops()
	s.DrainTick()
	if err := s.PersistSnapshot(); err != nil {
		fmt.Fprintln(os.Stderr, "vn2 serve: final snapshot:", err)
	}
	if err := s.CloseWAL(); err != nil {
		fmt.Fprintln(os.Stderr, "vn2 serve: wal close:", err)
	}
	<-serveErr // Serve has returned http.ErrServerClosed by now
	return shutdownErr
}
