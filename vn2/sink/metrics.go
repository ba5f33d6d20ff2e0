package sink

import (
	"time"

	"github.com/wsn-tools/vn2/vn2/sink/api"
)

// registerMetrics wires every layer's counters into the two registries:
// reg carries the /metrics key set, statusReg the /status-only extras
// layered on top. The key sets are disjoint — a key has one source, so
// /metrics and /status cannot disagree about it (model_version is the
// monitor's: the generation that is labelling diagnoses right now).
func (s *Server) registerMetrics() {
	s.reg = api.NewRegistry()

	// HTTP edge + ingest queue.
	s.reg.Add(func(m map[string]any) {
		m["reports_received"] = s.received.Load()
		m["reports_accepted"] = s.accepted.Load()
		m["reports_rejected"] = s.rejected.Load()
		m["reports_refused_backlog"] = s.refusedBacklog.Load()
		m["bad_requests"] = s.badReqs.Load()
		m["reports_ingested"] = s.ingested.Load()
		m["ingest_errors"] = s.ingestErr.Load()
		m["queue_depth"] = s.QueueDepth()
		m["queue_capacity"] = s.opts.QueueSize
		woken, ticked := s.drainsWoken.Load(), s.drainsTicked.Load()
		m["drains"] = woken + ticked
		m["drains_woken"] = woken
		m["drains_ticked"] = ticked
		m["drain_busy_us"] = s.drainBusy.Load() / 1000
		m["drain_errors"] = s.drainErrs.Load()
		m["drain_fails_in_a_row"] = s.drainFails.Load()
		m["snapshots_written"] = s.snapshots.Load()
		m["snapshot_errors"] = s.snapErrs.Load()
		m["snapshot_bytes"] = s.snapBytes.Load()
		m["snapshot_ms"] = ms(time.Duration(s.snapNanos.Load()))
		// Where the (re)start spent its time; fixed once New has returned.
		m["boot_ms"] = ms(s.boot.total())
		m["boot_calibration_ms"] = ms(s.boot.calibRead + s.boot.calibrate)
		m["boot_replay_ms"] = ms(s.boot.replay)
	})

	// Degraded-mode state machine.
	s.reg.Add(func(m map[string]any) {
		degraded := 0
		if s.deg.Active() {
			degraded = 1
		}
		m["degraded"] = degraded
		m["degraded_entries"] = s.deg.Entries()
	})

	// Monitor stream counters + drift view.
	s.reg.Add(func(m map[string]any) {
		st := s.mon.Stats()
		m["monitor_reports"] = st.Reports
		m["monitor_first_reports"] = st.FirstReports
		m["monitor_stale"] = st.Stale
		m["monitor_duplicates"] = st.Duplicates
		m["monitor_invalid"] = st.Invalid
		m["monitor_normal"] = st.Normal
		m["monitor_flagged"] = st.Flagged
		m["monitor_dropped"] = st.Dropped
		m["monitor_diagnosed"] = st.Diagnosed
		m["monitor_gap_reports"] = st.GapReports
		m["monitor_max_gap"] = st.MaxGap
		m["monitor_last_epoch"] = st.LastEpoch
		m["pending_states"] = s.mon.Pending()
		m["epochs_rendered"] = s.mon.EpochsRendered()
		ds := s.mon.DriftStats()
		m["model_version"] = ds.ModelVersion
		m["drift_window"] = ds.Window
		m["drift_unattributed"] = st.Unattributed
		m["drift_unattributed_rate"] = ds.UnattributedRate
		m["drift_mean_residual"] = ds.MeanResidual
		m["drift_residual_p50"] = ds.P50
		m["drift_residual_p90"] = ds.P90
		m["drift_residual_p99"] = ds.P99
		m["quarantine_len"] = ds.Quarantine
	})

	// Persistent frame-stream ingest edge. On /metrics (not just /status):
	// these are load-shedding signals operators alert on.
	s.reg.Add(func(m map[string]any) {
		m["stream_conns"] = s.StreamConns()
		m["stream_conns_total"] = s.streamConnsTotal.Load()
		m["stream_conns_rejected"] = s.streamRejects.Load()
		m["stream_frames"] = s.streamFrames.Load()
		m["stream_nacks"] = s.streamNacks.Load()
	})

	// Bus replay-journal byte budget: the eviction counter is an alerting
	// signal (events aging out of /stream resume early because payloads
	// outgrew the budget), so it lives on /metrics, not just /status.
	s.reg.Add(func(m map[string]any) {
		bst := s.bus.Stats()
		m["bus_journal_bytes"] = bst.JournalBytes
		m["bus_journal_evictions"] = bst.JournalEvictions
	})

	// Shard handoff: ownership moves through this sink.
	s.reg.Add(func(m map[string]any) {
		m["handoff_exports"] = s.handoffExports.Load()
		m["handoff_imports"] = s.handoffImports.Load()
		m["handoff_releases"] = s.handoffReleases.Load()
		m["handoff_nodes_in"] = s.handoffNodes.Load()
	})

	// Lifecycle counters.
	s.reg.Add(s.lc.Metrics)

	// Journal (only when the WAL is on, matching the legacy conditional).
	s.reg.Add(func(m map[string]any) {
		if s.jnl == nil {
			return
		}
		m["wal_errors"] = s.jnl.Errs()
		m["wal_segments"] = s.jnl.Segments()
		m["wal_next_lsn"] = s.jnl.NextLSN()
		m["wal_applied"] = s.applied.Load()
		m["wal_truncations"] = s.jnl.Truncations()
		m["wal_replayed"] = s.walReplayed.Load()
		m["wal_replay_skipped"] = s.walSkipped.Load()
		m["wal_replay_bad"] = s.walBadRec.Load()
	})

	// /status extras: provenance, health detail and per-subsystem counters
	// that are not part of the /metrics key set.
	s.statusReg = api.NewRegistry()
	s.statusReg.Add(func(m map[string]any) {
		m["started"] = s.started.UTC().Format(time.RFC3339Nano)
		m["uptime_s"] = time.Since(s.started).Seconds()
		m["uptime"] = time.Since(s.started).Round(time.Second).String()
		m["lifecycle_enabled"] = s.opts.Lifecycle
		_, cooldown, probation := s.lc.State()
		m["model_cooldown_ticks"] = cooldown
		m["model_probation"] = probation
		m["model_retraining"] = s.lc.Retraining()
		m["model_history"] = s.lc.History()
		if reason, since := s.deg.Reason(); reason != "" {
			m["degraded_reason"] = reason
			m["degraded_for_s"] = time.Since(since).Seconds()
		}
		bst := s.bus.Stats()
		m["stream_subscribers"] = bst.Subscribers
		m["stream_dropped"] = bst.Dropped
		m["stream_published"] = bst.Published
		m["stream_encode_errors"] = bst.EncodeErrs
		m["stream_journal_len"] = bst.JournalLen
		m["stream_journal_cap"] = bst.JournalCap
		m["stream_next_seq"] = s.bus.NextSeq()
		// Binary ingest path (/report/bin).
		m["bin_frames"] = s.binFrames.Load()
		m["bin_rejects"] = s.binRejects.Load()
		// Frames decode under commitMu: read there, the counters agree.
		s.commitMu.Lock()
		m["bin_records"] = s.binRecords.Load()
		m["bin_bytes"] = s.binBytes.Load()
		m["bin_deltas"] = s.binDec.Deltas()
		m["bin_fulls"] = s.binRecords.Load() - s.binDec.Deltas()
		m["bin_cache_nodes"] = s.binDec.Nodes()
		s.commitMu.Unlock()
	})
}
